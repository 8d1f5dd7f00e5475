"""ShardSpace: a sharded object space over one CQoS deployment.

The deployment façade (:class:`~repro.core.service.CqosDeployment`) deploys
one object onto dedicated hosts; a :class:`ShardSpace` deploys *many*
objects onto a fixed fleet of server **groups** and lets the consistent-hash
ring decide which members host which object (see
:mod:`repro.core.routing`).  It owns the authoritative
:class:`~repro.core.routing.router.ShardRouter` — the single writer of
directory views — and performs live rebalancing with the zero-drop
discipline:

1. **install first** — the moved replica's skeleton is mounted on the new
   member (with the *same* servant instance — the stand-in for state
   transfer) and the bootstrap naming entry is rebound, so re-resolving
   clients immediately land on the new owner;
2. **flip the view** — ``router.apply(new_view)`` publishes the new
   assignment; clients pull it via reply piggyback;
3. **drain, then retire** — the old mount keeps serving until its
   skeleton's in-flight count reaches zero
   (:meth:`~repro.core.skeleton.CqosSkeleton.drain`); only then is it
   retired, after which a stale client with a cached endpoint receives the
   wire-safe, retryable :class:`~repro.util.errors.ShardMovedError`, drops
   its binding, re-resolves, and lands on the new owner.

No request in flight at the flip is dropped, and no naming convention or
wire byte changes — the ring only decides *which hosts register* the
unchanged ``"OID/replica-i"`` style names.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from repro.core.routing import (
    DirectoryView,
    Placement,
    ServerGroup,
    ShardRouter,
)
from repro.core.service import CqosDeployment, MpConfig
from repro.core.skeleton import CqosSkeleton
from repro.idl.compiler import InterfaceDef
from repro.util.errors import ConfigurationError

#: Seconds a handoff waits for the old mount's in-flight requests before
#: retiring it anyway.
DRAIN_TIMEOUT = 5.0


@dataclass
class _Mount:
    """One installed replica mount; its skeleton counts and drains."""

    object_id: str
    logical: int
    member: int
    skeleton: CqosSkeleton


@dataclass
class _ObjectSpec:
    """Everything needed to (re-)install an object's replicas."""

    servant_factory: Callable[[], Any]
    interface: InterfaceDef
    micro_protocols: MpConfig | str
    observers: tuple[Any, ...] = ()


class ShardSpace:
    """Many objects, few server groups, ring-decided placement."""

    def __init__(self, deployment: CqosDeployment, groups: Mapping[str, int]):
        if not groups:
            raise ConfigurationError("a shard space needs at least one server group")
        self.deployment = deployment
        self._lock = threading.RLock()
        self._members: dict[int, str] = {}  # member id -> host name
        self._hosts: dict[int, Any] = {}  # member id -> its started adapter host
        self._next_member = 1
        server_groups = tuple(
            self._allocate_group(name, count) for name, count in groups.items()
        )
        self.router = ShardRouter(
            DirectoryView(version=1, groups=server_groups)
        )
        self._objects: dict[str, _ObjectSpec] = {}
        self._servants: dict[tuple[str, int], Any] = {}
        self._mounts: dict[tuple[str, int], _Mount] = {}
        self._retired: dict[int, list[_Mount]] = {}  # member -> retired mounts

    # -- membership of the fleet ---------------------------------------------

    def _allocate_group(self, name: str, count: int) -> ServerGroup:
        if count < 1:
            raise ConfigurationError(f"group {name!r} needs at least one member")
        ids = []
        for j in range(1, count + 1):
            member = self._next_member
            self._next_member += 1
            self._members[member] = f"shard-{name}-{j}"
            ids.append(member)
        return ServerGroup(name, tuple(ids))

    def member_host(self, member: int) -> str:
        host = self._members.get(member)
        if host is None:
            raise ConfigurationError(f"unknown shard member {member}")
        return host

    def view(self) -> DirectoryView:
        return self.router.view()

    # -- object lifecycle -----------------------------------------------------

    def add_object(
        self,
        object_id: str,
        servant_factory: Callable[[], Any],
        interface: InterfaceDef,
        placement: Placement | None = None,
        server_micro_protocols: MpConfig | str = "with_base",
        observers: Sequence[Any] | None = None,
    ) -> tuple[tuple[int, int], ...]:
        """Place one object into the space; returns its assignments.

        ``placement`` selects the distribution policy; omitted, the space's
        default applies and the view is not even bumped.
        """
        with self._lock:
            if object_id in self._objects:
                raise ConfigurationError(f"object {object_id!r} already placed")
            spec = _ObjectSpec(
                servant_factory,
                interface,
                server_micro_protocols,
                tuple(observers or ()),
            )
            self._objects[object_id] = spec
            view = self.router.view()
            new_view = (
                view.with_placement(object_id, placement)
                if placement is not None
                else view
            )
            assigns = new_view.assignments(object_id)
            for logical, member in assigns:
                self._mounts[(object_id, logical)] = self._install(
                    object_id, logical, member, len(assigns)
                )
            if new_view is not view:
                self.router.apply(new_view)
            return assigns

    def _servant(self, object_id: str, logical: int) -> Any:
        key = (object_id, logical)
        servant = self._servants.get(key)
        if servant is None:
            servant = self._objects[object_id].servant_factory()
            self._servants[key] = servant
        return servant

    def _host(self, member: int) -> Any:
        host = self._hosts.get(member)
        if host is None:
            host = self.deployment._new_host(self.member_host(member)).start()
            self._hosts[member] = host
        return host

    def _install(
        self, object_id: str, logical: int, member: int, total: int
    ) -> _Mount:
        host = self._host(member)
        # A member about to re-host a replica must first free the mount id
        # its *retired* incarnation of that replica still holds.
        for mount in list(self._retired.get(member, ())):
            if mount.object_id == object_id and mount.logical == logical:
                self._retired[member].remove(mount)
                self._safely(host.unmount_replica, object_id, logical)
        spec = self._objects[object_id]
        servant = self._servant(object_id, logical)
        factory = self.deployment._server_factory(
            object_id, logical, spec.micro_protocols, None
        )
        skeleton = host.install_replica(
            object_id,
            logical,
            servant,
            spec.interface,
            cactus_server_factory=factory,
            total_replicas=total,
            observers=spec.observers,
            router=self.router,
        )
        return _Mount(object_id, logical, member, skeleton)

    # -- rebalancing -----------------------------------------------------------

    def add_group(self, name: str, members: int) -> None:
        """Grow the fleet by one group; minimally remaps and rebalances."""
        with self._lock:
            view = self.router.view()
            if any(group.name == name for group in view.groups):
                raise ConfigurationError(f"group {name!r} already exists")
            group = self._allocate_group(name, members)
            self._retarget(view.with_group(group))

    def remove_group(self, name: str) -> None:
        """Drain a group out of the fleet (its objects move clockwise)."""
        with self._lock:
            view = self.router.view()
            new_view = view.without_group(name)
            if new_view is view:
                raise ConfigurationError(f"no group named {name!r}")
            self._retarget(new_view)

    def set_placement(self, object_id: str, placement: Placement) -> None:
        """Change one object's placement policy live."""
        with self._lock:
            if object_id not in self._objects:
                raise ConfigurationError(f"object {object_id!r} is not placed")
            self._retarget(self.router.view().with_placement(object_id, placement))

    def apply_membership_change(self, failed) -> DirectoryView:
        """Record a failure-detector report in the authoritative view."""
        return self.router.apply_membership_change(failed)

    def _retarget(self, new_view: DirectoryView) -> None:
        """The zero-drop handoff: install → flip view → drain → retire."""
        old_view = self.router.view()
        moved: list[_Mount] = []
        dropped: list[_Mount] = []
        for object_id in self._objects:
            old = dict(old_view.assignments(object_id)) if old_view.sharded else {}
            new = dict(new_view.assignments(object_id))
            for logical, member in new.items():
                key = (object_id, logical)
                if old.get(logical) == member and key in self._mounts:
                    continue
                previous = self._mounts.get(key)
                self._mounts[key] = self._install(
                    object_id, logical, member, len(new)
                )
                if previous is not None:
                    moved.append(previous)
            for logical in old:
                if logical not in new:
                    previous = self._mounts.pop((object_id, logical), None)
                    if previous is not None:
                        dropped.append(previous)
        self.router.apply(new_view)
        for mount in moved + dropped:
            mount.skeleton.drain(DRAIN_TIMEOUT)
            mount.skeleton.retire()
            self._retired.setdefault(mount.member, []).append(mount)
        # A dropped logical replica has no successor registration: remove
        # its naming entry so prefix enumeration stops finding it.
        for mount in dropped:
            self._safely(
                self._host(mount.member).unbind_replica, mount.object_id, mount.logical
            )

    @staticmethod
    def _safely(action: Callable[..., None], object_id: str, logical: int) -> None:
        try:
            action(object_id, logical)
        except Exception:  # noqa: BLE001 - cleanup on a crashed member is moot
            pass

    def inflight(self, object_id: str) -> int:
        """Total server-side in-flight count across the object's live mounts."""
        with self._lock:
            return sum(
                mount.skeleton.inflight
                for (oid, _), mount in self._mounts.items()
                if oid == object_id
            )

    # -- client side -----------------------------------------------------------

    def client_router(self) -> ShardRouter:
        """A fresh per-client router seeded with the current view.

        Clients own their router (their view advances via piggyback deltas
        at their own pace); only the space's authoritative router is ever
        written by rebalancing.
        """
        return ShardRouter(self.router.view())

    def client_stub(self, object_id: str, interface: InterfaceDef, **kwargs: Any):
        """A CQoS stub whose replica discovery goes through the ring."""
        return self.deployment.client_stub(
            object_id, interface, router=self.client_router(), **kwargs
        )
