"""Replica-number → endpoint directory (router-aware).

When a :class:`ShardRouter` with a sharded view is attached, replica counts
and ids come straight from the current
:class:`~repro.core.routing.view.DirectoryView` (one shared view answers
for thousands of objects); an unsharded deployment counts an object's
replicas by bootstrap prefix enumeration, the paper's naming-convention
bootstrap — one ``list_names`` round-trip per object, cached.

The directory consults the router on every bind/rebind/endpoint/count: a
view-version change invalidates cached endpoints, failure marks, and the
cached count and ids in one step — that *is* the client-side rebind of a
membership change or shard handoff, after which endpoints lazily
re-resolve through the (possibly re-registered) naming entries.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.util.errors import (
    ACTION_DROP_BINDING,
    ACTION_MARK_FAILED,
    BindError,
    CommunicationError,
    fault_action,
)


class ReplicaDirectory:
    """Replica-number → endpoint directory with lazy binding and liveness.

    "The interface allows the server replicas to be referred to by numbers
    (1..N) rather than by application or middleware specific identifiers."
    The directory owns that mapping for one target object: the platform's
    naming convention (``name_for``) formats the per-replica name, the
    resolver turns the name into an opaque endpoint (IOR reference, remote
    ref, HTTP address pair), and the directory caches endpoints and tracks
    failure marks (locked writes; reads are single atomic dict/set operations).

    Replica discovery is two-tier: a sharded :class:`ShardRouter` view when
    one is attached (``router=``/``object_id=``), prefix enumeration
    otherwise.  Resolution failures that are not communication errors are
    normalized to :class:`~repro.util.errors.BindError` so ``bind()`` has
    one observable failure mode on every platform.
    """

    def __init__(
        self,
        name_for: Callable[[int], str],
        resolve: Callable[[str], Any],
        list_names: Callable[[str], list] | None = None,
        prefix: str | None = None,
        router: Any = None,
        object_id: str | None = None,
    ):
        self._name_for = name_for
        self._resolve = resolve
        self._list_names = list_names
        self._prefix = prefix
        self._router = router
        self._object_id = object_id
        self._lock = threading.Lock()
        self._endpoints: dict[int, Any] = {}
        self._failed: set[int] = set()
        self._count: int | None = None
        self._seen_version = router.view().version if router is not None else 0
        #: ``(view version, replica ids)`` as :meth:`replica_ids` last found them.
        self._ids: tuple[int, tuple[int, ...]] | None = None

    # -- router consultation ---------------------------------------------------

    @property
    def router(self) -> Any:
        return self._router

    def _routed(self) -> bool:
        router = self._router
        return (
            router is not None
            and self._object_id is not None
            and bool(router._view.groups)  # DirectoryView.sharded, no call
        )

    def _sync_view(self) -> None:
        """Adopt a newer directory view: drop every stale binding.

        Callers compare ``router._view.version`` with ``_seen_version``
        inline and enter only on a difference, so an unchanged view costs
        one compare and no call.  A version change clears cached
        endpoints, failure marks, and the cached count and ids so the next use
        rebinds through the (possibly re-registered) naming entries — this
        is the client half of a shard handoff or a membership-driven view
        change.
        """
        router = self._router
        version = router._view.version
        with self._lock:
            if version == self._seen_version:
                return
            self._endpoints.clear()
            self._failed.clear()
            self._count = self._ids = None
            self._seen_version = version
        # Seed failure marks from the adopted view: replicas hosted on a
        # member the view reports failed start out marked, so status() and
        # failover agree with the membership the view carries.
        if self._routed():
            view = router.view()
            if view.failed:
                failed_logicals = [
                    logical
                    for logical, member in view.assignments(self._object_id)
                    if member in view.failed
                ]
                if failed_logicals:
                    with self._lock:
                        self._failed.update(failed_logicals)

    def _resolve_name(self, replica: int) -> Any:
        # Kept only while the view it was resolved under is still the
        # directory's and the router's: after a flip the name may have named
        # the retired owner, so it serves this one send and is re-resolved.
        version = self._seen_version
        name = self._name_for(replica)
        try:
            endpoint = self._resolve(name)
        except CommunicationError:
            raise  # the bootstrap service itself is unreachable
        except BindError:
            raise
        except Exception as exc:  # noqa: BLE001 - platform-specific "not bound"
            raise BindError(f"cannot resolve {name!r}: {exc}") from exc
        router = self._router
        with self._lock:
            if self._seen_version == version and (
                router is None or router._view.version == version
            ):
                self._endpoints[replica] = endpoint
        return endpoint

    def bind_endpoint(self, replica: int) -> Any:
        """(Re-)bind ``replica`` and return its endpoint (what every send
        does): clear its failure mark, resolve lazily.  A hit is one
        ``dict.get``; the lock is taken only to clear a mark that exists.

        Also the recovery path: "the bind() operation can also be used to
        rebind to a failed server after it has recovered."
        """
        router = self._router
        if router is not None and router._view.version != self._seen_version:
            self._sync_view()
        if replica in self._failed:
            with self._lock:
                self._failed.discard(replica)  # rebinding clears failure knowledge
        endpoint = self._endpoints.get(replica)
        if endpoint is None:
            endpoint = self._resolve_name(replica)
        return endpoint

    bind = bind_endpoint

    def endpoint(self, replica: int) -> Any:
        """The (lazily bound) endpoint for ``replica``."""
        router = self._router
        if router is not None and router._view.version != self._seen_version:
            self._sync_view()
        endpoint = self._endpoints.get(replica)
        if endpoint is None:
            endpoint = self._resolve_name(replica)
        return endpoint

    def drop(self, replica: int) -> None:
        """Forget the cached endpoint (next use re-resolves/reconnects)."""
        with self._lock:
            self._endpoints.pop(replica, None)

    def mark_failed(self, replica: int) -> None:
        """Record the replica as down and drop its binding."""
        with self._lock:
            self._failed.add(replica)
            self._endpoints.pop(replica, None)

    def status(self, replica: int) -> bool:
        """True while the replica is not marked failed (local knowledge)."""
        router = self._router
        if router is not None and router._view.version != self._seen_version:
            self._sync_view()
        return replica not in self._failed  # one set lookup: no lock

    def failed_replicas(self) -> set[int]:
        with self._lock:
            return set(self._failed)

    def apply_fault(self, replica: int, error: BaseException) -> str:
        """React to a platform fault per the shared taxonomy; returns the action."""
        action = fault_action(error)
        if action == ACTION_MARK_FAILED:
            self.mark_failed(replica)
        elif action == ACTION_DROP_BINDING:
            self.drop(replica)
        return action

    def count(self) -> int:
        """Replica count: from the routed view, else by prefix enumeration."""
        router = self._router
        if router is not None and router._view.version != self._seen_version:
            self._sync_view()
        if self._routed():
            return len(self._router.route(self._object_id))
        if self._list_names is None or self._prefix is None:
            raise BindError("directory was built without an enumeration strategy")
        with self._lock:
            if self._count is not None:
                return self._count
        found = len(self._list_names(self._prefix))
        with self._lock:
            self._count = max(found, 1)
            return self._count

    def replica_ids(self) -> tuple[int, ...]:
        """The logical replica numbers of the target object.

        Contiguous ``1..N`` for unsharded deployments; the view's placement
        ids (legitimately sparse) when routed.  Failure detectors must probe
        *these*, not ``range(1, count+1)``.

        Kept under the view version read *before* computing them, so ids a
        view flip overtook are never served under the new version; an
        unchanged view costs one compare.
        """
        router = self._router
        version = router._view.version if router is not None else 0
        ids = self._ids
        if ids is not None and ids[0] == version:
            return ids[1]
        if version != self._seen_version:
            self._sync_view()
        if self._routed():
            found = router.route(self._object_id)
        else:
            found = tuple(range(1, self.count() + 1))
        self._ids = (version, found)
        return found

    def refresh(self) -> None:
        """Drop every binding, failure mark, and the cached count and ids.

        This is the bootstrap re-enumeration fallback: the next use
        re-counts (or re-routes) and re-resolves from the naming service.
        """
        with self._lock:
            self._endpoints.clear()
            self._failed.clear()
            self._count = self._ids = None
