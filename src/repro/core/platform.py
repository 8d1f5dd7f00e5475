"""The invocation kernel: one platform-agnostic request pipeline.

The paper's portability claim is that the QoS layer sees only the abstract
request and the Cactus QoS interface.  This module owns the request
lifecycle every platform shares, so that the adapters
(:mod:`repro.core.adapters`) are thin codecs (abstract request ↔ platform
request, plus their paper-verbatim naming conventions):

- :class:`BaseClientPlatform` / :class:`BaseServerPlatform` /
  :class:`BaseSkeletonServant` — own the request lifecycle on each side
  (lazy binding through a :class:`~repro.core.routing.ReplicaDirectory`,
  liveness marks, control pings, the view stamp and the one place a reply
  is accepted, the fault taxonomy of
  :func:`repro.util.errors.fault_action`); subclasses supply only name
  formatting, name resolution, and the wire send (``_send`` /
  ``_send_async``);
- :class:`InvocationObserver` — explicit pre/post interception hook points
  threaded through stub → client platform → wire → skeleton → servant, so
  tracing/metrics attach without touching adapters.

Its neighbours: :mod:`repro.core.fanout` (scatter-gather),
:mod:`repro.core.piggyback` (the reply envelope).  All three must
stay platform-agnostic: importing :mod:`repro.orb`, :mod:`repro.rmi`, or
:mod:`repro.http` here is a layering violation (machine-checked by
``tools/check_layering.py``).
"""

from __future__ import annotations

import threading
import time
from abc import abstractmethod
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.core.interfaces import ClientPlatform, ServerPlatform
from repro.core.piggyback import unwrap_reply_value
from repro.core.request import PB_VIEW_DELTA, PB_VIEW_VERSION, Request
from repro.core.routing import ReplicaDirectory
from repro.net.transport import ReplyFuture
from repro.util.errors import BindError, CommunicationError, MarshalError, ShardMovedError

if TYPE_CHECKING:
    from repro.core.routing import ShardRouter


#: The reserved operation name of the replica control plane.  Requests with
#: this operation carry ``[kind, sender_replica, payload]`` and are routed to
#: the Cactus server's ``control:<kind>`` event by the CQoS skeleton.
CONTROL_OPERATION = "__cqos__"
#: Control kind answered directly by every skeleton (liveness probes).
CONTROL_PING = "ping"


# -- observers ----------------------------------------------------------------


class InvocationObserver:
    """Pre/post interception hook points along the invocation pipeline.

    Subclass and override any subset; every hook is a no-op by default and
    observer exceptions are swallowed (observation must never change
    request outcomes).  The stages, in client→server order:

    - ``on_stub_request`` / ``on_stub_complete`` — the CQoS stub boundary
      (one abstract request per application call);
    - ``on_wire_send`` / ``on_wire_reply`` / ``on_wire_failure`` — each
      physical send attempt through the client platform (replication and
      retries produce several per request);
    - ``on_skeleton_receive`` / ``on_skeleton_reply`` /
      ``on_skeleton_failure`` — the server-side interception boundary;
    - ``on_servant_invoke`` / ``on_servant_return`` — the native call into
      the real server object.
    """

    # client side -----------------------------------------------------------

    def on_stub_request(self, request: Request) -> None: ...

    def on_stub_complete(self, request: Request, error: BaseException | None) -> None: ...

    def on_wire_send(self, request: Request, server: int) -> None: ...

    def on_wire_reply(self, request: Request, server: int, value: Any) -> None: ...

    def on_wire_failure(self, request: Request, server: int, error: BaseException) -> None: ...

    # server side -----------------------------------------------------------

    def on_skeleton_receive(self, object_id: str, operation: str, context: dict) -> None: ...

    def on_skeleton_reply(self, object_id: str, operation: str, value: Any) -> None: ...

    def on_skeleton_failure(self, object_id: str, operation: str, error: BaseException) -> None: ...

    def on_servant_invoke(self, request: Request) -> None: ...

    def on_servant_return(self, request: Request, value: Any) -> None: ...


_HOOKS = {name: hook for name, hook in vars(InvocationObserver).items() if name.startswith("on_")}


class HookTable:
    """Per hook, the bound methods of the observers that listen to it.

    An :class:`InvocationObserver` listens to the hooks it overrides; any
    other object to the hooks it defines.  Immutable once built: a site
    reads its table once per invocation, so an observer added meanwhile
    first sees the next invocation, whole.
    """

    __slots__ = tuple(_HOOKS)

    def __init__(self, observers: Iterable[Any] = ()):
        for name, inherited in _HOOKS.items():
            listening: tuple[Callable[..., None], ...] = ()
            for observer in observers:
                method = getattr(observer, name, None)
                if method is not None and getattr(method, "__func__", None) is not inherited:
                    listening += (method,)
            setattr(self, name, listening)


_NO_HOOKS = HookTable()


def notify_observers(hooks: tuple[Callable[..., None], ...], *args: Any) -> None:
    """Deliver one hook to everyone who listens, swallowing observer failures."""
    for hook in hooks:
        try:
            hook(*args)
        except Exception:  # noqa: BLE001 - observation must not alter outcomes
            pass


class ObserverSite:
    """A place along the pipeline that observers attach to.

    ``observers`` is the registration list and :meth:`add_observer` its only
    writer; ``_hooks`` is the :class:`HookTable` derived from it.
    """

    _registration = threading.Lock()

    def __init__(self, observers: Iterable[Any] | None = None):
        self.observers: list[Any] = list(observers or ())
        self._hooks = HookTable(self.observers) if self.observers else _NO_HOOKS

    def add_observer(self, observer: Any) -> None:
        with self._registration:
            self.observers.append(observer)
            self._hooks = HookTable(self.observers)


# -- client platform base ------------------------------------------------------


class BaseClientPlatform(ObserverSite, ClientPlatform):
    """Platform-independent client half of the Cactus QoS interface.

    Owns the whole request lifecycle — lazy binding through a
    :class:`ReplicaDirectory`, ``server_status`` liveness marks, active
    ``probe()`` via the skeleton's control ping, and the shared fault
    taxonomy.  A concrete adapter supplies only its codec surface:

    - ``_replica_name(replica)`` / ``_replica_prefix()`` — the paper's
      naming convention for this platform;
    - ``_resolve(name)`` — bootstrap-service lookup, returning an opaque
      endpoint;
    - ``_list_names(prefix)`` — bootstrap-service enumeration;
    - ``_send(endpoint, operation, params, piggyback)`` / ``_send_async``
      — convert the abstract request into one platform request and invoke
      it, blocking or returning a :class:`~repro.net.transport.ReplyFuture`.

    ``router`` attaches a :class:`~repro.core.routing.ShardRouter`: replica
    counts/ids then come from its directory view (consulted on every
    bind/rebind), requests are view-stamped, and reply-piggybacked view
    deltas are pulled automatically.  Without one (``router`` is None, as
    on the server side) the platform is unsharded: prefix-scan discovery,
    no view stamp, and a view delta on a reply only refreshes the directory.
    """

    def __init__(
        self,
        object_id: str,
        observers: Iterable[InvocationObserver] | None = None,
        router: ShardRouter | None = None,
    ):
        ObserverSite.__init__(self, observers)
        self.object_id = object_id
        self.router = router
        self.directory = ReplicaDirectory(
            name_for=self._replica_name,
            resolve=self._resolve,
            list_names=self._list_names,
            prefix=self._replica_prefix(),
            router=self.router,
            object_id=object_id,
        )
        # Per-replica reply-latency EWMA, fed by every successful send (sync
        # or async) once the first rank_servers() call creates it: until
        # somebody ranks, a send reads no clock and takes no lock.
        self._latency_ewma: dict[int, float] | None = None
        self._latency_lock = threading.Lock()

    # -- codec surface (subclass responsibility) ----------------------------

    @abstractmethod
    def _replica_name(self, replica: int) -> str:
        """The bootstrap-service name of one replica (naming convention)."""

    @abstractmethod
    def _replica_prefix(self) -> str:
        """The enumeration prefix shared by every replica of the object."""

    @abstractmethod
    def _resolve(self, name: str) -> Any:
        """Look one name up in the platform's bootstrap service."""

    @abstractmethod
    def _list_names(self, prefix: str) -> list:
        """Enumerate bootstrap-service names under ``prefix``."""

    @abstractmethod
    def _send(self, endpoint: Any, operation: str, params: list, piggyback: dict | None) -> Any:
        """Convert to a platform request, invoke it, return the reply value."""

    @abstractmethod
    def _send_async(
        self, endpoint: Any, operation: str, params: list, piggyback: dict | None
    ) -> ReplyFuture:
        """Non-blocking ``_send``: the substrate's native pipelined submit
        (eager encode, lazy decode — wire bytes identical to ``_send``)."""

    # -- Cactus QoS interface (shared lifecycle) ----------------------------

    def num_servers(self) -> int:
        return self.directory.count()

    def server_ids(self) -> tuple[int, ...]:
        """The logical replica numbers (possibly sparse under sharding)."""
        return self.directory.replica_ids()

    def refresh(self) -> None:
        """Drop cached bindings and replica count (re-discover on next use)."""
        self.directory.refresh()

    def bind(self, server: int) -> None:
        self.directory.bind(server)

    def server_status(self, server: int) -> bool:
        return self.directory.status(server)

    def probe(self, server: int) -> bool:
        """Active liveness check via the skeleton's control ping."""
        try:
            endpoint = self.directory.endpoint(server)
            alive = bool(self._send(endpoint, CONTROL_OPERATION, [CONTROL_PING, 0, {}], None))
        except (CommunicationError, BindError):
            alive = False
        if not alive:
            self.directory.mark_failed(server)
        else:
            # "probe() rebinds": a successful probe of a replica previously
            # marked failed reinstates it (bind clears the failure mark).
            self.directory.bind(server)
        return alive

    #: How many shard-handoff redirects one invocation will follow.  Each
    #: ShardMovedError is a guarantee the servant did NOT execute, so the
    #: transparent resend is exactly-once safe; the bound only stops a
    #: pathological rebalance storm from looping forever.
    SHARD_REDIRECT_LIMIT = 3

    def invoke_server(self, server: int, request: Request) -> Any:
        redirects = 0
        while True:
            endpoint = self.directory.bind_endpoint(server)
            # The view stamp rides piggyback only on sharded deployments, so
            # unsharded wire bytes are untouched; the server answers a stale
            # stamp with a view delta on the reply.
            router = self.router
            if router is not None and router._view.groups:  # .sharded, no call
                request.piggyback[PB_VIEW_VERSION] = router._view.version
            # Read once: an observer added while this invocation is in flight
            # sees none of its hooks, never half of them.
            hooks = self._hooks
            if hooks.on_wire_send:
                notify_observers(hooks.on_wire_send, request, server)
            started = None if self._latency_ewma is None else time.monotonic()
            try:
                value = self._send(
                    endpoint, request.operation, request._params, dict(request.piggyback)
                )
            except ShardMovedError as exc:
                # The retired old owner refused without executing; the fault
                # taxonomy drops its binding, so the next attempt re-resolves
                # the (re-registered) naming entry and lands on the new owner.
                self._wire_failed(server, request, hooks, exc)
                if redirects == self.SHARD_REDIRECT_LIMIT:
                    raise
                redirects += 1
                continue
            except BaseException as exc:
                self._wire_failed(server, request, hooks, exc)
                raise
            return self._accept_reply(server, request, hooks, started, value)

    def _accept_reply(
        self, server: int, request: Request, hooks: HookTable, started: float | None, value: Any
    ) -> Any:
        """What a successful send means, for the blocking and the async path.

        Folds a timed send's latency into the replica's EWMA (see
        :meth:`rank_servers`), strips the reply envelope, applies a
        piggybacked view delta — or, when the delta cannot be applied,
        falls back to bootstrap re-enumeration — and fires
        ``on_wire_reply``.  Returns the application value.  A malformed
        envelope is a failed attempt: ``on_wire_failure``, then the
        ``MarshalError``.
        """
        if started is not None:
            seconds = time.monotonic() - started
            with self._latency_lock:
                ewma = self._latency_ewma
                previous = ewma.get(server)
                if previous is None:
                    ewma[server] = seconds
                else:
                    alpha = self.LATENCY_ALPHA
                    ewma[server] = alpha * seconds + (1 - alpha) * previous
        if type(value) is dict:  # only a dict can be an envelope
            try:
                value, reply_piggyback = unwrap_reply_value(value)
            except MarshalError as exc:
                self._wire_failed(server, request, hooks, exc)
                raise
            if reply_piggyback:
                request.reply_piggyback.update(reply_piggyback)
                delta = reply_piggyback.get(PB_VIEW_DELTA)
                router = self.router
                if delta is not None and (router is None or not router.apply_delta(delta)):
                    self.refresh()
        if hooks.on_wire_reply:
            notify_observers(hooks.on_wire_reply, request, server, value)
        return value

    def _wire_failed(
        self, server: int, request: Request, hooks: HookTable, exc: BaseException
    ) -> None:
        """One send attempt failed: fault taxonomy, then ``on_wire_failure``.

        ServerFailedError marks the replica down (server_status sees it);
        transient CommunicationErrors only drop the binding so the next
        attempt reconnects.
        """
        self.directory.apply_fault(server, exc)
        if hooks.on_wire_failure:
            notify_observers(hooks.on_wire_failure, request, server, exc)

    def invoke_server_async(self, server: int, request: Request) -> ReplyFuture:
        """Non-blocking :meth:`invoke_server`: submit now, settle later.

        Submit-time work (bind, endpoint resolution, the view stamp,
        ``on_wire_send``, the substrate's encode) runs on the caller's
        thread and may raise :class:`~repro.util.errors.BindError` or what
        the encode raises — :class:`~repro.core.fanout.ScatterGather`
        records such raises as immediate branch failures, and a send that
        raised has had its ``on_wire_failure`` like any other failed
        attempt.  Everything after the wire settles runs lazily at
        ``result()`` on the consumer's thread: :meth:`_accept_reply` on a
        reply, fault taxonomy and observers on a failure.
        A :class:`~repro.util.errors.ShardMovedError` outcome falls back to
        the blocking redirect-following path (rare rebalance window; the
        old owner refused without executing, so the resend is exactly-once
        safe).
        """
        endpoint = self.directory.bind_endpoint(server)
        router = self.router
        if router is not None and router._view.groups:  # .sharded, no call
            request.piggyback[PB_VIEW_VERSION] = router._view.version
        hooks = self._hooks
        if hooks.on_wire_send:
            notify_observers(hooks.on_wire_send, request, server)
        started = None if self._latency_ewma is None else time.monotonic()
        try:
            reply = self._send_async(
                endpoint, request.operation, request._params, dict(request.piggyback)
            )
        except BaseException as exc:
            self._wire_failed(server, request, hooks, exc)
            raise

        def on_error(exc: BaseException) -> Any:
            self._wire_failed(server, request, hooks, exc)
            if isinstance(exc, ShardMovedError):
                return self.invoke_server(server, request)
            raise exc

        return reply.then(partial(self._accept_reply, server, request, hooks, started), on_error)

    # -- latency ranking -----------------------------------------------------

    #: EWMA smoothing factor for per-replica reply latency.
    LATENCY_ALPHA = 0.3

    def rank_servers(self, candidates: Iterable[int]) -> tuple[int, ...]:
        """Order candidate replicas fastest-first by latency EWMA.

        Replicas with no measurement yet keep their incoming (logical-id)
        order, after the measured ones — a cold replica is probed only once
        the known-fast ones are in flight, which is the right bias for
        quorum gathers and for balancing cold starts alike.

        The EWMA is kept on demand: the first call creates it, and only sends
        submitted after that read the clock.  Its readers, ``LoadBalance``
        and ``ActiveRep``, both rank before their first send.
        """
        candidates = list(candidates)
        with self._latency_lock:
            if self._latency_ewma is None:
                self._latency_ewma = {}
            snapshot = dict(self._latency_ewma)
        measured = [server for server in candidates if server in snapshot]
        measured.sort(key=lambda server: snapshot[server])
        unmeasured = [server for server in candidates if server not in snapshot]
        return tuple(measured + unmeasured)


# -- server platform base ------------------------------------------------------


class BaseServerPlatform(ObserverSite, ServerPlatform):
    """Platform-independent server half of the Cactus QoS interface.

    Owns servant dispatch bookkeeping and the replica control plane
    (``peer_invoke`` / ``peer_status``) on top of a peer
    :class:`ReplicaDirectory` — "identical techniques to establish
    connections between server object replicas".  A concrete adapter
    supplies ``_peer_name``, ``_resolve``, ``_send`` and ``_send_async``
    (same codec surface as the client side) plus a ``dispatch`` object implementing
    ``dispatch(operation, params)`` for the native call into the servant.
    """

    def __init__(
        self,
        object_id: str,
        replica: int,
        dispatch: Any,
        total_replicas: int = 1,
        observers: Iterable[InvocationObserver] | None = None,
        router: ShardRouter | None = None,
    ):
        ObserverSite.__init__(self, observers)
        self.object_id = object_id
        self._replica = replica
        self._total = total_replicas
        self._dispatch = dispatch
        #: The authoritative ShardRouter of a sharded deployment (None when
        #: unsharded): the skeleton serves piggyback view deltas from it.
        self.router = router
        self.peers = ReplicaDirectory(name_for=self._peer_name, resolve=self._resolve)

    # -- codec surface (subclass responsibility) ----------------------------

    @abstractmethod
    def _peer_name(self, replica: int) -> str:
        """The bootstrap-service name of a peer replica's skeleton."""

    @abstractmethod
    def _resolve(self, name: str) -> Any:
        """Look one name up in the platform's bootstrap service."""

    @abstractmethod
    def _send(self, endpoint: Any, operation: str, params: list, piggyback: dict | None) -> Any:
        """Send one platform request to a peer endpoint."""

    @abstractmethod
    def _send_async(
        self, endpoint: Any, operation: str, params: list, piggyback: dict | None
    ) -> ReplyFuture:
        """Non-blocking ``_send`` (as on the client side)."""

    # -- Cactus QoS interface (shared lifecycle) ----------------------------

    def invoke_servant(self, request: Request) -> Any:
        hooks = self._hooks
        if hooks.on_servant_invoke:
            notify_observers(hooks.on_servant_invoke, request)
        value = self._dispatch.dispatch(request.operation, request._params)
        if hooks.on_servant_return:
            notify_observers(hooks.on_servant_return, request, value)
        return value

    def my_replica(self) -> int:
        return self._replica

    def num_replicas(self) -> int:
        return self._total

    def replica_ids(self) -> tuple[int, ...]:
        """Logical ids of this object's replica group (sparse when sharded).

        The server-side counterpart of the client's ``server_ids()``: when
        an authoritative :class:`~repro.core.routing.ShardRouter` is
        attached and sharded, the group comes from its view — the logical
        numbers need not be contiguous nor start at 1 — otherwise the
        historical dense ``1..num_replicas()`` enumeration.
        """
        if self.router is not None and self.router.sharded:
            ids = self.router.route(self.object_id)
            if ids:
                return tuple(ids)
        return tuple(range(1, self._total + 1))

    def peer_invoke(self, replica: int, kind: str, payload: dict) -> Any:
        endpoint = self.peers.endpoint(replica)
        try:
            return self._send(
                endpoint, CONTROL_OPERATION, [kind, self._replica, payload], None
            )
        except CommunicationError:
            self.peers.drop(replica)
            raise

    def peer_invoke_async(self, replica: int, kind: str, payload: dict) -> ReplyFuture:
        """Non-blocking :meth:`peer_invoke`; same taxonomy at ``result()``.

        May raise :class:`~repro.util.errors.BindError` at submit time (no
        such peer) — :class:`~repro.core.fanout.ScatterGather` records that
        as the branch
        outcome.  A ``CommunicationError`` outcome drops the peer binding
        when the result is consumed; multicast protocols drain their
        scatter from one pool task precisely so this binding hygiene still
        runs off the submitting thread.
        """
        endpoint = self.peers.endpoint(replica)
        reply = self._send_async(
            endpoint, CONTROL_OPERATION, [kind, self._replica, payload], None
        )

        def on_error(exc: BaseException) -> Any:
            if isinstance(exc, CommunicationError):
                self.peers.drop(replica)
            raise exc

        return reply.then(None, on_error)

    def peer_status(self, replica: int) -> bool:
        try:
            endpoint = self.peers.endpoint(replica)
            return bool(
                self._send(
                    endpoint, CONTROL_OPERATION, [CONTROL_PING, self._replica, {}], None
                )
            )
        except (CommunicationError, BindError):
            self.peers.drop(replica)
            return False


# -- skeleton servant base -----------------------------------------------------


class BaseSkeletonServant(ObserverSite):
    """Platform-independent wrapper delivering upcalls to the skeleton core.

    The generic ``invoke(method, arguments, context)`` signature is exactly
    what the RMI generic export and the HTTP generic mount expect; the
    CORBA adapter subclasses this and adapts the DSI ``ServerRequest``
    calling convention onto :meth:`dispatch_invocation`.
    """

    def __init__(self, skeleton: Any, observers: Iterable[InvocationObserver] | None = None):
        ObserverSite.__init__(self, observers)
        self.skeleton = skeleton

    def dispatch_invocation(self, operation: str, arguments: list, context: dict) -> Any:
        """Run one intercepted platform request through the CQoS skeleton."""
        hooks = self._hooks
        skeleton = self.skeleton
        if hooks.on_skeleton_receive:
            notify_observers(hooks.on_skeleton_receive, skeleton.object_id, operation, context)
        try:
            value = skeleton.handle_invocation(operation, arguments, context)
        except BaseException as exc:
            if hooks.on_skeleton_failure:
                notify_observers(hooks.on_skeleton_failure, skeleton.object_id, operation, exc)
            raise
        if hooks.on_skeleton_reply:
            notify_observers(hooks.on_skeleton_reply, skeleton.object_id, operation, value)
        return value

    #: The generic-invoke entry point (RMI export / HTTP mount), one frame.
    invoke = dispatch_invocation

