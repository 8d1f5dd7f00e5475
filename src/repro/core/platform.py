"""The invocation kernel: one platform-agnostic request pipeline.

The paper's portability claim is that the QoS layer sees only the abstract
request and the Cactus QoS interface.  Historically each platform adapter
(:mod:`repro.core.adapters.corba` / ``rmi`` / ``http``) privately
reimplemented replica directories, lazy binding, failure tracking, control
pings, skeleton dispatch, and piggyback encode/decode.  This module hoists
all of that shared request-lifecycle machinery into one place; the adapters
shrink to thin codecs (abstract request ↔ platform request, plus their
paper-verbatim naming conventions).

Kernel pieces:

- :class:`ReplicaDirectory` — naming-convention strategy + lazy bind +
  lock-guarded liveness marks, shared by client platforms and the replica
  control plane.  The class now lives in :mod:`repro.core.routing`
  (re-exported here): replica discovery consults a
  :class:`~repro.core.routing.ShardRouter` view when one is attached and
  falls back to the historical prefix enumeration otherwise;
- :class:`BaseClientPlatform` / :class:`BaseServerPlatform` /
  :class:`BaseSkeletonServant` — own the request lifecycle on each side;
  subclasses supply only name formatting, name resolution, and the wire
  send (``_send``);
- :class:`PiggybackCodec` — the registry of well-known piggyback keys and
  the one textual header encoding used by header-based transports (the
  HTTP adapter's ``X-CQoS-*`` headers), so a new piggyback key is declared
  once instead of hand-threaded through three adapters;
- :func:`fault_action` — the single platform-fault →
  :class:`~repro.util.errors.CommunicationError`-taxonomy mapping, kept
  consistent with :func:`repro.util.errors.is_retryable`;
- :class:`InvocationObserver` — explicit pre/post interception hook points
  threaded through stub → client platform → wire → skeleton → servant, so
  tracing/metrics attach without touching adapters.

This module must stay platform-agnostic: importing :mod:`repro.orb`,
:mod:`repro.rmi`, or :mod:`repro.http` here is a layering violation
(machine-checked by ``tools/check_layering.py``).
"""

from __future__ import annotations

import concurrent.futures
import queue
import re
import threading
import time
from abc import abstractmethod
from typing import Any, Callable, Iterable

from repro.core.interfaces import ClientPlatform, ServerPlatform
from repro.core.request import (
    PB_ATTEMPT,
    PB_CACHE_EPOCH,
    PB_CACHE_INVALIDATE,
    PB_CLIENT_ID,
    PB_DEADLINE,
    PB_ENCRYPTED,
    PB_FORWARDED,
    PB_PRIORITY,
    PB_REQUEST_ID,
    PB_SIGNATURE,
    PB_VIEW_DELTA,
    PB_VIEW_VERSION,
    Request,
)
from repro.core.routing import ReplicaDirectory, ShardRouter
from repro.net.transport import ReplyFuture
from repro.serialization.jser import jser_dumps, jser_loads
from repro.util.errors import (
    AdmissionRejectedError,
    BindError,
    CommunicationError,
    ConfigurationError,
    ServerFailedError,
    ShardMovedError,
    TimeoutError_,
    is_retryable,
)

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


def notify_observers(observers: Iterable[InvocationObserver], hook: str, *args: Any) -> None:
    """Deliver one hook to every observer, swallowing observer failures."""
    for observer in observers:
        try:
            getattr(observer, hook)(*args)
        except Exception:  # noqa: BLE001 - observation must not alter outcomes
            pass


# -- piggyback codec ----------------------------------------------------------


class PiggybackCodec:
    """Registry of piggyback keys + the shared textual header encoding.

    The CORBA and RMI substrates ship the piggyback dict natively (GIOP
    service context / JRMP call context), so only header-based transports
    need an encoding: each entry becomes one ``x-cqos-<key>`` header whose
    value is the hex of the key's jser-encoded value, so *any*
    marshallable value (non-string, non-ASCII, nested, binary) survives
    header transport losslessly.

    Header names are case-folded and latin-1-constrained by HTTP, so keys
    that are not safe lower-case tokens are escaped as ``x-cqos-!<hex of
    jser(key)>`` — ``!`` cannot appear in a safe token, making the escape
    unambiguous, and safe keys (every well-known ``cqos_*`` key) keep
    their historical byte-identical wire form.

    ``declare()`` records a well-known key with documentation; adapters
    never enumerate keys, so declaring a new one here is the *only* step
    needed to introduce it.
    """

    PREFIX = "x-cqos-"
    _ESCAPE = "!"
    _SAFE_KEY = re.compile(r"[a-z0-9_.\-]+\Z")

    def __init__(self) -> None:
        self._declared: dict[str, str] = {}
        self._lock = threading.Lock()

    # -- key registry -------------------------------------------------------

    def declare(self, key: str, doc: str = "") -> str:
        """Register a well-known piggyback key; returns the key."""
        with self._lock:
            self._declared[key] = doc
        return key

    def declared_keys(self) -> dict[str, str]:
        """The registered well-known keys and their documentation."""
        with self._lock:
            return dict(self._declared)

    # -- header encoding ----------------------------------------------------

    def encode_headers(self, piggyback: dict | None) -> dict[str, str]:
        """Encode a piggyback dict as transport-safe ``x-cqos-*`` headers."""
        headers: dict[str, str] = {}
        for key, value in (piggyback or {}).items():
            if isinstance(key, str) and self._SAFE_KEY.match(key):
                name = f"{self.PREFIX}{key}"
            else:
                name = f"{self.PREFIX}{self._ESCAPE}{jser_dumps(key).hex()}"
            headers[name] = jser_dumps(value).hex()
        return headers

    def decode_headers(self, headers: dict[str, str]) -> dict:
        """Decode ``x-cqos-*`` headers back into the piggyback dict."""
        piggyback: dict = {}
        for name, value in headers.items():
            if not name.startswith(self.PREFIX):
                continue
            raw_key = name[len(self.PREFIX):]
            if raw_key.startswith(self._ESCAPE):
                key = jser_loads(bytes.fromhex(raw_key[len(self._ESCAPE):]))
            else:
                key = raw_key
            piggyback[key] = jser_loads(bytes.fromhex(value))
        return piggyback


#: The process-wide codec instance, with every well-known key declared once.
PIGGYBACK_CODEC = PiggybackCodec()
PIGGYBACK_CODEC.declare(PB_REQUEST_ID, "client-assigned request identity (replica correlation)")
PIGGYBACK_CODEC.declare(PB_CLIENT_ID, "originating client identity")
PIGGYBACK_CODEC.declare(PB_PRIORITY, "scheduling priority (timeliness protocols)")
PIGGYBACK_CODEC.declare(PB_ENCRYPTED, "parameters are DES-encrypted (privacy protocols)")
PIGGYBACK_CODEC.declare(PB_SIGNATURE, "request MAC (integrity protocols)")
PIGGYBACK_CODEC.declare(PB_FORWARDED, "replica-forwarded duplicate (passive replication)")
PIGGYBACK_CODEC.declare(PB_DEADLINE, "absolute deadline on the shared monotonic clock")
PIGGYBACK_CODEC.declare(PB_ATTEMPT, "send-attempt number stamped by retry protocols")
PIGGYBACK_CODEC.declare(PB_CACHE_EPOCH, "last cache-invalidation epoch seen by the client")
PIGGYBACK_CODEC.declare(PB_CACHE_INVALIDATE, "reply-direction invalidation delta (epoch, ops)")
PIGGYBACK_CODEC.declare(PB_VIEW_VERSION, "directory-view version the client routed with")
PIGGYBACK_CODEC.declare(PB_VIEW_DELTA, "reply-direction directory-view delta (piggyback pull)")


# -- reply-direction piggyback envelope ---------------------------------------
#
# None of the three substrates carries context on the *reply* leg (the GIOP
# ReplyMessage has no service context; JRMP/HTTP replies are bare values), so
# reply-direction piggyback rides inside the reply value itself: when a server
# micro-protocol staged entries in ``Request.reply_piggyback``, the Cactus
# server wraps the return value in a reserved-key envelope that the client
# platform strips before completing the request.  Zero cost (no wrapping) for
# requests with nothing staged, and no wire-format change on any platform.

#: Reserved marker key of the reply envelope (never a legitimate app value).
REPLY_ENVELOPE_KEY = "__cqos_reply__"
_REPLY_ENVELOPE_VALUE = "v"


def wrap_reply_value(value: Any, reply_piggyback: dict) -> Any:
    """Envelope ``value`` with reply-direction piggyback (no-op when empty)."""
    if not reply_piggyback:
        return value
    return {REPLY_ENVELOPE_KEY: dict(reply_piggyback), _REPLY_ENVELOPE_VALUE: value}


def unwrap_reply_value(value: Any) -> tuple[Any, dict | None]:
    """Split a reply into ``(value, reply_piggyback | None)``."""
    if (
        isinstance(value, dict)
        and len(value) == 2
        and REPLY_ENVELOPE_KEY in value
        and _REPLY_ENVELOPE_VALUE in value
    ):
        return value[_REPLY_ENVELOPE_VALUE], dict(value[REPLY_ENVELOPE_KEY])
    return value, None


# -- fault taxonomy -----------------------------------------------------------
#
# One shared answer to "what should the binding layer do about this platform
# fault?", the counterpart of repro.util.errors.is_retryable's "is this worth
# retrying?".  The two stay consistent by construction:
#
# - ServerFailedError (host crashed, not retryable) => MARK_FAILED: remember
#   the replica as down so server_status() reports it; failover is the right
#   reaction and bind() is the explicit recovery path;
# - every other CommunicationError (transient: loss, reset, partition flap,
#   timeout — exactly the retryable class plus spent deadlines / open
#   breakers, which never held a binding worth keeping) => DROP_BINDING:
#   forget the cached endpoint so the next attempt reconnects, but do NOT
#   mark the replica failed;
# - everything else (application outcomes, marshalling) => KEEP: the binding
#   is healthy, the request simply has a non-transport outcome.

ACTION_MARK_FAILED = "mark_failed"
ACTION_DROP_BINDING = "drop_binding"
ACTION_KEEP = "keep"


def fault_action(error: BaseException | None) -> str:
    """Classify a platform fault into the binding-layer reaction."""
    if isinstance(error, ServerFailedError):
        return ACTION_MARK_FAILED
    if isinstance(error, AdmissionRejectedError):
        # The server actively answered (it is alive and the binding works);
        # it just refused the work.  Keeping the binding lets the client
        # retry after the hinted delay without a reconnect.
        return ACTION_KEEP
    if isinstance(error, CommunicationError):
        # Exactly the is_retryable() class plus the non-retryable local
        # rejections (deadline spent, breaker open); none of them indicate
        # a crashed replica, so the binding is dropped but the replica is
        # not marked failed.
        return ACTION_DROP_BINDING
    return ACTION_KEEP


# -- scatter-gather fan-out ---------------------------------------------------
#
# The fan-out primitive of the replication protocols: submit every replica
# request in one non-blocking pass (the TCP mux pipelines them on each
# replica's socket), then gather completions in arrival order under a policy.
# Policies:
#
# - "all"       — every branch is gathered (the historical semantics: active
#                 replication collects all replies, passive forwarding joins
#                 every backup);
# - "first"     — the first *successful* reply wins; the remaining branches
#                 are abandoned (correlation ids reclaimed, no waiter leak);
# - "quorum:k"  — the k-th successful reply wins; no straggler wait.
#
# Abandoning a branch never cancels the remote execution — the request was
# already sent — it only stops waiting locally, which is exactly-once safe
# for the protocols that use it (active replication sends to every replica
# regardless; the reply value is what is being raced).

#: Valid gather-policy modes.
GATHER_ALL = "all"
GATHER_FIRST = "first"
GATHER_QUORUM = "quorum"


def parse_gather_policy(spec: str | None) -> tuple[str, int]:
    """Parse a gather-policy spec into ``(mode, quorum_k)``.

    Accepts ``"all"`` (default for ``None``/empty), ``"first"``, and
    ``"quorum:k"`` with integer ``k >= 1`` (``"quorum"`` alone means
    ``k=2``).  Raises :class:`~repro.util.errors.ConfigurationError` on
    anything else — a silently ignored policy knob would be worse than a
    loud one.
    """
    if spec is None or not spec.strip():
        return (GATHER_ALL, 0)
    text = spec.strip().lower()
    if text in (GATHER_ALL, GATHER_FIRST):
        return (text, 0)
    if text == GATHER_QUORUM or text.startswith(GATHER_QUORUM + ":"):
        _, _, raw_k = text.partition(":")
        try:
            quorum_k = int(raw_k) if raw_k else 2
        except ValueError:
            raise ConfigurationError(f"malformed quorum size in gather policy {spec!r}") from None
        if quorum_k < 1:
            raise ConfigurationError(f"quorum size must be >= 1, got {quorum_k}")
        return (GATHER_QUORUM, quorum_k)
    raise ConfigurationError(
        f"unknown gather policy {spec!r}; expected 'all', 'first', or 'quorum:k'"
    )


def _once(fn: Callable[[], None]) -> Callable[[], None]:
    """Wrap ``fn`` so concurrent/repeated invocations run it exactly once."""
    lock = threading.Lock()
    ran = [False]

    def run() -> None:
        with lock:
            if ran[0]:
                return
            ran[0] = True
        fn()

    return run


def threaded_reply_future(call: Callable[[], Any], name: str = "cqos-send-async") -> ReplyFuture:
    """Run a blocking ``call()`` on a daemon thread; settle a ReplyFuture.

    The fallback ``_send_async`` implementation for platforms that only
    define a blocking ``_send`` (test fakes, decorated stacks): semantically
    identical to the historical thread-per-replica fan-out.
    """
    future: concurrent.futures.Future = concurrent.futures.Future()

    def run() -> None:
        try:
            result = call()
        except BaseException as exc:  # noqa: BLE001 - delivered via the future
            future.set_exception(exc)
        else:
            future.set_result(result)

    threading.Thread(target=run, name=name, daemon=True).start()
    return ReplyFuture(future)


class BranchOutcome:
    """The settled result of one scatter branch: ``value`` XOR ``error``."""

    __slots__ = ("key", "value", "error")

    def __init__(self, key: Any, value: Any, error: BaseException | None):
        self.key = key
        self.value = value
        self.error = error

    @property
    def ok(self) -> bool:
        return self.error is None

    def __repr__(self) -> str:
        outcome = repr(self.value) if self.ok else f"error={self.error!r}"
        return f"BranchOutcome({self.key}, {outcome})"


class ScatterGather:
    """One multicast fan-out: submit N branches, gather in completion order.

    ``submit(key, fn)`` calls ``fn() -> ReplyFuture`` and registers the
    branch; a submit-time raise is recorded as that branch's (immediate)
    failure outcome rather than propagating, so one dead replica never
    aborts the scatter pass.  Completion signals are queued at *wire*
    settle time (done callbacks push the key only — no decode on transport
    threads); ``next_outcome()`` resolves the branch on the gather thread,
    where the substrate's lazy decode and fault bookkeeping run.

    The scatter and gather sides may be different threads, but submissions
    must happen-before the first ``next_outcome`` for the count to be
    meaningful (all protocol users submit the full pass first).
    """

    def __init__(self) -> None:
        self._signals: queue.SimpleQueue = queue.SimpleQueue()
        self._branches: dict[Any, ReplyFuture] = {}
        self._immediate: dict[Any, BranchOutcome] = {}
        self._lock = threading.Lock()
        self._submitted = 0
        self._gathered = 0

    def submit(self, key: Any, submit_fn: Callable[[], ReplyFuture]) -> None:
        """Start one branch; its completion will surface via the queue."""
        try:
            reply = submit_fn()
        except BaseException as exc:  # noqa: BLE001 - recorded as the outcome
            with self._lock:
                self._immediate[key] = BranchOutcome(key, None, exc)
                self._submitted += 1
            self._signals.put(key)
            return
        with self._lock:
            self._branches[key] = reply
            self._submitted += 1
        reply.add_done_callback(lambda _reply, key=key: self._signals.put(key))

    @property
    def submitted(self) -> int:
        return self._submitted

    def remaining(self) -> int:
        """Branches submitted but not yet gathered (nor abandoned)."""
        with self._lock:
            return self._submitted - self._gathered

    def next_outcome(self, timeout: float | None = None) -> BranchOutcome | None:
        """The next settled branch in completion order; None when drained.

        Raises :class:`~repro.util.errors.TimeoutError_` if no branch
        settles within ``timeout``.  Substrate decode (and its fault
        side effects) run here, on the gather thread.
        """
        with self._lock:
            if self._gathered >= self._submitted:
                return None
        try:
            key = self._signals.get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError_("scatter-gather: no branch completed within deadline") from None
        with self._lock:
            self._gathered += 1
            immediate = self._immediate.pop(key, None)
            reply = self._branches.pop(key, None)
        if immediate is not None:
            return immediate
        if reply is None:  # abandoned concurrently; treat as drained signal
            return BranchOutcome(key, None, TimeoutError_("exchange abandoned"))
        try:
            value = reply.result(timeout=0)
        except BaseException as exc:  # noqa: BLE001 - per-branch outcome
            return BranchOutcome(key, None, exc)
        return BranchOutcome(key, value, None)

    def gather_all(self, timeout: float | None = None) -> list[BranchOutcome]:
        """Gather every remaining branch (per-branch errors inside outcomes).

        ``timeout`` bounds the *whole* gather, not each branch.  Protocols
        that fire-and-forget a multicast call this from a single pool task
        so the substrates' lazy decode — and its binding-hygiene side
        effects — still run, just off the submitting thread.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        outcomes: list[BranchOutcome] = []
        while True:
            wait = None if deadline is None else max(0.0, deadline - time.monotonic())
            outcome = self.next_outcome(timeout=wait)
            if outcome is None:
                return outcomes
            outcomes.append(outcome)

    def abandon_rest(self) -> None:
        """Abandon every ungathered branch: reclaim transport waiter state.

        After this, ``next_outcome`` reports the scatter as drained.  Safe
        against late completion signals (their keys are simply ignored).
        """
        with self._lock:
            branches = list(self._branches.values())
            self._branches.clear()
            self._immediate.clear()
            self._gathered = self._submitted
        for reply in branches:
            reply.abandon()


# -- replica directory --------------------------------------------------------
#
# ReplicaDirectory moved to repro.core.routing.directory (the routing layer
# owns replica discovery now); imported above and re-exported here, its
# historical home, so existing imports keep working.


# -- client platform base ------------------------------------------------------


class BaseClientPlatform(ClientPlatform):
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
    - ``_send(endpoint, operation, params, piggyback)`` — convert the
      abstract request into one platform request and invoke it.

    ``router`` attaches a :class:`~repro.core.routing.ShardRouter`: replica
    counts/ids then come from its directory view (consulted on every
    bind/rebind), requests are view-stamped, and reply-piggybacked view
    deltas are pulled automatically.  Without one, an unsharded router is
    created and the platform behaves exactly as before (prefix-scan
    discovery, no view stamp — wire bytes unchanged).
    """

    def __init__(
        self,
        object_id: str,
        observers: Iterable[InvocationObserver] | None = None,
        router: ShardRouter | None = None,
    ):
        self.object_id = object_id
        self.observers: list[InvocationObserver] = list(observers or ())
        self.router = router if router is not None else ShardRouter()
        self.directory = ReplicaDirectory(
            name_for=self._replica_name,
            resolve=self._resolve,
            list_names=self._list_names,
            prefix=self._replica_prefix(),
            router=self.router,
            object_id=object_id,
        )
        # Per-replica reply-latency EWMA, fed by every successful send (sync
        # or async).  rank_servers() orders fan-out/balancing candidates by
        # it, so quorum gathers tend to reach k before the slow stragglers.
        self._latency_ewma: dict[int, float] = {}
        self._latency_lock = threading.Lock()

    def add_observer(self, observer: InvocationObserver) -> None:
        self.observers.append(observer)

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

    def _send_async(
        self, endpoint: Any, operation: str, params: list, piggyback: dict | None
    ) -> ReplyFuture:
        """Non-blocking ``_send``; delivery failures settle the future.

        Default: one daemon thread around the blocking codec, so subclasses
        that only define ``_send`` (test fakes, wrappers) work unchanged.
        The real adapters override this with their substrate's native
        pipelined submit (eager encode, lazy decode — wire bytes identical
        to the blocking path).
        """
        return threaded_reply_future(lambda: self._send(endpoint, operation, params, piggyback))

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
        for redirect in range(self.SHARD_REDIRECT_LIMIT + 1):
            try:
                return self._invoke_server_once(server, request)
            except ShardMovedError:
                # The retired old owner refused without executing; its
                # binding was already dropped by the fault taxonomy, so the
                # next attempt re-resolves the (re-registered) naming entry
                # and lands on the new owner.
                if redirect == self.SHARD_REDIRECT_LIMIT:
                    raise
        raise AssertionError("unreachable")

    def _invoke_server_once(self, server: int, request: Request) -> Any:
        endpoint = self.directory.bind_endpoint(server)
        # In-flight invocations pin the view they routed with: during a
        # shard handoff this attempt completes against the old view while
        # new binds route to the new owner (zero-drop rebalancing).  The
        # view stamp rides piggyback only on sharded deployments, so
        # unsharded wire bytes are untouched.
        lease = self.router.lease() if self.router.sharded else None
        if lease is not None:
            request.piggyback[PB_VIEW_VERSION] = lease.view.version
        # Read once: an invocation that starts with no observer makes none
        # of its hook calls, so a late add_observer never sees half a call.
        observers = self.observers or None
        if observers is not None:
            notify_observers(observers, "on_wire_send", request, server)
        started = time.monotonic()
        try:
            value = self._send(
                endpoint, request.operation, request.get_params(), dict(request.piggyback)
            )
        except BaseException as exc:
            # ServerFailedError marks the replica down (server_status sees
            # it); transient CommunicationErrors only drop the binding so
            # the next attempt reconnects.
            self.directory.apply_fault(server, exc)
            if observers is not None:
                notify_observers(observers, "on_wire_failure", request, server, exc)
            raise
        finally:
            if lease is not None:
                lease.release()
        self.record_latency(server, time.monotonic() - started)
        value, reply_piggyback = unwrap_reply_value(value)
        if reply_piggyback:
            request.reply_piggyback.update(reply_piggyback)
            delta = reply_piggyback.get(PB_VIEW_DELTA)
            if delta is not None and not self.router.apply_delta(delta):
                # Delta not applicable (history evicted / base mismatch):
                # fall back to bootstrap re-enumeration.
                self.refresh()
        if observers is not None:
            notify_observers(observers, "on_wire_reply", request, server, value)
        return value

    def invoke_server_async(self, server: int, request: Request) -> ReplyFuture:
        """Non-blocking :meth:`invoke_server`: submit now, settle later.

        Submit-time work (bind, endpoint resolution, view-lease pinning,
        ``on_wire_send``) runs on the caller's thread and may raise
        :class:`~repro.util.errors.BindError` — :class:`ScatterGather`
        records such raises as immediate branch failures.  Everything after
        the wire settles runs lazily at ``result()`` on the consumer's
        thread: reply unwrap, view-delta pull, fault taxonomy, observers.
        A :class:`~repro.util.errors.ShardMovedError` outcome falls back to
        the blocking redirect-following path (rare rebalance window; the
        old owner refused without executing, so the resend is exactly-once
        safe).  The view lease is released at wire settle *or* abandon,
        whichever comes first, so abandoned stragglers cannot pin a retired
        view forever.
        """
        endpoint = self.directory.bind_endpoint(server)
        lease = self.router.lease() if self.router.sharded else None
        if lease is not None:
            request.piggyback[PB_VIEW_VERSION] = lease.view.version
        observers = self.observers or None
        if observers is not None:
            notify_observers(observers, "on_wire_send", request, server)
        started = time.monotonic()
        reply = self._send_async(
            endpoint, request.operation, request.get_params(), dict(request.piggyback)
        )
        if lease is not None:
            release = _once(lease.release)
            reply.add_done_callback(lambda _reply: release())
            reply.chain_abandon(release)

        def on_value(value: Any) -> Any:
            self.record_latency(server, time.monotonic() - started)
            value, reply_piggyback = unwrap_reply_value(value)
            if reply_piggyback:
                request.reply_piggyback.update(reply_piggyback)
                delta = reply_piggyback.get(PB_VIEW_DELTA)
                if delta is not None and not self.router.apply_delta(delta):
                    self.refresh()
            if observers is not None:
                notify_observers(observers, "on_wire_reply", request, server, value)
            return value

        def on_error(exc: BaseException) -> Any:
            self.directory.apply_fault(server, exc)
            if observers is not None:
                notify_observers(observers, "on_wire_failure", request, server, exc)
            if isinstance(exc, ShardMovedError):
                return self.invoke_server(server, request)
            raise exc

        return reply.then(on_value, on_error)

    # -- latency ranking -----------------------------------------------------

    #: EWMA smoothing factor for per-replica reply latency.
    LATENCY_ALPHA = 0.3

    def record_latency(self, server: int, seconds: float) -> None:
        """Fold one successful reply's latency into the replica's EWMA."""
        with self._latency_lock:
            previous = self._latency_ewma.get(server)
            if previous is None:
                self._latency_ewma[server] = seconds
            else:
                alpha = self.LATENCY_ALPHA
                self._latency_ewma[server] = alpha * seconds + (1 - alpha) * previous

    def latency_estimate(self, server: int) -> float | None:
        """The replica's current reply-latency EWMA (None if never seen)."""
        with self._latency_lock:
            return self._latency_ewma.get(server)

    def rank_servers(self, candidates: Iterable[int]) -> tuple[int, ...]:
        """Order candidate replicas fastest-first by latency EWMA.

        Replicas with no measurement yet keep their incoming (logical-id)
        order, after the measured ones — a cold replica is probed only once
        the known-fast ones are in flight, which is the right bias for
        quorum gathers and for balancing cold starts alike.
        """
        candidates = list(candidates)
        with self._latency_lock:
            snapshot = dict(self._latency_ewma)
        measured = [server for server in candidates if server in snapshot]
        measured.sort(key=lambda server: snapshot[server])
        unmeasured = [server for server in candidates if server not in snapshot]
        return tuple(measured + unmeasured)


# -- server platform base ------------------------------------------------------


class BaseServerPlatform(ServerPlatform):
    """Platform-independent server half of the Cactus QoS interface.

    Owns servant dispatch bookkeeping and the replica control plane
    (``peer_invoke`` / ``peer_status``) on top of a peer
    :class:`ReplicaDirectory` — "identical techniques to establish
    connections between server object replicas".  A concrete adapter
    supplies ``_peer_name``, ``_resolve`` and ``_send`` (same codec surface
    as the client side) plus a ``dispatch`` object implementing
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
        self.object_id = object_id
        self._replica = replica
        self._total = total_replicas
        self._dispatch = dispatch
        self.observers: list[InvocationObserver] = list(observers or ())
        #: The authoritative ShardRouter of a sharded deployment (None when
        #: unsharded): the skeleton serves piggyback view deltas from it.
        self.router = router
        self.peers = ReplicaDirectory(name_for=self._peer_name, resolve=self._resolve)

    def add_observer(self, observer: InvocationObserver) -> None:
        self.observers.append(observer)

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

    # -- Cactus QoS interface (shared lifecycle) ----------------------------

    def invoke_servant(self, request: Request) -> Any:
        observers = self.observers or None
        if observers is None:
            return self._dispatch.dispatch(request.operation, request.get_params())
        notify_observers(observers, "on_servant_invoke", request)
        value = self._dispatch.dispatch(request.operation, request.get_params())
        notify_observers(observers, "on_servant_return", request, value)
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

    def _send_async(
        self, endpoint: Any, operation: str, params: list, piggyback: dict | None
    ) -> ReplyFuture:
        """Non-blocking ``_send`` (same default/override split as the client)."""
        return threaded_reply_future(lambda: self._send(endpoint, operation, params, piggyback))

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
        such peer) — :class:`ScatterGather` records that as the branch
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


class BaseSkeletonServant:
    """Platform-independent wrapper delivering upcalls to the skeleton core.

    The generic ``invoke(method, arguments, context)`` signature is exactly
    what the RMI generic export and the HTTP generic mount expect; the
    CORBA adapter subclasses this and adapts the DSI ``ServerRequest``
    calling convention onto :meth:`dispatch_invocation`.
    """

    def __init__(self, skeleton: Any, observers: Iterable[InvocationObserver] | None = None):
        self.skeleton = skeleton
        self.observers: list[InvocationObserver] = list(observers or ())

    def add_observer(self, observer: InvocationObserver) -> None:
        self.observers.append(observer)

    def dispatch_invocation(self, operation: str, arguments: list, context: dict) -> Any:
        """Run one intercepted platform request through the CQoS skeleton."""
        observers = self.observers or None
        if observers is None:
            return self.skeleton.handle_invocation(operation, arguments, context)
        object_id = self.skeleton.object_id
        notify_observers(observers, "on_skeleton_receive", object_id, operation, context)
        try:
            value = self.skeleton.handle_invocation(operation, arguments, context)
        except BaseException as exc:
            notify_observers(observers, "on_skeleton_failure", object_id, operation, exc)
            raise
        notify_observers(observers, "on_skeleton_reply", object_id, operation, value)
        return value

    def invoke(self, method: str, arguments: list, context: dict) -> Any:
        """The generic-invoke entry point (RMI export / HTTP mount)."""
        return self.dispatch_invocation(method, arguments, context)


# -- naming conventions --------------------------------------------------------
#
# The paper's platform naming conventions, verbatim.  They are *used* by the
# adapters (they are part of each platform's codec surface) but live here so
# deployment code and tests can format replica names without importing a
# platform module, and so the historical adapter-level helper names keep
# working as re-exports.


def corba_poa_name(object_id: str, replica: int) -> str:
    """The paper's POA naming convention: ``"OID_agent_poa_i"``."""
    return f"{object_id}_agent_poa_{replica}"


def corba_skeleton_object_id(object_id: str) -> str:
    """The shared CORBA skeleton object id: ``"OID_CQoS_Skeleton"``."""
    return f"{object_id}_CQoS_Skeleton"


def corba_replica_name(object_id: str, replica: int) -> str:
    """The naming-service entry for one CORBA replica: ``"OID/replica-i"``."""
    return f"{object_id}/replica-{replica}"


def corba_replica_prefix(object_id: str) -> str:
    return f"{object_id}/replica-"


def rmi_skeleton_name(object_id: str, replica: int) -> str:
    """The paper's registry naming convention: ``"OID_CQoS_Skeleton_i"``."""
    return f"{object_id}_CQoS_Skeleton_{replica}"


def rmi_skeleton_prefix(object_id: str) -> str:
    return f"{object_id}_CQoS_Skeleton_"


def http_replica_name(object_id: str, replica: int) -> str:
    """Path-registry naming convention for HTTP replicas: ``"OID/replica-i"``."""
    return f"{object_id}/replica-{replica}"


def http_replica_prefix(object_id: str) -> str:
    return f"{object_id}/replica-"


def http_skeleton_object_id(object_id: str) -> str:
    """The mounted CQoS skeleton's HTTP object id: ``"OID_CQoS_Skeleton"``."""
    return f"{object_id}_CQoS_Skeleton"
