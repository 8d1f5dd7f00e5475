"""Active replication (paper section 3.2).

"ActiveRep consists of one handler actAssigner that is similar to the base
assigner except that it raises readyToSend asynchronously.  The constructor
of ActiveRep binds actAssigner to the event newRequest multiple times, once
for each server.  …  each instance of actAssigner raises readyToSend, which
starts a separate instance of syncInvoker … executed concurrently by a
separate thread and thus, the blocking server invocations are executed in
parallel.  The actAssigner handlers override the base assigner by executing
before it and halting further execution associated with the event."

The *observable* semantics above are preserved exactly — one
``readyToSend`` per replica, the base ``syncInvoker`` overridden, one
``invokeSuccess``/``invokeFailure`` per replica outcome with the base
taxonomy, the base ``resultReturner`` completing from the first reply — but
the mechanics are a scatter-gather pipeline instead of a thread per
replica: :meth:`act_assigner` raises ``readyToSend`` for every replica in
one pass, :meth:`submit_invoker` turns each into one *non-blocking*
``invoke_server_async`` submission (the mux pipelines back-to-back
submissions on each replica's socket), and one runtime task
gathers the replies in completion order, raising the invoke events.

Gather policies (``gather_policy=``, beyond the paper):

- ``all`` (default) — every branch is gathered and raises its event; the
  first reply still completes the request (historical semantics, event for
  event);
- ``first`` — the first *successful* reply completes the request and the
  remaining branches are abandoned (correlation ids reclaimed);
- ``quorum:k`` — the request completes when ``k`` replies *match* (equal
  values / equal application errors); stragglers are abandoned.  If the
  scatter drains without a quorum the request fails.

Abandoning never cancels remote execution — active replication sends to
every replica regardless; only the local wait is cut short.
"""

from __future__ import annotations

from repro.cactus.composite import MicroProtocol
from repro.cactus.config import register_micro_protocol
from repro.cactus.events import ORDER_EARLY, Occurrence
from repro.core.client import SHARED_PLATFORM
from repro.core.events import (
    EV_INVOKE_FAILURE,
    EV_INVOKE_SUCCESS,
    EV_NEW_REQUEST,
    EV_READY_TO_SEND,
)
from repro.core.interfaces import ClientPlatform
from repro.core.fanout import (
    GATHER_ALL,
    GATHER_FIRST,
    GATHER_QUORUM,
    BranchOutcome,
    ScatterGather,
    parse_gather_policy,
)
from repro.core.request import Reply, Request
from repro.idl.compiler import IdlRemoteException
from repro.serialization.jser import jser_dumps
from repro.util.errors import CommunicationError, InvocationError, ServerFailedError

#: submit_invoker's order on readyToSend: after every QoS protocol that
#: manipulates the outgoing request (encryption, deadline stamping — they
#: run at ORDER_DEFAULT/ORDER_LATE), just before the base syncInvoker (100),
#: which it overrides for scatter passes.
ORDER_SUBMIT = 99

#: Request attribute present only *during* the scatter pass: gates
#: submit_invoker so a readyToSend re-raised later (retry protocols) falls
#: through to the base syncInvoker unchanged.
ATTR_SCATTER = "active_scatter"
#: Request attribute holding the gather context for the request's lifetime
#: (the acceptance gate consults it on every invoke event).
ATTR_GATHER = "active_gather"


def _match_key(reply: Reply) -> str:
    """The quorum-matching identity of one successful reply."""
    if reply.exception is not None:
        return f"exc:{type(reply.exception).__name__}:{reply.exception}"
    try:
        return "val:" + jser_dumps(reply.value).hex()
    except Exception:  # noqa: BLE001 - unmarshallable values match by repr
        return f"rep:{reply.value!r}"


class _GatherContext:
    """Per-request scatter state shared by the gather task and the gate."""

    def __init__(self, mode: str, quorum_k: int):
        self.scatter = ScatterGather()
        self.mode = mode
        self.quorum_k = quorum_k
        self.satisfied = False
        self.gathered = 0
        self.successes = 0
        self.last_failure: BaseException | None = None
        self._votes: dict[str, int] = {}

    def accept(self, reply: Reply) -> bool:
        """Record one gathered reply; True when it satisfies the policy."""
        self.gathered += 1
        if reply.failed:
            self.last_failure = reply.exception
            return False
        self.successes += 1
        if self.mode == GATHER_FIRST:
            self.satisfied = True
            return True
        if self.mode == GATHER_QUORUM:
            key = _match_key(reply)
            votes = self._votes.get(key, 0) + 1
            self._votes[key] = votes
            if votes >= self.quorum_k:
                self.satisfied = True
                return True
        return False

    def exhaustion_error(self) -> BaseException:
        """The failure completing a request whose scatter drained unsatisfied."""
        if self.mode == GATHER_QUORUM and self.successes > 0:
            return CommunicationError(
                f"no {self.quorum_k}-of-{self.scatter.submitted} quorum: "
                f"{self.successes} replies, largest match "
                f"{max(self._votes.values(), default=0)}"
            )
        return self.last_failure or CommunicationError(
            "active replication: no replica produced a reply"
        )


@register_micro_protocol("ActiveRep")
class ActiveRep(MicroProtocol):
    """Send every request to all replicas through one pipelined fan-out."""

    name = "ActiveRep"

    def __init__(self, num_servers: int | None = None, gather_policy: str | None = None):
        """``num_servers`` caps the replica group (mainly for tests);
        ``gather_policy`` is ``"all"`` (the default for ``None``),
        ``"first"`` or ``"quorum:k"``."""
        super().__init__()
        self._num_servers = num_servers
        self._policy_spec = gather_policy
        self._mode = GATHER_ALL
        self._quorum_k = 0

    def start(self) -> None:
        self._mode, self._quorum_k = parse_gather_policy(self._policy_spec)
        self.bind(EV_NEW_REQUEST, self.act_assigner, order=ORDER_EARLY)
        self.bind(EV_READY_TO_SEND, self.submit_invoker, order=ORDER_SUBMIT)
        if self._mode != GATHER_ALL:
            # The acceptance gate runs just before the base resultReturner
            # and halts it until the policy is satisfied.
            self.bind(EV_INVOKE_SUCCESS, self.accept_gate, order=ORDER_SUBMIT)
            self.bind(EV_INVOKE_FAILURE, self.accept_gate, order=ORDER_SUBMIT)

    # -- replica group -------------------------------------------------------

    def _replicas(self, platform: ClientPlatform) -> tuple[int, ...]:
        """The fan-out group: sparse-id aware, optionally capped.

        ``num_servers`` takes the first n discovered ids (so a sparse
        sharded group keeps its real ids); if discovery comes up shorter
        than the explicit override, the historical dense enumeration wins.
        """
        ids = platform.server_ids()
        if self._num_servers is not None:
            if len(ids) >= self._num_servers:
                ids = tuple(ids[: self._num_servers])
            else:
                ids = tuple(range(1, self._num_servers + 1))
        # Latency-EWMA order: known-fast replicas are submitted (and
        # typically answer) first, so first/quorum gathers finish without
        # waiting on the habitual straggler.
        return platform.rank_servers(ids)

    # -- handlers ------------------------------------------------------------

    def act_assigner(self, occurrence: Occurrence) -> None:
        """Scatter: one readyToSend per replica, then a single gather task."""
        request: Request = occurrence.args[0]
        platform: ClientPlatform = self.shared.get(SHARED_PLATFORM)
        ctx = _GatherContext(self._mode, self._quorum_k)
        request.attributes[ATTR_GATHER] = ctx
        request.attributes[ATTR_SCATTER] = ctx
        try:
            for server in self._replicas(platform):
                self.raise_event(EV_READY_TO_SEND, request, server)
        finally:
            request.attributes.pop(ATTR_SCATTER, None)
        try:
            self.composite.runtime.submit(self._gather, request, ctx)
        except CommunicationError:
            ctx.scatter.abandon_rest()  # the lane is shut: nothing will gather them
            raise
        occurrence.halt()

    def submit_invoker(self, occurrence: Occurrence) -> None:
        """One non-blocking submission per replica; overrides syncInvoker.

        Mirrors the base syncInvoker's pre-flight (status check, bind) —
        a dead replica becomes an immediate failed branch, no wire traffic
        — and registers the in-flight exchange with the request's scatter.
        Outside a scatter pass (a retry protocol re-raising readyToSend)
        it falls through to the base syncInvoker untouched.
        """
        request: Request = occurrence.args[0]
        ctx: _GatherContext | None = request.attributes.get(ATTR_SCATTER)
        if ctx is None:
            return
        server: int = occurrence.args[1]
        platform: ClientPlatform = self.shared.get(SHARED_PLATFORM)
        ctx.scatter.submit(server, lambda: self._submit_one(platform, server, request))
        occurrence.halt()

    @staticmethod
    def _submit_one(platform: ClientPlatform, server: int, request: Request):
        if not platform.server_status(server):
            raise ServerFailedError(f"server {server} is not running")
        platform.bind(server)
        return platform.invoke_server_async(server, request)

    def accept_gate(self, occurrence: Occurrence) -> None:
        """Policy acceptance (first/quorum): halt the base returner until met.

        The satisfying reply falls through, so the base resultReturner
        completes the request from it exactly as it always has; premature
        replies are recorded (votes, failure bookkeeping) and halted.
        """
        request: Request = occurrence.args[0]
        ctx: _GatherContext | None = request.attributes.get(ATTR_GATHER)
        if ctx is None or ctx.mode == GATHER_ALL:
            return
        reply: Reply = occurrence.args[2]
        if ctx.satisfied or ctx.accept(reply):
            return
        occurrence.halt()

    # -- gather task ----------------------------------------------------------

    def _gather(self, request: Request, ctx: _GatherContext) -> None:
        """Drain the scatter on one runtime task, raising the invoke events.

        Replies are processed in *completion* order — the pipelined
        equivalent of the old per-replica threads racing — and each raises
        the same event with the same reply taxonomy the base syncInvoker
        produced.  Once the policy is satisfied the remaining branches are
        abandoned (their correlation-id waiter entries are reclaimed; the
        stragglers' replies, if any, are discarded by the transport).
        """
        scatter = ctx.scatter
        while True:
            outcome = scatter.next_outcome()
            if outcome is None:
                break
            reply = self._reply_from_outcome(outcome)
            request.add_reply(reply)
            if reply.failed:
                self.raise_event(EV_INVOKE_FAILURE, request, reply.server, reply)
            else:
                self.raise_event(EV_INVOKE_SUCCESS, request, reply.server, reply)
            if ctx.satisfied:
                scatter.abandon_rest()
                break
        if ctx.mode != GATHER_ALL and not ctx.satisfied:
            request.fail(ctx.exhaustion_error())
        request.attributes.pop(ATTR_GATHER, None)

    @staticmethod
    def _reply_from_outcome(outcome: BranchOutcome) -> Reply:
        """Map one branch outcome onto the base syncInvoker's taxonomy."""
        server: int = outcome.key
        error = outcome.error
        if error is None:
            return Reply(server=server, value=outcome.value)
        if isinstance(error, (IdlRemoteException, InvocationError)):
            # Reached the servant and raised: an application outcome.
            return Reply(server=server, exception=error)
        return Reply(server=server, exception=error, failed=True)
