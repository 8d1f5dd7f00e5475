"""Load balancing over server replicas (extension; paper §2.2).

Two halves:

- :class:`LoadReporter` (server) — tracks the number of requests currently
  executing on this replica and answers ``load`` control-plane queries: the
  load-conditions extension of ``server_status()`` the paper sketches;
- :class:`LoadBalance` (client) — overrides the base assigner with
  latency-aware replica selection: per-replica service-latency EWMAs are
  fed *passively* from each invocation's send→reply timestamps (no extra
  messages), and assignment is power-of-two-choices over
  ``EWMA × (outstanding + 1)``.  The synchronous control-plane load poll
  survives only as the cold-start path: a replica with no latency samples
  yet is explored first, ranked by its last polled load.

A transient probe failure during the cold-start poll keeps the replica's
*stale* load (or a pessimistic default) — it does **not** mark the replica
failed: only the binding layer's fault taxonomy may do that, and a lost
control probe says nothing about the replica's ability to serve requests.

Composable with the acceptance and security protocols; mutually exclusive
with the replication assigners (ActiveRep sends everywhere, PassiveRep
pins a primary — both replace the same base handler).
"""

from __future__ import annotations

import random
import threading

from repro.cactus.composite import MicroProtocol
from repro.cactus.config import register_micro_protocol
from repro.cactus.events import ORDER_EARLY, ORDER_FIRST, Occurrence
from repro.core.client import SHARED_FAILED_SERVERS, SHARED_PLATFORM
from repro.core.events import (
    CONTROL_EVENT_PREFIX,
    EV_INVOKE_FAILURE,
    EV_INVOKE_SUCCESS,
    EV_NEW_REQUEST,
    EV_NEW_SERVER_REQUEST,
    EV_READY_TO_SEND,
)
from repro.core.interfaces import ClientPlatform, ControlMessage
from repro.core.platform import CONTROL_OPERATION
from repro.core.request import Request
from repro.util.errors import BindError, CommunicationError, ServerFailedError
from repro.util.log import get_logger

logger = get_logger("qos.load_balance")

CONTROL_LOAD = "load"

#: Request attribute: monotonic timestamp of the current send attempt.
_ATTR_SENT_AT = "lb_sent_at"
#: Request attribute: replica whose outstanding counter this request holds.
_ATTR_COUNTED = "lb_counted"

#: Polled load reported for a replica whose probe failed and that has no
#: earlier polled value to fall back on (pessimistic, but not "failed").
STALE_LOAD = 1 << 20


@register_micro_protocol("LoadReporter")
class LoadReporter(MicroProtocol):
    """Server half: count in-flight requests, answer load queries."""

    name = "LoadReporter"

    def __init__(self) -> None:
        super().__init__()
        self._in_flight = 0

    def start(self) -> None:
        self.bind(EV_NEW_SERVER_REQUEST, self.request_arrived, order=ORDER_EARLY)
        self.bind(CONTROL_EVENT_PREFIX + CONTROL_LOAD, self.report_load)

    def request_arrived(self, occurrence: Occurrence) -> None:
        request: Request = occurrence.args[0]
        with self.shared.lock:
            self._in_flight += 1
        # on_complete, not invokeReturn: a request shed by admission (or
        # killed by a handler fault) never reaches invokeReturn but must
        # still leave the load count.
        request.on_complete(self._request_done)

    def _request_done(self, request: Request) -> None:
        with self.shared.lock:
            self._in_flight = max(0, self._in_flight - 1)

    def report_load(self, occurrence: Occurrence) -> None:
        message: ControlMessage = occurrence.args[0]
        with self.shared.lock:
            message.respond(self._in_flight)

    def current_load(self) -> int:
        with self.shared.lock:
            return self._in_flight


@register_micro_protocol("LoadBalance")
class LoadBalance(MicroProtocol):
    """Client half: latency-EWMA power-of-two-choices replica selection."""

    name = "LoadBalance"

    def __init__(
        self,
        poll_interval: float = 0.25,
        alpha: float = 0.3,
        failure_penalty: float = 2.0,
        seed: int | None = None,
    ):
        super().__init__()
        self._poll_interval = poll_interval
        self._alpha = alpha
        self._failure_penalty = failure_penalty
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._loads: dict[int, int] = {}
        self._ewma: dict[int, float] = {}
        self._outstanding: dict[int, int] = {}
        self._last_poll = float("-inf")

    def start(self) -> None:
        self.bind(EV_NEW_REQUEST, self.lb_assigner, order=ORDER_EARLY)
        self.bind(EV_READY_TO_SEND, self.on_send, order=ORDER_EARLY)
        self.bind(EV_INVOKE_SUCCESS, self.on_reply, order=ORDER_FIRST)
        self.bind(EV_INVOKE_FAILURE, self.on_reply_failure, order=ORDER_FIRST)

    # -- load polling (cold-start fallback) ---------------------------------

    def _poll_loads(self, platform: ClientPlatform) -> None:
        """Query each replica's LoadReporter through the control plane.

        Only communication faults are tolerated (reported as stale load —
        the replica keeps its last known value); anything else is a bug and
        propagates.  A failed probe never marks the replica failed: that
        verdict belongs to the binding layer's fault taxonomy alone.
        """
        for server in platform.server_ids():
            probe = Request("lb", CONTROL_OPERATION, [CONTROL_LOAD, 0, {}])
            try:
                platform.bind(server)
                load = int(platform.invoke_server(server, probe))
            except (CommunicationError, BindError) as exc:
                self.incr("stale_probes")
                logger.debug("load probe of replica %d failed (%s); keeping stale load",
                             server, exc)
                with self._lock:
                    self._loads.setdefault(server, STALE_LOAD)
                continue
            with self._lock:
                self._loads[server] = load

    def _maybe_poll(self, platform: ClientPlatform) -> None:
        now = self.composite.runtime.clock.now()
        with self._lock:
            due = now - self._last_poll >= self._poll_interval
            if due:
                self._last_poll = now
        if due:
            self._poll_loads(platform)

    # -- passive latency observation ----------------------------------------

    def on_send(self, occurrence: Occurrence) -> None:
        request: Request = occurrence.args[0]
        server: int = occurrence.args[1]
        request.attributes[_ATTR_SENT_AT] = self.composite.runtime.clock.now()
        request.attributes[_ATTR_COUNTED] = server
        with self._lock:
            self._outstanding[server] = self._outstanding.get(server, 0) + 1
        # A send attempt that dies without an invoke event (a halting gate
        # like an open circuit breaker) must still drain the counter.
        request.on_complete(self._drain_outstanding)

    def _drain_outstanding(self, request: Request) -> None:
        server = request.attributes.pop(_ATTR_COUNTED, None)
        if server is None:
            return
        with self._lock:
            self._outstanding[server] = max(0, self._outstanding.get(server, 0) - 1)

    def on_reply(self, occurrence: Occurrence) -> None:
        request: Request = occurrence.args[0]
        server: int = occurrence.args[1]
        self._drain_outstanding(request)
        sent_at = request.attributes.pop(_ATTR_SENT_AT, None)
        if sent_at is None:
            return
        elapsed = max(0.0, self.composite.runtime.clock.now() - sent_at)
        self.record_latency(server, elapsed)

    def on_reply_failure(self, occurrence: Occurrence) -> None:
        request: Request = occurrence.args[0]
        server: int = occurrence.args[1]
        self._drain_outstanding(request)
        request.attributes.pop(_ATTR_SENT_AT, None)
        # Push traffic away from a failing replica without polluting the
        # latency estimate with timeout artefacts.
        with self._lock:
            if server in self._ewma:
                self._ewma[server] *= self._failure_penalty

    def record_latency(self, server: int, seconds: float) -> None:
        """Feed one latency observation into the replica's EWMA."""
        with self._lock:
            current = self._ewma.get(server)
            if current is None:
                self._ewma[server] = seconds
            else:
                self._ewma[server] = current + self._alpha * (seconds - current)

    # -- selection -----------------------------------------------------------

    def _score(self, server: int) -> float:
        # Caller holds self._lock.
        return self._ewma[server] * (1 + self._outstanding.get(server, 0))

    def select(self, candidates: list[int]) -> int:
        """Pick a replica: explore cold ones first, then power-of-two-choices.

        Cold replicas (no latency samples yet) are ranked by the last polled
        load, ties broken by the *incoming candidate order* (the assigner
        pre-ranks candidates by the kernel's latency EWMA when the platform
        has one, so a replica another protocol already measured as fast is
        explored before an arbitrary logical id); warm replicas compete
        pairwise on ``EWMA × (outstanding+1)``.
        """
        with self._lock:
            cold = [s for s in candidates if s not in self._ewma]
            if cold:
                chosen = min(
                    cold, key=lambda s: (self._loads.get(s, 0), candidates.index(s))
                )
                # Optimistically bump so a cold burst spreads instead of
                # dogpiling one replica between polls.
                self._loads[chosen] = self._loads.get(chosen, 0) + 1
                return chosen
            if len(candidates) == 1:
                return candidates[0]
            first, second = self._rng.sample(candidates, 2)
            return first if self._score(first) <= self._score(second) else second

    def lb_assigner(self, occurrence: Occurrence) -> None:
        request: Request = occurrence.args[0]
        platform: ClientPlatform = self.shared.get(SHARED_PLATFORM)
        failed: set = self.shared.get(SHARED_FAILED_SERVERS)
        candidates = [
            server for server in platform.server_ids() if server not in failed
        ]
        if not candidates:
            request.fail(ServerFailedError("no live replica for load balancing"))
            occurrence.halt()
            return
        # Kernel latency EWMAs (fed by every successful send on this
        # platform, not just this protocol's) order the cold-start
        # exploration; warm selection below is unaffected.
        candidates = list(platform.rank_servers(candidates))
        with self._lock:
            any_cold = any(s not in self._ewma for s in candidates)
        if any_cold:
            self._maybe_poll(platform)
        chosen = self.select(candidates)
        request.server = chosen
        self.raise_event(EV_READY_TO_SEND, request, chosen)
        occurrence.halt()

    # -- introspection -------------------------------------------------------

    def known_loads(self) -> dict[int, int]:
        with self._lock:
            return dict(self._loads)

    def latency_ewma(self) -> dict[int, float]:
        with self._lock:
            return dict(self._ewma)

    def outstanding(self) -> dict[int, int]:
        with self._lock:
            return dict(self._outstanding)
