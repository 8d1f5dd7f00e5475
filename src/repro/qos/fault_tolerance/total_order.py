"""Sequencer-based total order (paper section 3.2).

"The TotalOrder micro-protocol ensures that all replicas receive requests
from multiple clients in a consistent total order.  Our prototype uses a
sequencer-based total ordering algorithm, where a coordinator determines
the ordering for each request, and multicasts it to the other replicas."

The three handlers of the paper, one-to-one:

- **assignOrder** (``readyToInvoke``, coordinator) — assigns the next
  sequence number to each new request and multicasts ``(request_id, seq)``
  to the other replicas in parallel (async submissions, the ActiveRep
  technique);
- **checkOrder** (``readyToInvoke``, all replicas) — "processes both
  requests and ordering information and releases any request that becomes
  eligible for execution": a request proceeds only when its sequence number
  is the next to execute; otherwise it parks (halting the handler chain
  keeps the servant uninvoked while the dispatch thread blocks in
  ``cactus_invoke``);
- **checkNext** (``invokeReturn``) — advances the execution counter and
  re-dispatches the parked request that became eligible.

Used with ActiveRep: every replica receives every request directly from the
client, so the order announcements are the only extra messages.

**Coordinator failover** (the paper: "although failure of the coordinator
is not currently tolerated, it would be simple to add this using standard
techniques") is implemented as an extension: a request waiting for its
order past ``order_timeout`` probes the sequencer; if it is dead, the
lowest-numbered live replica takes over and assigns orders for everything
still waiting.  This is the standard sequencer-handover, sound under the
paper's crash-failure model without partitions (the in-memory network's
partition injection is exactly what its tests use to show the limits).
"""

from __future__ import annotations

from repro.cactus.composite import MicroProtocol
from repro.cactus.config import register_micro_protocol
from repro.cactus.events import Occurrence
from repro.core.events import (
    CONTROL_EVENT_PREFIX,
    EV_INVOKE_RETURN,
    EV_READY_TO_INVOKE,
)
from repro.core.interfaces import ControlMessage, ServerPlatform
from repro.core.fanout import ScatterGather
from repro.core.request import Request
from repro.core.server import SHARED_ORDERING, SHARED_PLATFORM
from repro.util.log import get_logger

logger = get_logger("qos.total_order")

CONTROL_ORDER = "order"

#: Handler orders on readyToInvoke: timeliness protocols run earlier (2) so
#: the sequencer queues before it sequences and its followers admit at once
#: (the paper's conflict resolution), the duplicate check of
#: PassiveRepServer uses 0, the servant runs at 100.
ORDER_ASSIGN = 5
ORDER_CHECK = 10

ATTR_ELIGIBLE = "to_eligible"


@register_micro_protocol("TotalOrder")
class TotalOrder(MicroProtocol):
    """Consistent request execution order across replicas."""

    name = "TotalOrder"

    def __init__(self, order_timeout: float = 2.0):
        super().__init__()
        self._order_timeout = order_timeout
        self._stopped = False
        # Protected by self.shared.lock:
        self._orders: dict[str, int] = {}  # request_id -> seq
        self._next_seq = 1  # next sequence number to execute
        self._counter = 1  # sequencer: next sequence number to assign
        self._parked: dict[int, Request] = {}  # seq -> request awaiting its turn
        self._unordered: dict[str, Request] = {}  # request_id -> awaiting order
        self._unordered_since: dict[str, float] = {}  # request_id -> clock time
        self._sequencer = 1

    def start(self) -> None:
        self.bind(EV_READY_TO_INVOKE, self.assign_order, order=ORDER_ASSIGN)
        self.bind(EV_READY_TO_INVOKE, self.check_order, order=ORDER_CHECK)
        self.bind(EV_INVOKE_RETURN, self.check_next)
        self.bind(CONTROL_EVENT_PREFIX + CONTROL_ORDER, self.on_order)
        self.shared.set(SHARED_ORDERING, self)
        # One periodic watchdog serves every waiting request (per-request
        # timers would churn a timer thread per request).
        self._arm_watchdog()

    def stop(self) -> None:
        self._stopped = True
        super().stop()

    # -- sequencer side ---------------------------------------------------

    def _platform(self) -> ServerPlatform:
        return self.shared.get(SHARED_PLATFORM)

    def follows(self) -> bool:
        """Whether another replica, the sequencer, orders this one's requests."""
        return not self._stopped and self._platform().my_replica() != self._sequencer

    def assign_order(self, occurrence: Occurrence) -> None:
        """Coordinator: allocate a sequence number and announce it."""
        request: Request = occurrence.args[0]
        platform = self._platform()
        with self.shared.lock:
            if platform.my_replica() != self._sequencer:
                return
            if request.request_id in self._orders:
                return  # already ordered (re-dispatch after parking)
            seq = self._counter
            self._counter += 1
            self._orders[request.request_id] = seq
        self._announce(request.request_id, seq)

    def _announce(self, request_id: str, seq: int) -> None:
        """Multicast the order: one pipelined submit pass, one drain task.

        Every peer's announcement is submitted non-blocking back-to-back
        (the mux pipelines them on each peer's socket); a single
        runtime task then drains the outcomes — a crashed replica's
        CommunicationError is its branch outcome (ignored: it will not
        execute anything anyway), and consuming each branch runs the
        substrate's binding hygiene off the sequencing thread.  The group
        comes from ``platform.replica_ids()``, so sparse sharded id spaces
        are announced to correctly.
        """
        platform = self._platform()
        me = platform.my_replica()
        payload = {"request_id": request_id, "seq": seq}
        scatter = ScatterGather()
        for replica in platform.replica_ids():
            if replica != me:
                scatter.submit(
                    replica,
                    lambda replica=replica: platform.peer_invoke_async(
                        replica, CONTROL_ORDER, payload
                    ),
                )
        if scatter.submitted:
            self.composite.runtime.submit(self._drain_announcements, scatter)

    @staticmethod
    def _drain_announcements(scatter: ScatterGather) -> None:
        scatter.gather_all()

    # -- all replicas --------------------------------------------------------

    def check_order(self, occurrence: Occurrence) -> None:
        """Park the request unless its sequence number is next."""
        request: Request = occurrence.args[0]
        with self.shared.lock:
            seq = self._orders.get(request.request_id)
            if seq is None:
                # Backup saw the request before the order announcement.
                self._unordered[request.request_id] = request
                self._unordered_since[request.request_id] = (
                    self.composite.runtime.clock.now()
                )
                occurrence.halt()
                return
            if seq != self._next_seq:
                self._parked[seq] = request
                occurrence.halt()
                return
            request.attributes[ATTR_ELIGIBLE] = True
        # seq == next: fall through to the servant invocation.

    def check_next(self, occurrence: Occurrence) -> None:
        """Advance the counter; release the request that became eligible."""
        request: Request = occurrence.args[0]
        released: Request | None = None
        with self.shared.lock:
            seq = self._orders.get(request.request_id)
            if seq is None or request.attributes.get("to_done"):
                return
            request.attributes["to_done"] = True
            self._next_seq = max(self._next_seq, seq + 1)
            released = self._parked.pop(self._next_seq, None)
        if released is not None:
            self.raise_event(EV_READY_TO_INVOKE, released, mode="async")

    def on_order(self, occurrence: Occurrence) -> None:
        """Record an order announcement; re-dispatch a waiting request."""
        message: ControlMessage = occurrence.args[0]
        request_id = message.payload["request_id"]
        seq = int(message.payload["seq"])
        with self.shared.lock:
            self._orders[request_id] = seq
            self._counter = max(self._counter, seq + 1)
            waiting = self._unordered.pop(request_id, None)
            self._unordered_since.pop(request_id, None)
        if waiting is not None:
            self.raise_event(EV_READY_TO_INVOKE, waiting, mode="async")
        message.respond(True)

    # -- coordinator failover (extension) ---------------------------------------

    def _arm_watchdog(self) -> None:
        self.composite.runtime.submit_delayed(
            self._order_timeout, self._watchdog, cancelled=lambda: self._stopped
        )

    def _watchdog(self) -> None:
        """Probe the sequencer if any request has waited a full timeout."""
        if self._stopped:
            return
        try:
            platform = self._platform()
            now = self.composite.runtime.clock.now()
            with self.shared.lock:
                overdue = any(
                    now - since >= self._order_timeout
                    for since in self._unordered_since.values()
                )
                sequencer = self._sequencer
            if overdue and sequencer != platform.my_replica():
                if not platform.peer_status(sequencer):
                    self._elect_sequencer()
        finally:
            if not self._stopped:
                self._arm_watchdog()

    def _elect_sequencer(self) -> None:
        """Lowest-numbered live replica becomes the sequencer."""
        platform = self._platform()
        me = platform.my_replica()
        new_sequencer = me
        # Lowest-numbered live replica wins; the id space may be sparse.
        for replica in sorted(platform.replica_ids()):
            if replica == me:
                new_sequencer = min(new_sequencer, replica)
                break
            if platform.peer_status(replica):
                new_sequencer = replica
                break
        logger.warning(
            "sequencer %d unreachable; replica %d elects sequencer %d",
            self._sequencer, me, new_sequencer,
        )
        to_order: list[Request] = []
        with self.shared.lock:
            self._sequencer = new_sequencer
            if new_sequencer != me:
                return
            # Assign orders for everything waiting, deterministically.
            self._counter = max(self._counter, self._next_seq)
            for rid in sorted(self._unordered):
                self._orders[rid] = self._counter
                self._counter += 1
                to_order.append(self._unordered.pop(rid))
                self._unordered_since.pop(rid, None)
        for request in to_order:
            self._announce(request.request_id, self._orders[request.request_id])
            self.raise_event(EV_READY_TO_INVOKE, request, mode="async")

    # -- introspection (tests) -----------------------------------------------------

    def executed_prefix(self) -> int:
        """Sequence numbers executed so far (next_seq - 1)."""
        with self.shared.lock:
            return self._next_seq - 1

    @property
    def sequencer(self) -> int:
        with self.shared.lock:
            return self._sequencer
