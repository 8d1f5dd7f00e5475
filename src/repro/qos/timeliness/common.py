"""Shared priority conventions and the queuing schedulers' one base.

:class:`QueuingSched` holds the paper's three handlers for QueuedSched and
TimedSched, each of which is a policy over them:

- **checkPriority** (``readyToInvoke``) — admits a request or queues it by
  halting the chain, so the dispatch thread blocks in ``cactus_invoke`` and
  nobody busy-waits;
- **notifyWaiting** (``invokeReturn``, bound last) — "raises
  requestReturned asynchronously with a low thread priority" once a queued
  low may run, so the wakeup steals no cycles from the returning reply;
- **wakeupNext** (``requestReturned``) — releases the queued lows that may
  run now.

**The sequencer decides (§3.4).**  The paper resolves the conflict between
ordering and differentiation by scheduling at the ordering coordinator
only.  Where TotalOrder runs and another replica is its sequencer
(``TotalOrder.follows()``, read per request, so it follows a failover), a
scheduler admits every request at once and counts none: the announced order
already carries the sequencer's scheduling, and a follower that queued too
would hold back the very sequence numbers its ordering waits for.
"""

from __future__ import annotations

from collections import deque

from repro.cactus.composite import MicroProtocol
from repro.cactus.events import ORDER_LAST, Occurrence
from repro.core.events import EV_INVOKE_RETURN, EV_READY_TO_INVOKE, EV_REQUEST_RETURNED
from repro.core.request import Request
from repro.core.server import SHARED_ORDERING

#: Conventional request priorities on the 1..10 thread-priority scale.
HIGH_PRIORITY = 8
LOW_PRIORITY = 2

#: Requests at or above this priority are treated as "high priority" by the
#: queue-based schedulers.
HIGH_PRIORITY_THRESHOLD = 6

#: Sticky attribute: the request passed admission (``True`` when the
#: scheduler counted it, ``False`` when it followed the sequencer's order).
#: Protocols that re-dispatch readyToInvoke for their own reasons
#: (TotalOrder releasing a parked request) must not send an admitted
#: request back through the scheduler queue — that deadlocks both protocols
#: (the request holds a sequence number the ordering is waiting on while it
#: sits in the scheduler's queue).
ATTR_ADMITTED = "sched_admitted"

#: Order (on readyToInvoke) of the scheduling admission handlers: after
#: AccessControl (0), before TotalOrder's sequencing (5/10) — at the
#: sequencer, queuing happens before a request takes its sequence number.
ORDER_SCHED = 2

_UNRESOLVED = object()


def is_high_priority(request: Request, threshold: int = HIGH_PRIORITY_THRESHOLD) -> bool:
    """Classify a request by its (policy- or piggyback-derived) priority."""
    return request.priority >= threshold


class QueuingSched(MicroProtocol):
    """Admit, queue and release requests by a subclass's policy."""

    def __init__(self, high_threshold: int = HIGH_PRIORITY_THRESHOLD):
        super().__init__()
        self._threshold = high_threshold
        # The ordering protocol this stack runs, looked up at the first
        # request, once every protocol of the stack has started.
        self._ordering = _UNRESOLVED
        # Protected by self.shared.lock:
        self._queue: deque[Request] = deque()

    def start(self) -> None:
        self.bind(EV_READY_TO_INVOKE, self.check_priority, order=ORDER_SCHED)
        self.bind(EV_INVOKE_RETURN, self.notify_waiting, order=ORDER_LAST)
        self.bind(EV_REQUEST_RETURNED, self.wakeup_next)

    # -- the policy, called with the shared lock held: whether a low may run
    # now, and what a request counts when it starts and when it finishes.

    def _may_run_low(self) -> bool:
        raise NotImplementedError

    def _started(self, high: bool) -> None:
        raise NotImplementedError

    def _finished(self, high: bool) -> None:
        raise NotImplementedError

    # -- handlers ---------------------------------------------------------

    def check_priority(self, occurrence: Occurrence) -> None:
        """Admit highs, and lows the policy lets run; queue other lows."""
        request: Request = occurrence.args[0]
        attributes = request.attributes
        with self.shared.lock:
            if ATTR_ADMITTED in attributes:
                return  # re-dispatched by another protocol; already admitted
            ordering = self._ordering
            if ordering is _UNRESOLVED:
                ordering = self._ordering = self.shared.get(SHARED_ORDERING)
            if ordering is not None and ordering.follows():
                attributes[ATTR_ADMITTED] = False
                return
            high = request.priority >= self._threshold
            if not high and not self._may_run_low():
                self._queue.append(request)
                occurrence.halt()
                return
            self._started(high)
            attributes[ATTR_ADMITTED] = True

    def notify_waiting(self, occurrence: Occurrence) -> None:
        """On completion of a counted request, maybe wake the queue."""
        request: Request = occurrence.args[0]
        with self.shared.lock:
            if not request.attributes.get(ATTR_ADMITTED):
                return  # counted nowhere: it followed the sequencer's order
            self._finished(request.priority >= self._threshold)
            wake = self._queue and self._may_run_low()
        if wake:
            self.raise_event(
                EV_REQUEST_RETURNED, request, mode="async", priority=LOW_PRIORITY
            )

    def wakeup_next(self, occurrence: Occurrence) -> None:
        """Release the queued lows the policy lets run now."""
        released: list[Request] = []
        with self.shared.lock:
            while self._queue and self._may_run_low():
                request = self._queue.popleft()
                self._started(False)
                request.attributes[ATTR_ADMITTED] = True
                released.append(request)
        for request in released:
            self.raise_event(
                EV_READY_TO_INVOKE, request, mode="async", priority=LOW_PRIORITY
            )
