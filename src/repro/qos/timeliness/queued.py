"""Queue-based service differentiation (§3.4).

"The second, QueuedSched, schedules request execution by queuing low
priority requests if high priority requests are executing."  The paper's
three handlers, one-to-one:

- **checkPriority** (``readyToInvoke``) — admits a request or queues it;
- **notifyWaiting** (``invokeReturn``, bound last) — "raises
  requestReturned asynchronously with a low thread priority if no high
  priority requests remain to execute" (the modified raise() operation: the
  wakeup must not steal cycles from the thread returning the high-priority
  reply);
- **wakeupNext** (``requestReturned``) — releases the waiting low-priority
  requests.

Queuing works by halting the ``readyToInvoke`` chain: the servant is not
invoked and the middleware dispatch thread stays blocked in
``cactus_invoke`` until the release re-raises the event — the low-priority
*client* waits, nobody busy-waits.
"""

from __future__ import annotations

from collections import deque

from repro.cactus.composite import MicroProtocol
from repro.cactus.config import register_micro_protocol
from repro.cactus.events import ORDER_LAST, Occurrence
from repro.core.events import EV_INVOKE_RETURN, EV_READY_TO_INVOKE, EV_REQUEST_RETURNED
from repro.core.request import Request
from repro.qos.timeliness.common import (
    ATTR_ADMITTED,
    ATTR_RELEASED,
    HIGH_PRIORITY_THRESHOLD,
    LOW_PRIORITY,
    ORDER_SCHED,
    is_high_priority,
)


@register_micro_protocol("QueuedSched")
class QueuedSched(MicroProtocol):
    """Queue low-priority requests while high-priority ones execute."""

    name = "QueuedSched"

    def __init__(self, high_threshold: int = HIGH_PRIORITY_THRESHOLD):
        super().__init__()
        self._threshold = high_threshold
        # Protected by self.shared.lock:
        self._active_high = 0
        self._queue: deque[Request] = deque()

    def start(self) -> None:
        self.bind(EV_READY_TO_INVOKE, self.check_priority, order=ORDER_SCHED)
        self.bind(EV_INVOKE_RETURN, self.notify_waiting, order=ORDER_LAST)
        self.bind(EV_REQUEST_RETURNED, self.wakeup_next)

    # -- handlers ---------------------------------------------------------

    def check_priority(self, occurrence: Occurrence) -> None:
        """Admit high-priority requests; queue lows behind active highs."""
        request: Request = occurrence.args[0]
        with self.shared.lock:
            if request.attributes.get(ATTR_ADMITTED):
                return  # re-dispatched by another protocol; already admitted
            if is_high_priority(request, self._threshold):
                self._active_high += 1
                request.attributes[ATTR_ADMITTED] = True
                return
            if request.attributes.pop(ATTR_RELEASED, False):
                request.attributes[ATTR_ADMITTED] = True
                return
            if self._active_high > 0:
                self._queue.append(request)
                occurrence.halt()
            else:
                request.attributes[ATTR_ADMITTED] = True

    def notify_waiting(self, occurrence: Occurrence) -> None:
        """On completion of a high request, maybe wake the queue."""
        request: Request = occurrence.args[0]
        wake = False
        with self.shared.lock:
            if is_high_priority(request, self._threshold):
                self._active_high -= 1
                wake = self._active_high == 0 and bool(self._queue)
        if wake:
            self.raise_event(
                EV_REQUEST_RETURNED, request, mode="async", priority=LOW_PRIORITY
            )

    def wakeup_next(self, occurrence: Occurrence) -> None:
        """Release every queued low-priority request."""
        released: list[Request] = []
        with self.shared.lock:
            if self._active_high > 0:
                return  # a new high arrived since the wakeup was scheduled
            while self._queue:
                released.append(self._queue.popleft())
        for request in released:
            request.attributes[ATTR_RELEASED] = True
            self.raise_event(
                EV_READY_TO_INVOKE, request, mode="async", priority=LOW_PRIORITY
            )

    # -- introspection (tests) ----------------------------------------------

    def active_high(self) -> int:
        with self.shared.lock:
            return self._active_high
