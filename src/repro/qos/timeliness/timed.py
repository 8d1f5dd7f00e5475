"""Rate-aware service differentiation (§3.4).

"The third micro-protocol, TimedSched, uses a similar strategy [to
QueuedSched], except that it keeps track of how many high priority requests
have arrived in a time period and only releases the low priority requests
(one at a time), when the number of high priority requests in the previous
period was smaller than a threshold."

So where QueuedSched reacts to *concurrency* (lows wait only while a high
is executing), TimedSched reacts to *load*: a busy window of high-priority
arrivals keeps lows queued for at least the next window, and even in quiet
windows lows trickle out one at a time — the strongest protection of the
three, which is why it is the one Table 3 measures.

Time-driven behaviour uses Cactus delayed raises (a ``timedTick`` event
re-armed each period).
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

EV_TIMED_TICK = "timedTick"


@register_micro_protocol("TimedSched")
class TimedSched(MicroProtocol):
    """Release queued lows one at a time, only after quiet windows."""

    name = "TimedSched"

    def __init__(
        self,
        period: float = 0.05,
        high_rate_threshold: int = 2,
        high_threshold: int = HIGH_PRIORITY_THRESHOLD,
    ):
        """``high_rate_threshold``: highs per ``period`` that count as busy."""
        super().__init__()
        self._period = period
        self._rate_threshold = high_rate_threshold
        self._priority_threshold = high_threshold
        self._stopped = False
        # Protected by self.shared.lock:
        self._current_count = 0
        self._previous_count = 0
        self._queue: deque[Request] = deque()
        self._low_running = False

    def start(self) -> None:
        self.bind(EV_READY_TO_INVOKE, self.check_priority, order=ORDER_SCHED)
        self.bind(EV_INVOKE_RETURN, self.on_return, order=ORDER_LAST)
        self.bind(EV_REQUEST_RETURNED, self.wakeup_next)
        self.bind(EV_TIMED_TICK, self.on_tick)
        self.raise_event(EV_TIMED_TICK, delay=self._period)

    def stop(self) -> None:
        self._stopped = True
        super().stop()

    # -- admission ---------------------------------------------------------

    def _may_release_low(self) -> bool:
        """Call with the shared lock held."""
        return self._previous_count < self._rate_threshold and not self._low_running

    def check_priority(self, occurrence: Occurrence) -> None:
        request: Request = occurrence.args[0]
        with self.shared.lock:
            if request.attributes.get(ATTR_ADMITTED):
                return  # re-dispatched by another protocol; already admitted
            if is_high_priority(request, self._priority_threshold):
                self._current_count += 1
                request.attributes[ATTR_ADMITTED] = True
                return
            if request.attributes.pop(ATTR_RELEASED, False):
                request.attributes[ATTR_ADMITTED] = True
                return  # released by wakeup_next; _low_running already set
            if self._may_release_low():
                self._low_running = True
                request.attributes[ATTR_ADMITTED] = True
                return
            self._queue.append(request)
            occurrence.halt()

    # -- release machinery ----------------------------------------------------

    def on_return(self, occurrence: Occurrence) -> None:
        request: Request = occurrence.args[0]
        wake = False
        with self.shared.lock:
            if not is_high_priority(request, self._priority_threshold):
                self._low_running = False
            wake = bool(self._queue) and self._may_release_low()
        if wake:
            self.raise_event(
                EV_REQUEST_RETURNED, request, mode="async", priority=LOW_PRIORITY
            )

    def wakeup_next(self, occurrence: Occurrence) -> None:
        """Release exactly one queued low-priority request."""
        released: Request | None = None
        with self.shared.lock:
            if self._queue and self._may_release_low():
                released = self._queue.popleft()
                self._low_running = True
        if released is not None:
            released.attributes[ATTR_RELEASED] = True
            self.raise_event(
                EV_READY_TO_INVOKE, released, mode="async", priority=LOW_PRIORITY
            )

    def on_tick(self, occurrence: Occurrence) -> None:
        if self._stopped:
            return
        wake = False
        with self.shared.lock:
            self._previous_count = self._current_count
            self._current_count = 0
            wake = bool(self._queue) and self._may_release_low()
        if wake:
            self.raise_event(EV_REQUEST_RETURNED, None, mode="async", priority=LOW_PRIORITY)
        if not self._stopped:
            self.raise_event(EV_TIMED_TICK, delay=self._period)
