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
three, which is why it is the one Table 3 measures.  It is a policy over
:class:`~repro.qos.timeliness.common.QueuingSched`'s handlers, plus a
``timedTick`` event re-armed each period by a Cactus delayed raise.
"""

from __future__ import annotations

from repro.cactus.config import register_micro_protocol
from repro.cactus.events import Occurrence
from repro.core.events import EV_REQUEST_RETURNED
from repro.qos.timeliness.common import (
    HIGH_PRIORITY_THRESHOLD,
    LOW_PRIORITY,
    QueuingSched,
)

EV_TIMED_TICK = "timedTick"


@register_micro_protocol("TimedSched")
class TimedSched(QueuingSched):
    """Release queued lows one at a time, only after quiet windows."""

    name = "TimedSched"

    def __init__(
        self,
        period: float = 0.05,
        high_rate_threshold: int = 2,
        high_threshold: int = HIGH_PRIORITY_THRESHOLD,
    ):
        """``high_rate_threshold``: highs per ``period`` that count as busy."""
        super().__init__(high_threshold)
        self._period = period
        self._rate_threshold = high_rate_threshold
        self._stopped = False
        # Protected by self.shared.lock:
        self._current_count = 0
        self._previous_count = 0
        self._low_running = False

    def start(self) -> None:
        super().start()
        self.bind(EV_TIMED_TICK, self.on_tick)
        self.raise_event(EV_TIMED_TICK, delay=self._period)

    def stop(self) -> None:
        self._stopped = True
        super().stop()

    def _may_run_low(self) -> bool:
        return self._previous_count < self._rate_threshold and not self._low_running

    def _started(self, high: bool) -> None:
        if high:
            self._current_count += 1
        else:
            self._low_running = True

    def _finished(self, high: bool) -> None:
        if not high:
            self._low_running = False

    def on_tick(self, occurrence: Occurrence) -> None:
        if self._stopped:
            return
        with self.shared.lock:
            self._previous_count = self._current_count
            self._current_count = 0
            wake = self._queue and self._may_run_low()
        if wake:
            self.raise_event(EV_REQUEST_RETURNED, None, mode="async", priority=LOW_PRIORITY)
        if not self._stopped:
            self.raise_event(EV_TIMED_TICK, delay=self._period)
