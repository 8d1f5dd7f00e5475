"""Queue-based service differentiation (§3.4).

"The second, QueuedSched, schedules request execution by queuing low
priority requests if high priority requests are executing."  Its policy
over :class:`~repro.qos.timeliness.common.QueuingSched`, which holds the
paper's three handlers: a low may run while no high is executing, so the
last high to return wakes the queue and every queued low is released.
"""

from __future__ import annotations

from repro.cactus.config import register_micro_protocol
from repro.qos.timeliness.common import HIGH_PRIORITY_THRESHOLD, QueuingSched


@register_micro_protocol("QueuedSched")
class QueuedSched(QueuingSched):
    """Queue low-priority requests while high-priority ones execute."""

    name = "QueuedSched"

    def __init__(self, high_threshold: int = HIGH_PRIORITY_THRESHOLD):
        super().__init__(high_threshold)
        # Protected by self.shared.lock:
        self._active_high = 0

    def _may_run_low(self) -> bool:
        return self._active_high == 0

    def _started(self, high: bool) -> None:
        if high:
            self._active_high += 1

    def _finished(self, high: bool) -> None:
        if high:
            self._active_high -= 1

    # -- introspection (tests) ----------------------------------------------

    def active_high(self) -> int:
        with self.shared.lock:
            return self._active_high
