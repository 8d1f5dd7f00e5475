"""The Cactus runtime: what one composite executes on.

Wraps a :class:`~repro.util.concurrency.PriorityExecutor` (the thread pool
the paper mentions adding to Cactus/J as a performance optimization) and a
clock for delayed raises.  The two section-3.4 runtime changes live here:

1. asynchronous raises accept an explicit ``priority`` for the thread that
   executes the handlers (the modified ``raise()`` operation);
2. without an explicit priority, handlers execute at the raising thread's
   priority (priority preservation), which the executor guarantees.
"""

from __future__ import annotations

import heapq
import os
import threading
from typing import Callable

from repro.util.clock import Clock, RealClock
from repro.util.concurrency import (
    PriorityExecutor,
    ResultFuture,
    WorkerThreads,
    current_thread_priority,
)


class _TimerWheel:
    """One shared daemon thread serving all of a runtime's delayed raises.

    Armed timers sit in a deadline heap; the thread does a condition timed
    wait until the earliest deadline, fires that action, and re-waits.  A
    composite with hundreds of armed failover timers therefore costs one
    thread, not one per raise.  Only used with :class:`RealClock` — a
    virtual clock's time advances by explicit calls, so its timers must
    park inside ``clock.sleep`` where the test driver can see them.
    """

    def __init__(self, clock: Clock, name: str):
        self._clock = clock
        self._name = name
        self._cond = threading.Condition()
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self._thread: threading.Thread | None = None
        self._closed = False

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        with self._cond:
            if self._closed:
                raise RuntimeError("timer wheel is closed")
            deadline = self._clock.now() + max(delay, 0.0)
            self._seq += 1
            heapq.heappush(self._heap, (deadline, self._seq, action))
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, daemon=True, name=f"{self._name}-timer"
                )
                self._thread.start()
            elif self._heap[0][2] is action:
                # New earliest deadline: re-arm the wait.
                self._cond.notify()

    def close(self) -> None:
        """Stop the thread and fire remaining actions immediately.

        Each action re-checks runtime state, so firing after shutdown
        resolves its future to None rather than running the callable."""
        with self._cond:
            self._closed = True
            drained = [action for _, _, action in self._heap]
            self._heap.clear()
            self._cond.notify()
        for action in drained:
            action()

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._closed:
                    if not self._heap:
                        self._cond.wait()
                        continue
                    remaining = self._heap[0][0] - self._clock.now()
                    if remaining <= 0:
                        break
                    self._cond.wait(remaining)
                if self._closed:
                    return
                _, _, action = heapq.heappop(self._heap)
            action()


def default_worker_count() -> int:
    """Lane limit scaled to the machine: 4 per core, at least 4, at most 16.

    How many of one composite's asynchronous tasks may run at once: it
    bounds scheduler pressure from a busy composite and starts no thread
    (threads come on demand from the deployment's ``WorkerThreads``).
    """
    return max(4, min(16, 4 * (os.cpu_count() or 1)))


class CactusRuntime:
    """What one composite executes on: a clock, delayed raises and a lane of
    at most ``workers`` concurrent tasks over ``threads``, the deployment's
    set (or a private one, closed by :meth:`shutdown`, when none is given)."""

    def __init__(
        self,
        clock: Clock | None = None,
        workers: int | None = None,
        name: str = "cactus",
        threads: WorkerThreads | None = None,
    ):
        self.clock = clock or RealClock()
        if workers is None:
            workers = default_worker_count()
        self._executor = PriorityExecutor(workers=workers, name=name, threads=threads)
        self._closed = False
        # Delayed raises share one heap-driven timer thread under a real
        # clock; virtual clocks keep a dedicated sleeper per raise so the
        # deterministic-test driver can observe and release it.
        self._timers = (
            _TimerWheel(self.clock, name) if isinstance(self.clock, RealClock) else None
        )

    def submit(
        self, fn: Callable[..., None], *args, priority: int | None = None
    ) -> ResultFuture:
        """Run ``fn(*args)`` on the pool (at the caller's priority by default)."""
        return self._executor.submit(fn, *args, priority=priority)

    def submit_delayed(
        self,
        delay: float,
        fn: Callable[..., None],
        *args,
        priority: int | None = None,
        cancelled: Callable[[], bool] | None = None,
    ) -> ResultFuture:
        """Run ``fn(*args)`` after ``delay`` seconds of this runtime's clock.

        The delay is never served by a pool worker, since a sleeping worker
        would starve the pool (a composite with many armed timers, e.g.
        TotalOrder failover checks, must still execute events).  Under a
        real clock all delays share the runtime's single heap-driven timer
        thread; under a virtual clock each raise parks its own sleeper in
        ``clock.sleep`` so test drivers can observe and release it.  After
        the delay the callable runs on the pool at the requested priority.
        ``cancelled`` is consulted when the delay elapses; a true result
        skips the call.
        """
        future = ResultFuture()
        if priority is None:
            priority = current_thread_priority()

        def execute() -> None:
            try:
                future.set_result(fn(*args))
            except BaseException as exc:  # noqa: BLE001 - ferried to the future
                future.set_exception(exc)

        def fire() -> None:
            if self._closed or (cancelled is not None and cancelled()):
                future.set_result(None)
                return
            try:
                self._executor.submit(execute, priority=priority)
            except RuntimeError:
                future.set_result(None)  # runtime shut down meanwhile

        if self._timers is not None:
            self._timers.schedule(delay, fire)
            return future

        def timer() -> None:
            self.clock.sleep(delay)
            fire()

        threading.Thread(target=timer, daemon=True, name="cactus-timer").start()
        return future

    def shutdown(self) -> None:
        if not self._closed:
            self._closed = True
            if self._timers is not None:
                self._timers.close()
            self._executor.shutdown(wait=False)
