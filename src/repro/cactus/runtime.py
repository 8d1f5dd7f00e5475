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

import os
from typing import Callable

from repro.util.clock import Clock, RealClock
from repro.util.concurrency import (
    PriorityExecutor,
    ResultFuture,
    WorkerThreads,
    current_thread_priority,
)
from repro.util.errors import CommunicationError


# Read once per process: ``os.cpu_count()`` reads sysfs on every call.
_DEFAULT_WORKERS = max(4, min(16, 4 * (os.cpu_count() or 1)))


def default_worker_count() -> int:
    """Lane limit scaled to the machine: 4 per core, at least 4, at most 16.

    How many of one composite's asynchronous tasks may run at once: it
    bounds scheduler pressure from a busy composite and starts no thread
    (threads come on demand from the deployment's ``WorkerThreads``).
    """
    return _DEFAULT_WORKERS


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
        self._owns_threads = threads is None
        self._threads = threads or WorkerThreads(name)
        self._executor = PriorityExecutor(workers=workers, name=name, threads=self._threads)
        self._closed = False

    def submit(
        self, fn: Callable[..., None], *args, priority: int | None = None
    ) -> ResultFuture:
        """Run ``fn(*args)`` on the pool (at the caller's priority by default).

        Once the lane is shut this raises :class:`CommunicationError`, the
        error a request held at shutdown fails with, so a call that was
        still raising its events when its deployment closed gets a fault
        of the taxonomy, not the executor's ``RuntimeError``."""
        try:
            return self._executor.submit(fn, *args, priority=priority)
        except RuntimeError as exc:
            if not self._closed:
                raise
            raise CommunicationError(str(exc)) from None

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
        real clock the delay is armed on the timer wheel of the set, one
        thread for every runtime sharing it; under a virtual clock each
        raise parks its own sleeper in ``clock.sleep`` so test drivers can
        observe and release it.  After the delay the callable runs on the
        pool at the requested priority.  ``cancelled`` is consulted when the
        delay elapses; a true result skips the call, and a raise from it
        settles the future.
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
            try:
                if self._closed or (cancelled is not None and cancelled()):
                    future.set_result(None)
                else:
                    self._executor.submit(execute, priority=priority)
            except RuntimeError:
                future.set_result(None)  # runtime shut down meanwhile
            except Exception as exc:  # noqa: BLE001 - ferried to the future
                future.set_exception(exc)

        if isinstance(self.clock, RealClock):
            self._threads.call_later(delay, fire)
            return future

        def timer() -> None:
            self.clock.sleep(delay)
            fire()

        self._threads.spawn(timer)
        return future

    def shutdown(self) -> None:
        """Close the lane; an armed delayed raise of this runtime does
        nothing when its delay elapses.  Only a private set is closed."""
        if not self._closed:
            self._closed = True
            self._executor.shutdown(wait=False)
            if self._owns_threads:
                self._threads.close()
