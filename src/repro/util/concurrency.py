"""Concurrency primitives: priority-aware executor and futures.

The paper's Cactus/J runtime was modified in two ways to support the
timeliness micro-protocols (section 3.4):

1. a variant of ``raise()`` that specifies the priority of the thread used to
   execute the handlers, and
2. handlers bound to an event are executed by a thread with the same priority
   as the raising thread unless specified otherwise.

Python threads have no OS-visible priority, so priority is reproduced at the
library level: every thread carries a *logical priority* in a thread-local
(:func:`current_thread_priority`), and :class:`PriorityExecutor` dispatches
queued work highest-priority-first.  Executor workers adopt the priority a
task was submitted with, which gives exactly the two behaviours above.
"""

from __future__ import annotations

import heapq
import itertools
import queue
import threading
import time
from typing import Any, Callable

from repro.util.errors import TimeoutError_
from repro.util.log import get_logger

DEFAULT_PRIORITY = 5
MIN_PRIORITY = 1
MAX_PRIORITY = 10

# How long a WorkerThreads thread stays parked after a job before it exits:
# longer than TimedSched's 50 ms period, so a tick does not start a thread.
KEEP_ALIVE_S = 2.0

logger = get_logger("util.concurrency")

_tls = threading.local()


def current_thread_priority() -> int:
    """Return the calling thread's logical priority (default 5)."""
    return getattr(_tls, "priority", DEFAULT_PRIORITY)


def set_thread_priority(priority: int) -> None:
    """Set the calling thread's logical priority.

    Clamped to [MIN_PRIORITY, MAX_PRIORITY]; higher numbers run first.
    """
    _tls.priority = max(MIN_PRIORITY, min(MAX_PRIORITY, priority))


class ResultFuture:
    """A minimal one-shot future: set a value or an exception once, wait many.

    ``concurrent.futures.Future`` would also work, but this variant lets the
    completer check-and-set atomically (needed by acceptance micro-protocols
    where several replica replies race to complete one request).
    """

    _UNSET = object()

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._value: Any = self._UNSET
        self._exception: BaseException | None = None
        self._done = False

    def set_result(self, value: Any) -> bool:
        """Complete with ``value``; return False if already completed."""
        with self._cond:
            if self._done:
                return False
            self._value = value
            self._done = True
            self._cond.notify_all()
            return True

    def set_exception(self, exc: BaseException) -> bool:
        """Complete with an exception; return False if already completed."""
        with self._cond:
            if self._done:
                return False
            self._exception = exc
            self._done = True
            self._cond.notify_all()
            return True

    def done(self) -> bool:
        with self._cond:
            return self._done

    def result(self, timeout: float | None = None) -> Any:
        """Wait for completion and return the value (or raise the exception)."""
        with self._cond:
            if not self._cond.wait_for(lambda: self._done, timeout):
                raise TimeoutError_("future did not complete in time")
            if self._exception is not None:
                raise self._exception
            return self._value


class WorkerThreads:
    """A deployment's scheduler: the one place that starts a thread.

    Daemon threads are started on demand and parked briefly between jobs.
    :meth:`spawn` never queues, so a job waiting for another job of the same
    set cannot deadlock it; limits belong to the lanes sharing the set.  A
    thread parks for ``KEEP_ALIVE_S`` after its job and then exits, so the
    set holds as many threads as jobs ran lately.  :meth:`call_later` arms
    the set's one timer wheel, itself a job on a thread of the set while
    anything is armed.
    """

    def __init__(self, name: str = "cactus"):
        self._name = name
        self._lock = threading.Lock()
        # The inbox of every parked thread, most recently parked last.
        self._parked: list[queue.SimpleQueue] = []
        self._seq = itertools.count()
        self._closed = False
        # The timer wheel: (deadline, seq, action), earliest first.
        self._timer_cond = threading.Condition()
        self._timers: list[tuple[float, int, Callable[[], None]]] = []
        self._timing = False  # a thread is in _run_timers

    def spawn(self, job: Callable[[], None]) -> None:
        """Run ``job()`` now, on a parked thread or else on a new one (also
        after :meth:`close`; the thread then exits with the job)."""
        with self._lock:
            if self._parked:
                self._parked.pop().put(job)
                return
        name = f"{self._name}-{next(self._seq)}"
        threading.Thread(target=self._run, args=(job,), name=name, daemon=True).start()

    def _run(self, job: Callable[[], None] | None) -> None:
        inbox: queue.SimpleQueue = queue.SimpleQueue()
        while job is not None:  # None is close()'s wake-up
            set_thread_priority(DEFAULT_PRIORITY)  # as on a fresh thread
            try:
                job()
            except Exception:  # noqa: BLE001 - the thread outlives its jobs
                logger.exception("job on %s failed", threading.current_thread().name)
            with self._lock:
                if self._closed:
                    return
                self._parked.append(inbox)
            try:
                job = inbox.get(timeout=KEEP_ALIVE_S)
            except queue.Empty:
                with self._lock:
                    if inbox in self._parked:
                        self._parked.remove(inbox)
                        return
                job = inbox.get()  # claimed just as the keep-alive ran out

    def call_later(self, delay: float, action: Callable[[], None]) -> None:
        """Run ``action()`` on the wheel's thread ``delay`` seconds from now.

        Armed timers sit in a deadline heap; one thread waits for the
        earliest deadline, runs that action and waits again, so hundreds of
        armed timers cost one thread.  An action must not block (a delayed
        raise hands its handlers to a lane) and is never run early: what is
        still armed at :meth:`close` is dropped.  The set outlives the
        runtimes that share it, so an action that must not run after its
        owner shut down checks its owner's state itself.
        """
        with self._timer_cond:
            deadline = time.monotonic() + max(delay, 0.0)
            heapq.heappush(self._timers, (deadline, next(self._seq), action))
            if not self._timing:
                self._timing = True
                self.spawn(self._run_timers)
            elif self._timers[0][2] is action:
                self._timer_cond.notify()  # new earliest deadline: re-arm the wait

    def _run_timers(self) -> None:
        while True:
            with self._timer_cond:
                while True:
                    if self._closed or not self._timers:
                        # Under the lock call_later arms with: no lost timer.
                        self._timers.clear()
                        self._timing = False
                        return
                    remaining = self._timers[0][0] - time.monotonic()
                    if remaining <= 0:
                        break
                    self._timer_cond.wait(remaining)
                action = heapq.heappop(self._timers)[2]
            try:
                action()
            except Exception:  # noqa: BLE001 - the wheel outlives its actions
                logger.exception("timer action on %s failed", self._name)

    def close(self) -> None:
        """Release parked threads and the timer wheel at once; busy threads
        exit after their job."""
        with self._lock:
            self._closed = True
            parked, self._parked = self._parked, []
        for inbox in parked:
            inbox.put(None)
        with self._timer_cond:
            self._timer_cond.notify()


class PriorityExecutor:
    """A lane: runs submitted callables highest-priority-first, at most
    ``workers`` at once, on threads borrowed from a :class:`WorkerThreads`.

    Tasks submitted with equal priority run in FIFO order.  The thread
    running a task adopts the priority it was submitted with (via
    :func:`set_thread_priority`), reproducing the Cactus/J behaviour that
    event handlers run at the raiser's priority.

    The queue is unbounded and the lane owns no thread: a submit starts a
    drainer while fewer than ``workers`` run, and a drainer returns its thread
    when the queue is empty.  Without ``threads`` the lane makes a private set.
    """

    def __init__(
        self,
        workers: int = 8,
        name: str = "cactus-pool",
        threads: WorkerThreads | None = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._name = name
        self._workers = workers
        self._owns_threads = threads is None
        self._threads = threads or WorkerThreads(name)
        self._cond = threading.Condition()
        # Heap entries: (-priority, seq, (fn, args, kwargs, future, priority))
        self._queue: list[tuple[int, int, Any]] = []
        self._seq = itertools.count()
        self._running = 0  # drainers started and not yet returned
        self._shutdown = False

    def submit(
        self,
        fn: Callable[..., Any],
        *args: Any,
        priority: int | None = None,
        **kwargs: Any,
    ) -> ResultFuture:
        """Queue ``fn(*args, **kwargs)``; return a future for its result.

        ``priority`` defaults to the submitting thread's current priority
        (priority preservation across event raises); clamped here, so queue
        order and the priority the task runs at agree.
        """
        if priority is None:
            priority = current_thread_priority()
        priority = max(MIN_PRIORITY, min(MAX_PRIORITY, priority))
        future = ResultFuture()
        task = (fn, args, kwargs, future, priority)
        with self._cond:
            if self._shutdown:
                raise RuntimeError(f"executor {self._name} is shut down")
            if self._running < self._workers:
                # The drainer cannot pop before this lock is released.
                self._threads.spawn(self._drain)
                self._running += 1
            heapq.heappush(self._queue, (-priority, next(self._seq), task))
        return future

    def _drain(self) -> None:
        while True:
            with self._cond:
                if not self._queue:
                    # Under the lock that saw it empty: no lost wake-up.
                    self._running -= 1
                    self._cond.notify_all()  # a shutdown waiting for 0
                    return
                _, _, task = heapq.heappop(self._queue)
            fn, args, kwargs, future, priority = task
            set_thread_priority(priority)
            try:
                future.set_result(fn(*args, **kwargs))
            except BaseException as exc:  # noqa: BLE001 - ferried to the future
                future.set_exception(exc)

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work; optionally wait for queued tasks to drain."""
        with self._cond:
            self._shutdown = True
            if wait:
                self._cond.wait_for(lambda: self._running == 0, timeout=5.0)
        if self._owns_threads:
            self._threads.close()

    @property
    def pending(self) -> int:
        """Number of tasks queued but not yet started."""
        with self._cond:
            return len(self._queue)
