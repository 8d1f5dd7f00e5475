"""Unit tests for futures, priorities, the on-demand thread set
and the priority executor (a lane over it)."""

import sys
import threading
import time

import pytest

from repro.util import concurrency
from repro.util.concurrency import (
    DEFAULT_PRIORITY,
    MAX_PRIORITY,
    PriorityExecutor,
    ResultFuture,
    WorkerThreads,
    current_thread_priority,
    set_thread_priority,
)
from repro.util.errors import TimeoutError_


class TestResultFuture:
    def test_result_roundtrip(self):
        future = ResultFuture()
        assert future.set_result(42)
        assert future.done()
        assert future.result(0.1) == 42

    def test_first_completion_wins(self):
        future = ResultFuture()
        assert future.set_result(1)
        assert not future.set_result(2)
        assert not future.set_exception(RuntimeError("late"))
        assert future.result(0.1) == 1

    def test_exception_is_raised(self):
        future = ResultFuture()
        future.set_exception(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            future.result(0.1)

    def test_timeout(self):
        with pytest.raises(TimeoutError_):
            ResultFuture().result(timeout=0.01)


class TestThreadPriority:
    def test_default(self):
        assert current_thread_priority() == DEFAULT_PRIORITY

    def test_set_and_clamp(self):
        set_thread_priority(7)
        assert current_thread_priority() == 7
        set_thread_priority(99)
        assert current_thread_priority() == 10
        set_thread_priority(-5)
        assert current_thread_priority() == 1
        set_thread_priority(DEFAULT_PRIORITY)


class TestPriorityExecutor:
    def test_runs_submitted_work(self):
        executor = PriorityExecutor(workers=2)
        try:
            assert executor.submit(lambda x: x * 2, 21).result(2.0) == 42
        finally:
            executor.shutdown()

    def test_exceptions_reach_future(self):
        executor = PriorityExecutor(workers=1)
        try:
            future = executor.submit(lambda: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                future.result(2.0)
        finally:
            executor.shutdown()

    def test_high_priority_runs_first(self):
        executor = PriorityExecutor(workers=1)
        order = []
        gate = threading.Event()
        try:
            # Occupy the single worker so later submissions queue.
            blocker = executor.submit(gate.wait, 2.0)
            time.sleep(0.05)
            lows = [executor.submit(order.append, f"low{i}", priority=2) for i in range(3)]
            high = executor.submit(order.append, "high", priority=9)
            gate.set()
            high.result(2.0)
            for f in lows:
                f.result(2.0)
            blocker.result(2.0)
            assert order[0] == "high"
        finally:
            executor.shutdown()

    def test_workers_adopt_submission_priority(self):
        executor = PriorityExecutor(workers=1)
        try:
            seen = executor.submit(current_thread_priority, priority=8).result(2.0)
            assert seen == 8
        finally:
            executor.shutdown()

    def test_priority_defaults_to_submitter(self):
        executor = PriorityExecutor(workers=1)
        try:
            previous = current_thread_priority()
            set_thread_priority(3)
            try:
                future = executor.submit(current_thread_priority)
            finally:
                set_thread_priority(previous)
            assert future.result(2.0) == 3
        finally:
            executor.shutdown()

    def test_equal_priority_is_fifo(self):
        executor = PriorityExecutor(workers=1)
        order = []
        gate = threading.Event()
        try:
            executor.submit(gate.wait, 2.0)
            time.sleep(0.05)
            futures = [executor.submit(order.append, i) for i in range(5)]
            gate.set()
            for f in futures:
                f.result(2.0)
            assert order == [0, 1, 2, 3, 4]
        finally:
            executor.shutdown()

    def test_submit_after_shutdown_rejected(self):
        executor = PriorityExecutor(workers=1)
        executor.shutdown()
        with pytest.raises(RuntimeError):
            executor.submit(lambda: None)

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            PriorityExecutor(workers=0)

    def test_priority_is_clamped_at_submit(self):
        """Queue order and adopted priority agree: 50 is 10, not ahead of it."""
        executor = PriorityExecutor(workers=1)
        order = []
        gate = threading.Event()
        try:
            executor.submit(gate.wait, 2.0)
            time.sleep(0.05)
            ten = executor.submit(order.append, "ten", priority=MAX_PRIORITY)
            fifty = executor.submit(order.append, "fifty", priority=50)
            seen = executor.submit(current_thread_priority, priority=50)
            gate.set()
            assert seen.result(2.0) == MAX_PRIORITY
            ten.result(2.0)
            fifty.result(2.0)
            assert order == ["ten", "fifty"]
        finally:
            executor.shutdown()

    def test_queued_tasks_drain_after_shutdown(self):
        executor = PriorityExecutor(workers=1)
        gate = threading.Event()
        executor.submit(gate.wait, 2.0)
        queued = [executor.submit(lambda i=i: i) for i in range(3)]
        executor.shutdown(wait=False)
        with pytest.raises(RuntimeError):
            executor.submit(lambda: None)
        gate.set()
        assert [f.result(2.0) for f in queued] == [0, 1, 2]
        executor.shutdown(wait=True)
        assert executor.pending == 0


def alive_threads(prefix):
    """Live threads of the :class:`WorkerThreads` set named ``prefix``."""
    return [t for t in threading.enumerate() if t.name.startswith(prefix + "-")]


def poll(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestWorkerThreads:
    @pytest.fixture
    def threads(self):
        pool = WorkerThreads("census")
        yield pool
        pool.close()
        assert poll(lambda: not alive_threads("census"))

    def _run(self, threads, fn):
        future = ResultFuture()
        threads.spawn(lambda: future.set_result(fn()))
        return future.result(2.0)

    def test_starts_no_thread_until_spawn(self, threads):
        assert alive_threads("census") == []
        assert self._run(threads, threading.current_thread) is not threading.current_thread()

    def test_parked_thread_is_reused(self, threads):
        first = self._run(threads, threading.current_thread)
        assert poll(lambda: threads._parked)
        assert self._run(threads, threading.current_thread) is first
        assert len(alive_threads("census")) == 1

    def test_never_queues(self, threads):
        """A job waiting for a later job of the same set gets its answer."""
        inner = threading.Event()

        def outer():
            threads.spawn(inner.set)
            return inner.wait(2.0)

        assert self._run(threads, outer)

    def test_job_starts_at_default_priority(self, threads):
        self._run(threads, lambda: set_thread_priority(9))
        assert poll(lambda: threads._parked)
        assert self._run(threads, current_thread_priority) == DEFAULT_PRIORITY
        assert len(alive_threads("census")) == 1

    def test_escaping_exception_neither_kills_nor_poisons(self, threads):
        first = self._run(threads, threading.current_thread)
        assert poll(lambda: threads._parked)
        threads.spawn(lambda: 1 / 0)
        assert poll(lambda: threads._parked)
        assert self._run(threads, threading.current_thread) is first

    def test_close_releases_parked_threads_at_once(self):
        pool = WorkerThreads("closing")
        busy = threading.Event()
        pool.spawn(lambda: busy.wait(5.0))
        pool.spawn(lambda: None)
        assert poll(lambda: pool._parked)
        pool.close()
        assert poll(lambda: len(alive_threads("closing")) == 1, timeout=1.0)
        busy.set()  # the busy one exits after its job
        assert poll(lambda: not alive_threads("closing"), timeout=1.0)

    def test_burst_falls_back_after_keepalive_threads(self, threads, monkeypatch):
        monkeypatch.setattr(concurrency, "KEEP_ALIVE_S", 0.1)
        gate = threading.Event()
        for _ in range(32):
            threads.spawn(lambda: gate.wait(5.0))
        assert len(alive_threads("census")) == 32
        gate.set()
        assert poll(lambda: not alive_threads("census"), timeout=2.0)
        assert threads._parked == []
        assert self._run(threads, lambda: "again") == "again"


class TestTimerWheel:
    """``call_later``: one thread while anything is armed, none otherwise."""

    @pytest.fixture
    def threads(self):
        pool = WorkerThreads("wheel")
        yield pool
        pool.close()

    def test_fires_in_deadline_order_on_one_thread(self, threads):
        fired = []
        done = threading.Event()
        threads.call_later(0.06, lambda: (fired.append("late"), done.set()))
        threads.call_later(0.02, lambda: fired.append("early"))  # re-arms the wait
        assert len(alive_threads("wheel")) == 1
        assert done.wait(2.0) and fired == ["early", "late"]

    def test_close_drops_what_is_armed(self, threads):
        fired = threading.Event()
        threads.call_later(0.05, fired.set)
        threads.close()
        assert poll(lambda: not alive_threads("wheel"), timeout=1.0)
        assert not fired.wait(0.15)

    def test_timers_armed_from_many_threads_all_fire_once(self, threads):
        """The wheel returns its thread whenever the heap runs empty: an
        arm racing that return must neither be lost nor start a second wheel."""
        fired = []

        def arm(k):
            for n in range(200):
                threads.call_later(0.0005 * (n % 3), lambda key=(k, n): fired.append(key))
                if n % 20 == 0:
                    time.sleep(0.002)  # let the heap run empty now and then

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            armers = [threading.Thread(target=arm, args=(k,)) for k in range(8)]
            for t in armers:
                t.start()
            for t in armers:
                t.join(10.0)
                assert not t.is_alive()
            assert poll(lambda: len(fired) == 1600, timeout=10.0)
        finally:
            sys.setswitchinterval(previous)
        assert len(set(fired)) == 1600
        assert poll(lambda: not threads._timing and not threads._timers, timeout=1.0)


class TestLanes:
    """Several executors over one thread set: own limits, shared threads."""

    @pytest.fixture
    def threads(self):
        pool = WorkerThreads("lanes")
        yield pool
        pool.close()

    def test_construction_starts_no_thread(self, threads):
        lanes = [PriorityExecutor(workers=8, threads=threads) for _ in range(50)]
        assert alive_threads("lanes") == []
        for lane in lanes:
            lane.shutdown()

    def test_saturated_lane_keeps_its_limit_and_delays_no_other(self, threads):
        lane_a = PriorityExecutor(workers=2, name="a", threads=threads)
        lane_b = PriorityExecutor(workers=2, name="b", threads=threads)
        gate = threading.Event()
        started = []
        try:
            parked = [lane_a.submit(lambda: started.append(1) or gate.wait(5.0)) for _ in range(2)]
            assert poll(lambda: len(started) == 2)
            third = lane_a.submit(lambda: "third")
            assert lane_b.submit(lambda: "b runs").result(1.0) == "b runs"
            time.sleep(0.1)
            assert not third.done() and lane_a.pending == 1
            gate.set()
            assert third.result(2.0) == "third"
            assert all(f.result(2.0) for f in parked)
        finally:
            gate.set()
            lane_a.shutdown()
            lane_b.shutdown()

    def test_client_legs_waiting_on_a_server_lane_complete(self, threads):
        """Every slot of the client lane parks on work of a server lane of
        the same set; one shared bounded queue would deadlock here."""
        client = PriorityExecutor(workers=4, name="client", threads=threads)
        server = PriorityExecutor(workers=1, name="server", threads=threads)
        try:
            legs = [
                client.submit(lambda i=i: server.submit(lambda: i * i).result(5.0))
                for i in range(16)
            ]
            assert [leg.result(5.0) for leg in legs] == [i * i for i in range(16)]
        finally:
            client.shutdown()
            server.shutdown()

    def test_shared_set_survives_a_lane_shutdown(self, threads):
        lane = PriorityExecutor(workers=1, threads=threads)
        assert lane.submit(lambda: 1).result(2.0) == 1
        lane.shutdown()
        other = PriorityExecutor(workers=1, threads=threads)
        assert other.submit(lambda: 2).result(2.0) == 2
        other.shutdown()

    def test_stress_limit_holds_and_no_task_is_lost(self, threads):
        """More submitters than cores, short switch interval: a lost wake-up
        would leave a future unsettled, a broken limit would show in peak."""
        lanes = [PriorityExecutor(workers=3, name=f"s{i}", threads=threads) for i in range(4)]
        lock = threading.Lock()
        running = [0] * len(lanes)
        peak = [0] * len(lanes)
        futures = []

        def task(k):
            with lock:
                running[k] += 1
                peak[k] = max(peak[k], running[k])
            time.sleep(0)
            with lock:
                running[k] -= 1

        def submitter(k):
            mine = [lanes[k].submit(task, k) for _ in range(300)]
            with lock:
                futures.extend(mine)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            submitters = [
                threading.Thread(target=submitter, args=(k % len(lanes),)) for k in range(8)
            ]
            for t in submitters:
                t.start()
            for t in submitters:
                t.join(10.0)
                assert not t.is_alive()
            for f in futures:
                f.result(10.0)
        finally:
            sys.setswitchinterval(previous)
            for lane in lanes:
                lane.shutdown()
        assert len(futures) == 2400
        assert max(peak) <= 3 and running == [0] * len(lanes)
        assert all(lane.pending == 0 for lane in lanes)
