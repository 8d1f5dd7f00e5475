"""Unit tests for the Cactus runtime (timers, priorities, shutdown)."""

import threading
import time

import pytest

from repro.cactus.composite import CompositeProtocol
from repro.cactus.runtime import CactusRuntime, default_worker_count
from repro.util.clock import VirtualClock
from repro.util.concurrency import (
    MAX_PRIORITY,
    WorkerThreads,
    current_thread_priority,
    set_thread_priority,
)
from tests.unit.test_concurrency import alive_threads, poll


@pytest.fixture
def runtime():
    rt = CactusRuntime(workers=4, name="test-rt")
    yield rt
    rt.shutdown()


class TestSubmit:
    def test_runs_on_pool(self, runtime):
        ran_on = runtime.submit(threading.current_thread).result(2.0)
        assert ran_on is not threading.current_thread()

    def test_priority_inherited(self, runtime):
        previous = current_thread_priority()
        set_thread_priority(7)
        try:
            future = runtime.submit(current_thread_priority)
        finally:
            set_thread_priority(previous)
        assert future.result(2.0) == 7

    def test_explicit_priority_is_clamped(self, runtime):
        assert runtime.submit(current_thread_priority, priority=50).result(2.0) == MAX_PRIORITY
        delayed = runtime.submit_delayed(0.01, current_thread_priority, priority=50)
        assert delayed.result(2.0) == MAX_PRIORITY

    def test_default_worker_count_bounds(self):
        count = default_worker_count()
        assert 4 <= count <= 16


class TestSubmitDelayed:
    def test_fires_after_delay(self, runtime):
        done = threading.Event()
        start = time.monotonic()
        runtime.submit_delayed(0.05, done.set)
        assert done.wait(2.0)
        assert time.monotonic() - start >= 0.04

    def test_does_not_occupy_pool_workers(self):
        """Many armed timers must not starve the pool (regression: TotalOrder
        failover timers once consumed every worker for their full delay)."""
        rt = CactusRuntime(workers=2, name="starve-rt")
        try:
            for _ in range(10):
                rt.submit_delayed(5.0, lambda: None)
            # With 10 pending 5s timers and only 2 workers, immediate work
            # must still run promptly.
            assert rt.submit(lambda: "alive").result(1.0) == "alive"
        finally:
            rt.shutdown()

    def test_shares_one_timer_thread(self):
        """Armed delays of every runtime on a set multiplex onto the set's
        one heap-driven timer thread."""
        threads = WorkerThreads("wheel")
        runtimes = [
            CactusRuntime(workers=2, name=f"wheel-rt{i}", threads=threads) for i in range(3)
        ]
        try:
            for rt in runtimes:
                for _ in range(25):
                    rt.submit_delayed(5.0, lambda: None)
            assert len(alive_threads("wheel")) == 1  # no lane ran: the wheel's
            assert runtimes[0].submit_delayed(0.01, lambda: "early").result(2.0) == "early"
        finally:
            for rt in runtimes:
                rt.shutdown()
            threads.close()
        assert poll(lambda: not alive_threads("wheel"), timeout=2.0)

    def test_raising_timer_action_spares_later_timers(self):
        """Regression: a raise in the timer thread once ended it, and with
        it every later delayed raise of the composite."""
        threads = WorkerThreads("sturdy")
        first = CactusRuntime(workers=2, name="sturdy-a", threads=threads)
        second = CactusRuntime(workers=2, name="sturdy-b", threads=threads)
        try:
            failing = first.submit_delayed(0.01, lambda: "unreached", cancelled=lambda: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                failing.result(2.0)
            threads.call_later(0.0, lambda: 1 / 0)  # and a raise nothing ferries
            start = time.monotonic()
            assert second.submit_delayed(0.05, lambda: 42).result(1.0) == 42
            assert 0.04 <= time.monotonic() - start < 0.5
        finally:
            first.shutdown()
            second.shutdown()
            threads.close()

    def test_cancellation(self, runtime):
        fired = threading.Event()
        cancelled = threading.Event()
        runtime.submit_delayed(0.05, fired.set, cancelled=cancelled.is_set)
        cancelled.set()
        time.sleep(0.15)
        assert not fired.is_set()

    def test_result_ferried(self, runtime):
        future = runtime.submit_delayed(0.01, lambda: 42)
        assert future.result(2.0) == 42

    def test_exception_ferried(self, runtime):
        future = runtime.submit_delayed(0.01, lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            future.result(2.0)

    def test_virtual_clock_timer(self):
        clock = VirtualClock()
        rt = CactusRuntime(clock=clock, workers=2, name="virt-rt")
        try:
            fired = threading.Event()
            rt.submit_delayed(10.0, fired.set)
            time.sleep(0.05)
            assert not fired.is_set()
            for _ in range(100):
                if clock.pending_sleepers():
                    break
                time.sleep(0.005)
            clock.advance(10.0)
            assert fired.wait(2.0)
        finally:
            rt.shutdown()

    def test_shutdown_suppresses_pending_timers(self):
        rt = CactusRuntime(workers=2, name="shutdown-rt")
        fired = threading.Event()
        rt.submit_delayed(0.05, fired.set)
        rt.shutdown()
        time.sleep(0.15)
        assert not fired.is_set()


class TestSharedThreads:
    def test_quiet_composites_start_no_thread(self):
        """Composites that raise nothing asynchronously cost no thread."""
        threads = WorkerThreads("quiet")
        composites = [
            CompositeProtocol(f"c{i}", runtime=CactusRuntime(name=f"c{i}-rt", threads=threads))
            for i in range(40)
        ]
        seen = []
        for composite in composites:
            composite.bind("ping", lambda occurrence: seen.append(occurrence.args[0]))
            composite.raise_event("ping", composite.name)
        assert len(seen) == 40 and alive_threads("quiet") == []
        composites[0].raise_event("ping", "async", mode="async").result(2.0)
        assert seen[-1] == "async" and len(alive_threads("quiet")) == 1
        for composite in composites:
            composite.runtime.shutdown()
        # A runtime handed its threads does not close them.
        other = CactusRuntime(name="late-rt", threads=threads)
        assert other.submit(lambda: "ok").result(2.0) == "ok"
        other.shutdown()
        threads.close()

    def test_private_set_is_closed_by_shutdown(self):
        rt = CactusRuntime(workers=2, name="private-rt")
        assert rt.submit(lambda: "ok").result(2.0) == "ok"
        assert len(alive_threads("private-rt")) == 1
        rt.shutdown()
        assert poll(lambda: not alive_threads("private-rt"), timeout=2.0)
