"""Unit tests for the kernel scatter-gather primitive (PR 10).

Covers the fan-out substrate directly, below any micro-protocol:

- gather-policy parsing (the ``gather_policy=`` grammar);
- ScatterGather completion-order gathering, submit-time failure capture,
  drain detection, whole-gather timeouts, and branch abandonment;
- the latency-EWMA ranking every fan-out consumer orders candidates by.
"""

import threading
import time

import concurrent.futures

import pytest

from repro.core.fanout import (
    GATHER_ALL,
    GATHER_FIRST,
    GATHER_QUORUM,
    BranchOutcome,
    ScatterGather,
    parse_gather_policy,
)
from repro.net.transport import ReplyFuture, threaded_reply_future
from repro.util.concurrency import WorkerThreads
from repro.util.errors import CommunicationError, ConfigurationError, TimeoutError_


class TestParseGatherPolicy:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            (None, (GATHER_ALL, 0)),
            ("", (GATHER_ALL, 0)),
            ("   ", (GATHER_ALL, 0)),
            ("all", (GATHER_ALL, 0)),
            ("first", (GATHER_FIRST, 0)),
            ("First", (GATHER_FIRST, 0)),
            ("quorum", (GATHER_QUORUM, 2)),
            ("quorum:1", (GATHER_QUORUM, 1)),
            ("quorum:3", (GATHER_QUORUM, 3)),
            (" quorum:2 ", (GATHER_QUORUM, 2)),
        ],
    )
    def test_valid_specs(self, spec, expected):
        assert parse_gather_policy(spec) == expected

    @pytest.mark.parametrize("spec", ["majority", "quorum:zero", "quorum:0", "quorum:-1", "2"])
    def test_invalid_specs_are_loud(self, spec):
        with pytest.raises(ConfigurationError):
            parse_gather_policy(spec)


def _pending() -> tuple[concurrent.futures.Future, ReplyFuture]:
    future = concurrent.futures.Future()
    return future, ReplyFuture(future)


class TestScatterGather:
    def test_gathers_in_completion_order(self):
        scatter = ScatterGather()
        futures = {}
        for key in ("a", "b", "c"):
            inner, reply = _pending()
            futures[key] = inner
            scatter.submit(key, lambda reply=reply: reply)
        # Settle out of submission order.
        futures["c"].set_result(3)
        futures["a"].set_result(1)
        first = scatter.next_outcome(timeout=2.0)
        second = scatter.next_outcome(timeout=2.0)
        assert [first.key, second.key] == ["c", "a"]
        assert (first.value, second.value) == (3, 1)
        futures["b"].set_exception(CommunicationError("replica down"))
        third = scatter.next_outcome(timeout=2.0)
        assert third.key == "b" and not third.ok
        assert isinstance(third.error, CommunicationError)
        # Drained: no blocking, just None.
        assert scatter.next_outcome() is None
        assert scatter.remaining() == 0

    def test_submit_time_raise_becomes_branch_outcome(self):
        scatter = ScatterGather()

        def boom():
            raise CommunicationError("endpoint resolution failed")

        scatter.submit(7, boom)
        assert scatter.submitted == 1
        outcome = scatter.next_outcome(timeout=1.0)
        assert outcome.key == 7 and not outcome.ok
        assert isinstance(outcome.error, CommunicationError)
        assert scatter.next_outcome() is None

    def test_empty_scatter_drains_immediately(self):
        scatter = ScatterGather()
        assert scatter.next_outcome() is None
        assert scatter.gather_all() == []

    def test_next_outcome_timeout(self):
        scatter = ScatterGather()
        _, reply = _pending()
        scatter.submit("slow", lambda: reply)
        with pytest.raises(TimeoutError_):
            scatter.next_outcome(timeout=0.05)

    def test_gather_all_bounds_the_whole_gather(self):
        scatter = ScatterGather()
        inner, reply = _pending()
        scatter.submit("fast", lambda: reply)
        _, straggler = _pending()
        scatter.submit("never", lambda: straggler)
        inner.set_result("ok")
        started = time.monotonic()
        with pytest.raises(TimeoutError_):
            scatter.gather_all(timeout=0.2)
        assert time.monotonic() - started < 2.0

    def test_abandon_rest_reclaims_and_drains(self):
        scatter = ScatterGather()
        inner, reply = _pending()
        scatter.submit("done", lambda: reply)
        abandoned = []
        straggler = ReplyFuture(
            concurrent.futures.Future(), abandon=lambda: abandoned.append("straggler")
        )
        scatter.submit("straggler", lambda: straggler)
        inner.set_result("ok")
        assert scatter.next_outcome(timeout=2.0).value == "ok"
        scatter.abandon_rest()
        assert abandoned == ["straggler"]
        assert scatter.next_outcome() is None
        assert scatter.remaining() == 0

    def test_late_signal_after_abandon_is_ignored(self):
        scatter = ScatterGather()
        inner, reply = _pending()
        scatter.submit("late", lambda: reply)
        scatter.abandon_rest()
        inner.cancel()  # abandoned branch settling late
        assert scatter.next_outcome() is None

    def test_concurrent_settles_all_surface(self):
        scatter = ScatterGather()
        barrier = threading.Barrier(8 + 1)
        threads = WorkerThreads("settles")

        def branch(i: int):
            def run():
                barrier.wait(timeout=5.0)
                return i

            return threaded_reply_future(threads, run)

        for i in range(8):
            scatter.submit(i, lambda i=i: branch(i))
        barrier.wait(timeout=5.0)
        outcomes = scatter.gather_all(timeout=5.0)
        threads.close()
        assert sorted(o.value for o in outcomes) == list(range(8))
        assert all(o.ok for o in outcomes)


class TestThreadedReplyFuture:
    @pytest.fixture
    def threads(self):
        threads = WorkerThreads("reply")
        yield threads
        threads.close()

    def test_success(self, threads):
        assert threaded_reply_future(threads, lambda: 41 + 1).result(timeout=2.0) == 42

    def test_error(self, threads):
        def fail():
            raise CommunicationError("nope")

        with pytest.raises(CommunicationError):
            threaded_reply_future(threads, fail).result(timeout=2.0)


class TestBranchOutcome:
    def test_ok_and_repr(self):
        good = BranchOutcome(1, "v", None)
        bad = BranchOutcome(2, None, CommunicationError("x"))
        assert good.ok and not bad.ok
        assert "1" in repr(good) and "error" in repr(bad)
