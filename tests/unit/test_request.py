"""Unit tests for the abstract Request and Reply."""

import sys
import threading
import time

import pytest

from repro.core.request import PB_PRIORITY, Reply, Request
from repro.util.errors import ReproError, TimeoutError_


def make_request(**kwargs):
    return Request("acct", "set_balance", [42.0], **kwargs)


class TestAccessors:
    def test_param_vector(self):
        request = Request("o", "op", [1, 2, 3])
        assert request.get_params() == [1, 2, 3]
        request.set_params(["new"])
        assert request.get_params() == ["new"]

    def test_priority_piggyback(self):
        request = make_request()
        assert request.priority == 5  # default
        request.priority = 9
        assert request.piggyback[PB_PRIORITY] == 9
        assert request.priority == 9

    def test_client_id_defaults_empty(self):
        assert make_request().client_id == ""

    def test_ids_are_unique(self):
        assert make_request().request_id != make_request().request_id

    def test_explicit_id_preserved(self):
        assert make_request(request_id="fixed").request_id == "fixed"


class TestCompletion:
    def test_complete_releases_waiter(self):
        request = make_request()
        result = []
        thread = threading.Thread(target=lambda: result.append(request.wait(2.0)))
        thread.start()
        request.complete("done")
        thread.join(2.0)
        assert result == ["done"]

    def test_first_completion_wins(self):
        request = make_request()
        assert request.complete(1)
        assert not request.complete(2)
        assert not request.fail(RuntimeError())
        assert request.wait(0.1) == 1

    def test_fail_raises_at_waiter(self):
        request = make_request()
        request.fail(ValueError("nope"))
        with pytest.raises(ValueError, match="nope"):
            request.wait(0.1)

    def test_wait_timeout(self):
        with pytest.raises(TimeoutError_):
            make_request().wait(0.01)

    def test_set_result_before_completion(self):
        request = make_request()
        request.set_result("staged")
        assert request.stored_result == "staged"
        request.complete(request.stored_result)
        assert request.wait(0.1) == "staged"

    def test_set_result_after_completion_rejected(self):
        request = make_request()
        request.complete("done")
        with pytest.raises(ReproError):
            request.set_result("late")

    def test_complete_from_reply_variants(self):
        ok = make_request()
        ok.complete_from_reply(Reply(server=1, value=10))
        assert ok.wait(0.1) == 10

        app_error = make_request()
        app_error.complete_from_reply(Reply(server=1, exception=KeyError("k")))
        with pytest.raises(KeyError):
            app_error.wait(0.1)

        failed = make_request()
        failed.complete_from_reply(Reply(server=1, failed=True))
        with pytest.raises(ReproError):
            failed.wait(0.1)


class TestCompletionWithoutLatch:
    """Waiter and mutex are made on first use; completion stays exactly-once."""

    def test_wait_after_completion_allocates_no_waiter(self):
        done = make_request()
        done.complete("v")
        assert done.wait(0) == "v"
        assert done.wait() == "v"
        failed = make_request()
        failed.fail(ValueError("nope"))
        with pytest.raises(ValueError):
            failed.wait()
        assert done._waiter is None and failed._waiter is None
        assert done._mutex is None

    def test_cross_thread_complete_releases_blocked_wait(self):
        request = make_request()
        result = []
        thread = threading.Thread(target=lambda: result.append(request.wait(5.0)))
        thread.start()
        deadline = time.monotonic() + 5.0
        while request._waiter is None and time.monotonic() < deadline:
            time.sleep(0.001)
        assert request._waiter is not None  # the thread is in (or entering) wait
        assert request.complete("late")
        thread.join(5.0)
        assert not thread.is_alive()
        assert result == ["late"]

    def test_timeout_leaves_the_request_open(self):
        request = make_request()
        with pytest.raises(TimeoutError_):
            request.wait(0.01)
        assert not request.completed
        assert request.complete("after")
        assert request.wait(0) == "after"

    def test_racing_completions_are_exactly_once(self):
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(25):
                request = make_request()
                early, late = [], []
                request.on_complete(early.append)
                start = threading.Barrier(16)
                wins = []

                def race(index):
                    start.wait(5.0)
                    if index % 2:
                        wins.append(request.complete(index))
                    else:
                        wins.append(request.fail(RuntimeError(index)))
                    request.on_complete(late.append)

                threads = [threading.Thread(target=race, args=(i,)) for i in range(16)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(5.0)
                    assert not thread.is_alive()
                assert sorted(wins) == [False] * 15 + [True]
                assert early == [request]
                assert late == [request] * 16  # registered after the fact: run at once
        finally:
            sys.setswitchinterval(previous)

    def test_mutex_is_one_reentrant_lock_for_every_thread(self):
        request = make_request()
        seen = []
        start = threading.Barrier(2)

        def grab():
            start.wait(5.0)
            seen.append(request.mutex)

        threads = [threading.Thread(target=grab) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(5.0)
        assert seen[0] is seen[1] is request.mutex
        with request.mutex:
            with request.mutex:  # re-entrant
                pass


class TestReplies:
    def test_reply_bookkeeping(self):
        request = make_request()
        request.add_reply(Reply(server=1, value="a"))
        request.add_reply(Reply(server=2, failed=True))
        assert request.reply_count() == 2
        replies = request.replies()
        assert replies[1].succeeded and not replies[2].succeeded

    def test_reply_classification(self):
        assert Reply(server=1, value=1).succeeded
        assert not Reply(server=1, failed=True, exception=ValueError()).succeeded


class TestWireForm:
    def test_roundtrip(self):
        request = Request("acct", "op", [1, "x"], piggyback={"p": 1}, request_id="r1")
        rebuilt = Request.from_wire(request.to_wire())
        assert rebuilt.request_id == "r1"
        assert rebuilt.object_id == "acct"
        assert rebuilt.operation == "op"
        assert rebuilt.get_params() == [1, "x"]
        assert rebuilt.piggyback == {"p": 1}

    def test_wire_is_codec_friendly(self):
        from repro.serialization.jser import jser_dumps, jser_loads

        wire = make_request().to_wire()
        assert jser_loads(jser_dumps(wire)) == wire
