"""Multiplexed-connection concurrency tests (PR 2).

Covers the v2 correlation-id protocol under concurrent callers sharing one
connection, the shared :class:`~repro.net.pool.ConnectionPool` across crash
and recovery, and deterministic chaos-seeded runs over multiplexed TCP.
"""

import random
import socket
import sys
import threading
import time

import pytest

from repro.net.chaos import ChaosNetwork, FaultPlan
from repro.net.framing import FRAME_HEADER
from repro.net.memory import InMemoryNetwork
from repro.net.pool import ConnectionPool
from repro.net.tcp import TcpNetwork, read_frame_mux
from repro.util.errors import CommunicationError


def _poll(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.001)
    return predicate()


def _hammer_one_connection(network, threads: int, calls: int) -> list:
    """N threads interleave calls over ONE shared connection; each call's
    reply must correlate to its own request (no cross-talk)."""
    network.host("server").listen("echo", lambda d: b"R:" + d)
    connection = network.host("client").connect("server/echo")
    mismatches: list = []
    barrier = threading.Barrier(threads)

    def worker(slot: int) -> None:
        barrier.wait()
        for i in range(calls):
            payload = f"{slot}:{i}".encode()
            try:
                reply = connection.call(payload, timeout=10.0)
            except BaseException as exc:  # noqa: BLE001 - collected for assert
                mismatches.append((slot, i, repr(exc)))
                return
            if reply != b"R:" + payload:
                mismatches.append((slot, i, reply))

    workers = [threading.Thread(target=worker, args=(s,)) for s in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=30)
    connection.close()
    return mismatches


class TestMuxCorrelation:
    def test_tcp_threads_share_one_connection(self):
        net = TcpNetwork()
        try:
            assert _hammer_one_connection(net, threads=16, calls=50) == []
        finally:
            net.close()

    def test_memory_threads_share_one_connection(self):
        net = InMemoryNetwork()
        try:
            assert _hammer_one_connection(net, threads=16, calls=50) == []
        finally:
            net.close()

    def test_slow_handler_calls_overlap(self):
        """Two 100ms calls over one mux connection take ~one delay, not two."""
        import time

        net = TcpNetwork()
        try:
            net.host("server").listen("slow", lambda d: (time.sleep(0.1), d)[1])
            connection = net.host("client").connect("server/slow")
            # Prime the connection (establish the socket).
            connection.call(b"prime", timeout=10.0)
            barrier = threading.Barrier(4)

            def one_call() -> None:
                barrier.wait()
                connection.call(b"x", timeout=10.0)

            workers = [threading.Thread(target=one_call) for _ in range(4)]
            start = time.monotonic()
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=10)
            elapsed = time.monotonic() - start
            # Serialized execution would need >= 0.4s; overlapped far less.
            assert elapsed < 0.35, f"calls did not overlap: {elapsed:.3f}s"
            connection.close()
        finally:
            net.close()


class TestServerDispatch:
    """The listener dispatches each request by what is buffered behind it:
    bytes waiting ⇒ the connection's lane, an empty buffer ⇒ inline."""

    def test_buffered_requests_overlap_with_no_priming_call(self):
        """Four frames written at once reach a handler that needs all four
        running together; the very first frame already sees the other three
        buffered, so they overlap without any earlier call on the link."""
        barrier = threading.Barrier(4, timeout=2.0)

        def meet(data: bytes) -> bytes:
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                return b"broken"
            return b"ok"

        net = TcpNetwork()
        try:
            net.host("server").listen("meet", meet)
            port = net._resolve("server/meet")
            with socket.create_connection(("127.0.0.1", port), timeout=10.0) as raw:
                raw.sendall(
                    b"".join(FRAME_HEADER.pack(1, rid) + b"x" for rid in range(1, 5))
                )
                replies = dict(read_frame_mux(raw) for _ in range(4))
        finally:
            net.close()
        assert replies == {1: b"ok", 2: b"ok", 3: b"ok", 4: b"ok"}

    def test_serving_reads_no_clock(self):
        """A serial echo over TCP reads no clock on either side: the client
        passes no timeout and the listener's dispatch rule is a buffer
        check, so the profile of every thread sees no ``time.monotonic``."""
        seen = []

        def hook(frame, event, arg):
            if event == "c_call" and arg is time.monotonic:
                seen.append(frame.f_code.co_filename)

        threading.setprofile(hook)  # the network's threads start under it
        net = TcpNetwork()
        try:
            net.host("server").listen("echo", lambda d: d)
            connection = net.host("client").connect("server/echo")
            assert connection.call(b"warm") == b"warm"
            sys.setprofile(hook)
            try:
                for i in range(50):
                    assert connection.call(b"%d" % i) == b"%d" % i
            finally:
                sys.setprofile(None)
            connection.close()
        finally:
            threading.setprofile(None)
            net.close()
        assert seen == []


class TestClientConnection:
    """The leader/follower client connection: one plain lock for its state,
    a condition notified only while somebody waits on it, and a leader that
    returns its own reply."""

    def test_a_sync_tcp_call_enters_no_threading_frame(self):
        """A lone synchronous caller takes C locks only: neither side of a
        serial echo enters a Python frame of the threading module."""
        seen = []
        counting = threading.Event()  # thread starts and stops are not calls

        def hook(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == threading.__file__:
                if counting.is_set():
                    seen.append(frame.f_code.co_name)

        threading.setprofile(hook)  # the network's threads start under it
        net = TcpNetwork()
        try:
            net.host("server").listen("echo", lambda d: d)
            connection = net.host("client").connect("server/echo")
            assert connection.call(b"warm") == b"warm"
            counting.set()
            sys.setprofile(hook)
            try:
                for i in range(50):
                    assert connection.call(b"%d" % i) == b"%d" % i
            finally:
                sys.setprofile(None)
                counting.clear()
            connection.close()
        finally:
            threading.setprofile(None)
            net.close()
        assert seen == []

    def test_async_reply_after_a_sync_leader_steps_down_settles_promptly(self):
        """The idle demultiplexer counts among the waiters, so a sync leader
        that steps down while an async reply is still due wakes it instead
        of leaving the reply unread until the demultiplexer's next tick."""
        entered = threading.Event()
        release = threading.Event()

        def handler(data: bytes) -> bytes:
            if data == b"sync":
                entered.set()
                release.wait(5.0)
            return data

        net = TcpNetwork()
        try:
            net.host("server").listen("svc", handler)
            connection = net.host("client").connect("server/svc")
            # Start the demultiplexer; once this reply is in it steps down
            # and goes back to waiting on the condition.
            assert connection.call_async(b"warm").result(5.0) == b"warm"
            assert _poll(lambda: not connection._reader_active)
            outcome = []
            leader = threading.Thread(
                target=lambda: outcome.append(connection.call(b"sync", timeout=5.0))
            )
            leader.start()
            assert entered.wait(5.0)
            assert _poll(lambda: connection._reader_active)
            # The server runs "sync" inline, so this request waits unread
            # behind it and its reply lands after the leader's.
            reply = connection.call_async(b"async")
            released = time.monotonic()
            release.set()
            leader.join(5.0)
            assert outcome == [b"sync"]
            assert reply.result(5.0) == b"async"
            assert time.monotonic() - released < 0.25
            connection.close()
        finally:
            release.set()
            net.close()

    def test_concurrent_callers_with_one_deadline_each_get_their_own_reply(self):
        """Eight threads share one connection to a handler that takes 0-200
        us (seeded); one passes a deadline, so the socket timeout changes
        hands between leaders.  Every reply matches its request and no
        pending slot is left behind."""
        rng = random.Random(33)

        def handler(data: bytes) -> bytes:
            time.sleep(rng.random() * 200e-6)
            return b"R:" + data

        net = TcpNetwork()
        try:
            net.host("server").listen("echo", handler)
            connection = net.host("client").connect("server/echo")
            mismatches: list = []
            barrier = threading.Barrier(8)

            def worker(slot: int) -> None:
                timeout = 30.0 if slot == 0 else None
                barrier.wait()
                for i in range(500):
                    payload = b"%d:%d" % (slot, i)
                    try:
                        reply = connection.call(payload, timeout=timeout)
                    except BaseException as exc:  # noqa: BLE001 - for the assert
                        mismatches.append((slot, i, repr(exc)))
                        return
                    if reply != b"R:" + payload:
                        mismatches.append((slot, i, reply))

            workers = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # more thread switches inside each call
            try:
                for w in workers:
                    w.start()
                for w in workers:
                    w.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(w.is_alive() for w in workers)
            assert mismatches == []
            assert connection._pending == {}
            connection.close()
        finally:
            net.close()


class TestConnectionPool:
    def test_reuses_connection_per_address(self):
        net = TcpNetwork()
        try:
            net.host("server").listen("echo", lambda d: d)
            pool = ConnectionPool(net.host("client"))
            first = pool.get("server/echo")
            assert pool.get("server/echo") is first
            stats = pool.stats()
            assert stats["hits"] == 1 and stats["misses"] == 1
            pool.close()
        finally:
            net.close()

    def test_lru_eviction_closes_oldest(self):
        net = InMemoryNetwork()
        try:
            for name in ("a", "b", "c"):
                net.host(name).listen("s", lambda d: d)
            pool = ConnectionPool(net.host("client"), max_size=2)
            pool.get("a/s")
            pool.get("b/s")
            pool.get("a/s")  # touch: a becomes MRU
            pool.get("c/s")  # evicts b, the LRU entry
            assert pool.stats()["evictions"] == 1
            assert len(pool) == 2
            pool.close()
        finally:
            net.close()

    def test_survives_crash_and_recovery(self):
        """drop() after a crash discards the dead connection; the next get()
        dials fresh and reaches the recovered server."""
        net = TcpNetwork()
        try:
            net.host("server").listen("echo", lambda d: d)
            pool = ConnectionPool(net.host("client"))
            connection = pool.get("server/echo")
            assert connection.call(b"a", timeout=5.0) == b"a"
            net.crash("server")
            with pytest.raises(CommunicationError):
                connection.call(b"b", timeout=5.0)
            pool.drop("server/echo")
            net.recover("server")
            fresh = pool.get("server/echo")
            assert fresh.call(b"c", timeout=5.0) == b"c"
            assert pool.stats()["misses"] == 2
            pool.close()
        finally:
            net.close()


class TestListenRace:
    def test_duplicate_listen_rejected(self):
        net = TcpNetwork()
        try:
            net.host("server").listen("svc", lambda d: d)
            with pytest.raises(CommunicationError):
                net.host("server").listen("svc", lambda d: d)
        finally:
            net.close()

    def test_racing_listens_yield_exactly_one_winner(self):
        """The check-then-act race: two concurrent listen() calls on one
        address must produce exactly one listener, never two."""
        for _ in range(10):
            net = TcpNetwork()
            try:
                outcomes: list[str] = []
                barrier = threading.Barrier(2)

                def try_listen() -> None:
                    barrier.wait()
                    try:
                        net.host("server").listen("svc", lambda d: d)
                        outcomes.append("ok")
                    except CommunicationError:
                        outcomes.append("rejected")

                racers = [threading.Thread(target=try_listen) for _ in range(2)]
                for r in racers:
                    r.start()
                for r in racers:
                    r.join(timeout=10)
                assert sorted(outcomes) == ["ok", "rejected"]
            finally:
                net.close()

    def test_claim_survives_crash_until_closed(self):
        net = TcpNetwork()
        try:
            net.host("server").listen("svc", lambda d: d)
            net.crash("server")
            with pytest.raises(CommunicationError):
                net.host("server").listen("svc", lambda d: d)
        finally:
            net.close()


def _chaos_mux_run(seed: int, threads: int = 4, calls: int = 30) -> list[list[str]]:
    """Drive N clients (each on its own host => its own deterministic fault
    stream) over chaos-wrapped multiplexed TCP; return per-client outcomes."""
    plan = FaultPlan(seed=seed, loss=0.1, corrupt=0.05)
    net = ChaosNetwork(TcpNetwork(), plan)
    outcomes: list[list[str]] = [[] for _ in range(threads)]
    try:
        net.host("server").listen("echo", lambda d: b"R:" + d)
        connections = [
            net.host(f"client-{slot}").connect("server/echo") for slot in range(threads)
        ]
        barrier = threading.Barrier(threads)

        def worker(slot: int) -> None:
            connection = connections[slot]
            record = outcomes[slot]
            barrier.wait()
            for i in range(calls):
                payload = f"{slot}:{i}".encode()
                try:
                    reply = connection.call(payload, timeout=5.0)
                except CommunicationError:
                    record.append("err")
                else:
                    record.append("ok" if reply == b"R:" + payload else "corrupt")

        workers = [threading.Thread(target=worker, args=(s,)) for s in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        for connection in connections:
            connection.close()
    finally:
        net.close()
    return outcomes


class TestChaosOverMux:
    def test_seeded_run_is_deterministic(self):
        """Same seed, same per-client outcome sequences — the PR-1 replay
        guarantee holds with multiplexed framing underneath."""
        first = _chaos_mux_run(seed=1234)
        second = _chaos_mux_run(seed=1234)
        assert first == second
        flat = [o for client in first for o in client]
        assert "err" in flat or "corrupt" in flat  # faults actually fired

    def test_different_seeds_differ(self):
        assert _chaos_mux_run(seed=1) != _chaos_mux_run(seed=2)
