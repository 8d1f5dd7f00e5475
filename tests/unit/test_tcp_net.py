"""Unit tests for the TCP loopback transport."""

import socket
import threading
import time

import pytest

from repro.net import framing as framing_mod
from repro.net.tcp import FrameReader, TcpNetwork, write_frame_mux
from tests.conftest import open_sockets
from tests.unit.test_mux_concurrency import thread_stacks
from repro.util.errors import (
    CommunicationError,
    FrameTooLargeError,
    ServerFailedError,
    TimeoutError_,
)


@pytest.fixture
def net():
    network = TcpNetwork()
    yield network
    network.close()


class _CountingSocket:
    """A socket that counts its ``recv`` calls."""

    def __init__(self, sock):
        self._sock = sock
        self.recvs = 0

    def recv(self, n):
        self.recvs += 1
        return self._sock.recv(n)


class TestFrameReader:
    @pytest.fixture
    def pair(self):
        a, b = socket.socketpair()
        yield a, _CountingSocket(b)
        a.close()
        b.close()

    def test_a_whole_frame_costs_one_recv(self, pair):
        writer, counted = pair
        reader = FrameReader(counted)
        for request_id, payload in [(1, b"x" * 100), (2, b""), (3, b"y" * 5000)]:
            write_frame_mux(writer, request_id, payload)
            assert reader.read() == (request_id, payload)
        assert counted.recvs == 3
        assert reader.pos == reader.end

    def test_a_buffered_frame_costs_no_recv(self, pair):
        writer, counted = pair
        frames = [(k, b"%d" % k * k) for k in range(1, 9)]
        writer.sendall(
            b"".join(framing_mod.FRAME_HEADER.pack(len(p), k) + p for k, p in frames)
        )
        time.sleep(0.05)  # all eight frames in the receive buffer
        reader = FrameReader(counted)
        assert reader.read() == frames[0]
        assert counted.recvs == 1
        assert reader.pos < reader.end  # seven frames still held
        assert [reader.read() for _ in frames[1:]] == frames[1:]
        assert counted.recvs == 1
        assert reader.pos == reader.end

    def test_a_frame_longer_than_one_recv_is_read_to_its_end_only(self, pair):
        writer, counted = pair
        big = bytes(range(256)) * 1024  # 256 KiB: more than one recv's worth
        done = threading.Event()

        def write():
            write_frame_mux(writer, 7, big)
            write_frame_mux(writer, 8, b"next")
            done.set()

        threading.Thread(target=write).start()
        reader = FrameReader(counted)
        assert reader.read() == (7, big)
        assert reader.pos == reader.end  # nothing past the frame was read
        assert reader.read() == (8, b"next")
        assert done.wait(5.0)

    def test_end_of_stream_is_a_communication_error(self, pair):
        writer, counted = pair
        writer.sendall(framing_mod.FRAME_HEADER.pack(4, 1) + b"ab")
        writer.shutdown(socket.SHUT_WR)
        with pytest.raises(CommunicationError):
            FrameReader(counted).read()


class TestTcpDelivery:
    def test_request_reply(self, net):
        net.host("server").listen("echo", lambda d: b"R:" + d)
        conn = net.host("client").connect("server/echo")
        assert conn.call(b"hello") == b"R:hello"
        conn.close()

    def test_large_frame(self, net):
        net.host("server").listen("echo", lambda d: d)
        conn = net.host("client").connect("server/echo")
        blob = bytes(range(256)) * 4096  # 1 MiB
        assert conn.call(blob) == blob
        conn.close()

    def test_unknown_address(self, net):
        conn = net.host("client").connect("server/none")
        with pytest.raises(CommunicationError):
            conn.call(b"x")

    def test_duplicate_address_rejected(self, net):
        net.host("server").listen("echo", lambda d: d)
        with pytest.raises(CommunicationError, match="already in use"):
            net.host("server").listen("echo", lambda d: d)

    def test_sequential_calls_on_one_connection(self, net):
        net.host("server").listen("echo", lambda d: d)
        conn = net.host("client").connect("server/echo")
        for i in range(50):
            payload = b"%d" % i
            assert conn.call(payload) == payload
        conn.close()

    def test_concurrent_clients(self, net):
        net.host("server").listen("echo", lambda d: d)
        errors = []

        def worker(i):
            conn = net.host(f"client-{i}").connect("server/echo")
            try:
                for j in range(20):
                    payload = b"%d-%d" % (i, j)
                    if conn.call(payload) != payload:
                        errors.append((i, j))
            finally:
                conn.close()

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=15)
        assert not errors


class TestTcpFaults:
    def test_crash_breaks_live_connections(self, net):
        net.host("server").listen("echo", lambda d: d)
        conn = net.host("client").connect("server/echo")
        assert conn.call(b"a") == b"a"
        net.crash("server")
        with pytest.raises(CommunicationError):
            conn.call(b"b")

    def test_recover_re_resolves(self, net):
        net.host("server").listen("echo", lambda d: d)
        conn = net.host("client").connect("server/echo")
        assert conn.call(b"a") == b"a"
        net.crash("server")
        with pytest.raises(CommunicationError):
            conn.call(b"b")
        net.recover("server")
        assert conn.call(b"c") == b"c"

    def test_close_closes_what_a_recovered_connection_opened(self):
        """A connection that re-opened its socket after crash → recover and
        that nobody closed is closed by ``TcpNetwork.close()``, and so is its
        demultiplexer, which parks with no timed wait and would otherwise
        never notice."""
        sockets = open_sockets()
        threads = set(threading.enumerate())
        net = TcpNetwork()
        net.host("server").listen("echo", lambda d: d)
        conn = net.host("client").connect("server/echo")
        assert conn.call(b"a") == b"a"
        net.crash("server")
        with pytest.raises(CommunicationError):
            conn.call(b"b")
        net.recover("server")
        assert conn.call(b"c") == b"c"
        assert conn.call_async(b"d").result(5.0) == b"d"
        net.close()

        def left() -> list:
            started = set(threading.enumerate()) - threads
            return [t.name for t in started if t.name.startswith("cqos-")] + sorted(
                open_sockets() - sockets
            )

        assert _poll(lambda: not left(), timeout=2.0), left()

    def test_connect_to_crashed_host(self, net):
        net.host("server").listen("echo", lambda d: d)
        net.crash("server")
        conn = net.host("client").connect("server/echo")
        with pytest.raises(ServerFailedError):
            conn.call(b"x")

    def test_closed_listener_stops_serving(self, net):
        listener = net.host("server").listen("echo", lambda d: d)
        conn = net.host("client").connect("server/echo")
        assert conn.call(b"a") == b"a"
        listener.close()
        with pytest.raises(CommunicationError):
            conn.call(b"b")

    def test_no_execution_while_crashed(self, net):
        served: list[bytes] = []

        def handler(data: bytes) -> bytes:
            served.append(data)
            return data

        net.host("server").listen("svc", handler)
        conn = net.host("client").connect("server/svc")
        conn.call(b"one")
        net.crash("server")
        for _ in range(10):
            with pytest.raises(CommunicationError):
                conn.call(b"dead", timeout=1)
        assert served == [b"one"]
        conn.close()

    def test_listener_close_releases_address(self, net):
        listener = net.host("server").listen("echo", lambda d: d)
        listener.close()
        # Address is reclaimable after close (claim released).
        listener2 = net.host("server").listen("echo", lambda d: b"2" + d)
        conn = net.host("client").connect("server/echo")
        assert conn.call(b"x", timeout=5) == b"2x"
        listener2.close()
        conn.close()


def _poll(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


def _demux_running() -> bool:
    return any("_demux_loop" in stack for stack in thread_stacks())


class TestClose:
    def test_close_fails_a_leader_blocked_in_recv_at_once(self, net):
        """``close()`` from another thread shuts the socket down, so a sync
        leader blocked in ``recv`` on a hung handler fails at once, not when
        the server finally answers; the demultiplexer parked behind it ends
        once its pending async call is failed."""
        entered = threading.Event()
        release = threading.Event()

        def handler(data: bytes) -> bytes:
            if data == b"hang":
                entered.set()
                release.wait(5.0)
            return data

        net.host("server").listen("svc", handler)
        conn = net.host("client").connect("server/svc")
        outcome: list = []

        def lead() -> None:
            try:
                outcome.append(conn.call(b"hang"))
            except BaseException as exc:  # noqa: BLE001 - handed to the assert
                outcome.append(exc)

        leader = threading.Thread(target=lead)
        leader.start()
        try:
            assert entered.wait(5.0)
            assert _poll(lambda: conn._reader_active)
            reply = conn.call_async(b"async")
            assert _poll(_demux_running)
            conn.close()
            leader.join(0.25)
            assert not leader.is_alive(), "close() did not wake the leader"
            assert len(outcome) == 1 and isinstance(outcome[0], CommunicationError)
            with pytest.raises(CommunicationError, match="closed"):
                reply.result(0.25)
            assert _poll(lambda: not _demux_running(), timeout=0.25)
        finally:
            release.set()
            leader.join(5.0)


class TestCallTimeouts:
    """The per-call timeout contract of the leader/follower connection.

    The first caller awaiting a reply reads the socket (leader); later
    callers wait on the condition (followers).  A follower that gives up
    costs nothing but its own call.  A leader that gives up may have stopped
    mid-frame, so it resets the connection and every other pending call
    fails with it: the accepted cost of a single caller reading its own
    reply on its own thread with no reader thread behind it.
    """

    @pytest.fixture
    def stalled(self, net):
        """A connection to a server that holds ``b"stall"`` until released.

        The listener runs a connection's handlers inline while nothing is
        pipelined behind the request it just read, so once ``entered`` is
        set any later request on the same connection waits unread."""
        entered = threading.Event()
        release = threading.Event()

        def handler(data: bytes) -> bytes:
            if data == b"stall":
                entered.set()
                release.wait(10.0)
            return data

        net.host("server").listen("svc", handler)
        conn = net.host("client").connect("server/svc")
        yield conn, entered, release
        release.set()
        conn.close()

    @staticmethod
    def _call_in_thread(conn, payload, timeout):
        outcome: list = []

        def run() -> None:
            try:
                outcome.append(conn.call(payload, timeout=timeout))
            except BaseException as exc:  # noqa: BLE001 - handed to the assert
                outcome.append(exc)

        thread = threading.Thread(target=run)
        thread.start()
        return thread, outcome

    def test_per_call_timeout_leaves_stream_intact(self, stalled):
        conn, _entered, release = stalled
        assert conn.call(b"warm") == b"warm"
        with pytest.raises(TimeoutError_):
            conn.call(b"stall", timeout=0.05)
        # The single caller was the leader, so its timeout reset the
        # connection; nobody else was pending, and the reset heals on the
        # next call, which reconnects through the name table.
        assert conn.call(b"after", timeout=5) == b"after"
        release.set()

    def test_follower_timeout_drops_only_its_own_call(self, stalled):
        conn, entered, release = stalled
        leader, leader_outcome = self._call_in_thread(conn, b"stall", 10.0)
        assert entered.wait(5.0)
        assert _poll(lambda: conn._reader_active)
        with pytest.raises(TimeoutError_):
            conn.call(b"quick", timeout=0.1)
        # Ids are handed out from 1: the leader's entry stays, ours is gone.
        assert list(conn._pending) == [1]
        release.set()
        leader.join(timeout=10)
        assert not leader.is_alive()
        assert leader_outcome == [b"stall"]
        # The follower's late reply (id 2) is discarded by the next leader
        # and the stream is still framed.
        assert conn.call(b"after", timeout=5) == b"after"
        assert conn._pending == {}

    def test_leader_timeout_resets_and_fails_the_other_pending_call(self, stalled):
        conn, entered, release = stalled
        leader, leader_outcome = self._call_in_thread(conn, b"stall", 0.3)
        assert entered.wait(5.0)
        assert _poll(lambda: conn._reader_active)
        with pytest.raises(CommunicationError) as follower_error:
            conn.call(b"quick", timeout=10.0)
        assert not isinstance(follower_error.value, TimeoutError_)
        leader.join(timeout=10)
        assert not leader.is_alive()
        assert len(leader_outcome) == 1
        assert isinstance(leader_outcome[0], TimeoutError_)
        assert conn._pending == {}
        assert conn._sock is None
        release.set()
        # The same connection object reconnects on the next call.
        assert conn.call(b"again", timeout=5) == b"again"
        assert conn._sock is not None


class TestFrameLimits:
    def test_oversized_request_fails_fast_client_side(self, net, monkeypatch):
        net.host("server").listen("echo", lambda d: d)
        conn = net.host("client").connect("server/echo")
        assert conn.call(b"warm") == b"warm"
        # Shrink the limit instead of allocating 64 MiB in a unit test.
        monkeypatch.setattr(framing_mod, "MAX_FRAME", 1024)
        with pytest.raises(CommunicationError):
            conn.call(b"x" * 2048)
        # FrameTooLargeError is a CommunicationError, so the retry
        # classification treats it like any other transient-looking failure.
        monkeypatch.undo()
        assert conn.call(b"again") == b"again"
        conn.close()

    def test_oversized_reply_resets_instead_of_hanging(self, net, monkeypatch):
        # The reply-side limit check runs in the serving thread; the client
        # must see a prompt connection error, not block until timeout.
        net.host("server").listen("big", lambda d: b"y" * 4096)
        conn = net.host("client").connect("server/big")
        monkeypatch.setattr(framing_mod, "MAX_FRAME", 1024)
        with pytest.raises(CommunicationError):
            conn.call(b"x", timeout=5.0)
        conn.close()

    def test_handler_crash_resets_instead_of_hanging(self, net):
        def exploding(_data):
            raise RuntimeError("handler bug")

        net.host("server").listen("boom", exploding)
        conn = net.host("client").connect("server/boom")
        with pytest.raises(CommunicationError):
            conn.call(b"x", timeout=5.0)
        conn.close()

    def test_frame_too_large_is_communication_error(self):
        assert issubclass(FrameTooLargeError, CommunicationError)


class TestResolveTableThreadSafety:
    def test_concurrent_listen_crash_recover_resolve(self, net):
        """Hammer the name table from publisher and resolver threads.

        Before the table accesses were funnelled through TcpNetwork._lock,
        concurrent crash/recover cycles against client-side resolution could
        corrupt the dict or read torn state.
        """
        net.host("server").listen("svc", lambda d: d)
        stop = threading.Event()
        errors: list[BaseException] = []

        def churn():
            try:
                while not stop.is_set():
                    net.crash("server")
                    net.recover("server")
            except BaseException as exc:  # noqa: BLE001 - surface to assert
                errors.append(exc)

        def resolve():
            try:
                while not stop.is_set():
                    port = net._resolve("server/svc")
                    assert port is None or isinstance(port, int)
            except BaseException as exc:  # noqa: BLE001 - surface to assert
                errors.append(exc)

        threads = [threading.Thread(target=churn) for _ in range(2)] + [
            threading.Thread(target=resolve) for _ in range(4)
        ]
        for t in threads:
            t.start()
        stop.wait(0.5)
        stop.set()
        for t in threads:
            t.join(timeout=10)
        assert not errors
        # The table must settle usable after the churn.
        net.recover("server")
        conn = net.host("client").connect("server/svc")
        assert conn.call(b"ok") == b"ok"
        conn.close()
