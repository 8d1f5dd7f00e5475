"""Unit tests for the TCP loopback transport."""

import threading

import pytest

from repro.net import framing as framing_mod
from repro.net.tcp import TcpNetwork
from repro.util.errors import CommunicationError, FrameTooLargeError, ServerFailedError


@pytest.fixture
def net():
    network = TcpNetwork()
    yield network
    network.close()


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
