"""Unit tests for the asyncio execution engine (`repro.net.aio`).

Covers the Connection/Listener contract parity with the threaded engine:
correlation under concurrent callers, per-call timeout that leaves the
stream intact, crash/recovery semantics, chaos composition, oversized-frame
refusal, engine selection, and the differential wire-bytes check (encoded
frames bit-identical to what the threaded engine's ``write_frame_mux``
sends).
"""

import threading

import pytest

from repro.net import AsyncTcpNetwork
from repro.net.chaos import ChaosNetwork, FaultPlan
from repro.net.framing import FrameDecoder, encode_frame
from repro.net.tcp import TcpNetwork, write_frame_mux
from repro.net.transport import blocking_handler
from repro.util.errors import (
    CommunicationError,
    ConfigurationError,
    FrameTooLargeError,
    TimeoutError_,
)


@pytest.fixture
def net():
    network = TcpNetwork(engine="async")
    yield network
    network.close()


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown TCP engine"):
            TcpNetwork(engine="fibers")

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("CQOS_ENGINE", "async")
        network = TcpNetwork()
        assert network.engine == "async"
        network.close()
        monkeypatch.delenv("CQOS_ENGINE")
        network = TcpNetwork()
        assert network.engine == "threaded"
        network.close()

    def test_async_network_factory(self):
        network = AsyncTcpNetwork()
        assert isinstance(network, TcpNetwork)
        assert network.engine == "async"
        network.close()


class TestAsyncDelivery:
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

    def test_oversized_frame_rejected_before_send(self, net):
        net.host("server").listen("echo", lambda d: d)
        conn = net.host("client").connect("server/echo")

        class Huge(bytes):
            def __len__(self):
                return 65 * 1024 * 1024

        with pytest.raises(FrameTooLargeError):
            conn.call(Huge(b"x"))
        # The refusal happened before any byte hit the wire.
        assert conn.call(b"still-framed") == b"still-framed"
        conn.close()

    def test_correlation_under_concurrent_callers(self, net):
        net.host("server").listen("echo", lambda d: d)
        conn = net.host("client").connect("server/echo")
        errors: list[BaseException] = []

        def caller(tag: int) -> None:
            try:
                for i in range(60):
                    payload = b"%d:%d" % (tag, i)
                    assert conn.call(payload, timeout=10) == payload
            except BaseException as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=caller, args=(t,)) for t in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        conn.close()

    def test_batching_coalesces_frames(self, net):
        net.host("server").listen("echo", lambda d: d)
        conn = net.host("client").connect("server/echo")
        barrier = threading.Barrier(8)

        def caller() -> None:
            barrier.wait()
            for i in range(40):
                conn.call(b"x" * 32, timeout=10)

        threads = [threading.Thread(target=caller) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = net.batch_stats()
        assert stats is not None
        # 8 * 40 request frames + as many replies crossed the loop; batching
        # must have needed strictly fewer sends than frames.
        assert stats["frames_out"] >= 320
        assert 0 < stats["flushes"] < stats["frames_out"]
        assert stats["frames_per_flush"] > 1.0
        conn.close()

    def test_per_call_timeout_leaves_stream_intact(self, net):
        release = threading.Event()

        @blocking_handler
        def handler(data: bytes) -> bytes:
            if data == b"slow":
                release.wait(5.0)
            return data

        net.host("server").listen("svc", handler)
        conn = net.host("client").connect("server/svc")
        assert conn.call(b"warm") == b"warm"
        with pytest.raises(TimeoutError_):
            conn.call(b"slow", timeout=0.05)
        # Unlike a threaded leader timeout, only the timed-out correlation id
        # was abandoned: the same connection keeps working immediately.
        assert conn.call(b"after", timeout=5) == b"after"
        release.set()
        conn.close()


class TestAsyncCrashRecovery:
    def test_crash_fails_calls_recover_heals(self, net):
        net.host("server").listen("echo", lambda d: d)
        conn = net.host("client").connect("server/echo")
        assert conn.call(b"up") == b"up"
        net.crash("server")
        with pytest.raises(CommunicationError):
            conn.call(b"down", timeout=2)
        net.recover("server")
        # Reconnects lazily through the name table (fresh port).
        deadline = 50
        for _ in range(deadline):
            try:
                assert conn.call(b"back", timeout=2) == b"back"
                break
            except CommunicationError:
                continue
        else:
            pytest.fail("connection did not heal after recover()")
        conn.close()

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


class TestChaosComposition:
    def test_chaos_wraps_async_engine_unchanged(self):
        plan = FaultPlan(seed=11, latency=0.001, jitter=0.001)
        chaos = ChaosNetwork(TcpNetwork(engine="async"), plan)
        try:
            chaos.host("server").listen("echo", lambda d: d)
            conn = chaos.host("client").connect("server/echo")
            for i in range(20):
                payload = b"%d" % i
                assert conn.call(payload, timeout=5) == payload
            assert chaos.stats()["delivered"] >= 40
            conn.close()
        finally:
            chaos.close()

    def test_chaos_loss_surfaces_as_communication_error(self):
        plan = FaultPlan(seed=3, loss=1.0)
        chaos = ChaosNetwork(TcpNetwork(engine="async"), plan)
        try:
            chaos.host("server").listen("echo", lambda d: d)
            conn = chaos.host("client").connect("server/echo")
            with pytest.raises(CommunicationError):
                conn.call(b"x", timeout=2)
        finally:
            chaos.close()


class TestDifferentialWireBytes:
    """The async engine's frames are bit-identical to the threaded engine's."""

    def test_encode_frame_matches_write_frame_mux(self):
        class SinkSocket:
            def __init__(self):
                self.sent = bytearray()

            def sendall(self, data):
                self.sent += data

        cases = [
            (1, b""),
            (2, b"x"),
            (77, bytes(range(256))),
            (2**63 + 5, b"big correlation id"),
            (12345, b"a" * 70000),  # above the inline-send threshold
            (6, bytearray(b"bytearray payload")),
            (7, memoryview(b"memoryview payload")),
        ]
        for request_id, payload in cases:
            sink = SinkSocket()
            write_frame_mux(sink, request_id, payload)
            assert bytes(sink.sent) == encode_frame(request_id, payload)

    def test_live_async_frames_decode_with_shared_decoder(self, net):
        # End-to-end: bytes produced by the async engine round-trip through
        # the engine-neutral decoder used by both sides.
        net.host("server").listen("echo", lambda d: d)
        conn = net.host("client").connect("server/echo")
        payloads = [b"alpha", b"beta", b"gamma" * 100]
        for payload in payloads:
            assert conn.call(payload, timeout=5) == payload
        conn.close()
        # And the standalone encoding of the same frames is parseable by a
        # fresh decoder regardless of chunking.
        stream = b"".join(encode_frame(i, p) for i, p in enumerate(payloads))
        decoder = FrameDecoder()
        decoded: list[tuple[int, bytes]] = []
        for k in range(0, len(stream), 7):
            decoded.extend(decoder.feed(stream[k : k + 7]))
        assert decoded == list(enumerate(payloads))


class TestDispatchPolicy:
    def test_marked_handler_is_never_promoted(self, net):
        @blocking_handler
        def handler(data: bytes) -> bytes:
            return data

        listener = net.host("server").listen("svc", handler)
        conn = net.host("client").connect("server/svc")
        for i in range(64):
            conn.call(b"%d" % i, timeout=5)
        assert listener._never_inline is True
        assert listener._inline_ok is False
        conn.close()

    def test_fast_unmarked_handler_gets_promoted(self, net):
        listener = net.host("server").listen("svc", lambda d: d)
        conn = net.host("client").connect("server/svc")
        for i in range(64):
            conn.call(b"%d" % i, timeout=5)
        assert listener._inline_ok is True
        conn.close()

    def test_inline_promotion_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv("CQOS_ASYNC_INLINE", "0")
        network = TcpNetwork(engine="async")
        try:
            listener = network.host("server").listen("svc", lambda d: d)
            conn = network.host("client").connect("server/svc")
            for i in range(64):
                conn.call(b"%d" % i, timeout=5)
            assert listener._inline_ok is False
            conn.close()
        finally:
            network.close()


class TestBlockingGuard:
    def test_blocking_wait_on_loop_raises(self):
        import asyncio

        from repro.core.platform import assert_blocking_safe

        async def on_loop():
            assert_blocking_safe("test wait")

        with pytest.raises(ConfigurationError, match="event loop"):
            asyncio.run(on_loop())

    def test_blocking_wait_off_loop_is_fine(self):
        from repro.core.platform import assert_blocking_safe

        assert_blocking_safe("test wait")
