"""Unit tests for the in-memory network and its fault injection."""

import threading

import pytest

from repro.net.memory import InMemoryNetwork
from repro.util.clock import RealClock, VirtualClock
from repro.util.errors import CommunicationError, ServerFailedError


@pytest.fixture
def net():
    network = InMemoryNetwork()
    yield network
    network.close()


def echo_listener(net, host_name="server", service="echo"):
    return net.host(host_name).listen(service, lambda d: b"echo:" + d)


class TestDelivery:
    def test_request_reply(self, net):
        echo_listener(net)
        conn = net.host("client").connect("server/echo")
        assert conn.call(b"hi") == b"echo:hi"

    def test_no_listener(self, net):
        conn = net.host("client").connect("server/none")
        with pytest.raises(CommunicationError, match="no listener"):
            conn.call(b"x")

    def test_duplicate_address_rejected(self, net):
        echo_listener(net)
        with pytest.raises(CommunicationError, match="already in use"):
            echo_listener(net)

    def test_listener_close_frees_address(self, net):
        listener = echo_listener(net)
        listener.close()
        echo_listener(net)  # no error

    def test_closed_connection_rejected(self, net):
        echo_listener(net)
        conn = net.host("client").connect("server/echo")
        conn.close()
        with pytest.raises(CommunicationError, match="closed"):
            conn.call(b"x")

    def test_malformed_address(self, net):
        with pytest.raises(ValueError):
            net.host("client").connect("no-service-part")

    def test_message_count(self, net):
        echo_listener(net)
        conn = net.host("client").connect("server/echo")
        before = net.message_count
        conn.call(b"1")
        conn.call(b"2")
        assert net.message_count - before == 4  # 2 requests + 2 replies

    def test_concurrent_calls(self, net):
        echo_listener(net)
        errors = []

        def worker(i):
            conn = net.host(f"client-{i}").connect("server/echo")
            for j in range(20):
                if conn.call(b"%d" % j) != b"echo:%d" % j:
                    errors.append((i, j))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not errors


class TestFaultInjection:
    def test_crash_and_recover(self, net):
        echo_listener(net)
        conn = net.host("client").connect("server/echo")
        net.crash("server")
        assert net.is_crashed("server")
        with pytest.raises(ServerFailedError):
            conn.call(b"x")
        net.recover("server")
        assert conn.call(b"y") == b"echo:y"

    def test_crashed_source_cannot_send(self, net):
        echo_listener(net)
        conn = net.host("client").connect("server/echo")
        net.crash("client")
        with pytest.raises(ServerFailedError):
            conn.call(b"x")

    def test_partition(self, net):
        echo_listener(net)
        conn = net.host("client").connect("server/echo")
        net.partition([["client"], ["server"]])
        with pytest.raises(CommunicationError, match="partition"):
            conn.call(b"x")
        net.heal()
        assert conn.call(b"y") == b"echo:y"

    def test_partition_same_group_ok(self, net):
        echo_listener(net)
        conn = net.host("client").connect("server/echo")
        net.partition([["client", "server"], ["lonely"]])
        assert conn.call(b"z") == b"echo:z"

    def test_loss(self, net):
        echo_listener(net)
        conn = net.host("client").connect("server/echo")
        net.set_loss(1.0, seed=1)
        with pytest.raises(CommunicationError, match="lost"):
            conn.call(b"x")
        net.set_loss(0.0)
        assert conn.call(b"y") == b"echo:y"

    def test_loss_probability_validated(self, net):
        with pytest.raises(ValueError):
            net.set_loss(1.5)

    def test_loss_is_seeded_and_partial(self, net):
        echo_listener(net)
        conn = net.host("client").connect("server/echo")
        net.set_loss(0.5, seed=42)
        outcomes = []
        for _ in range(50):
            try:
                conn.call(b"p")
                outcomes.append(True)
            except CommunicationError:
                outcomes.append(False)
        assert any(outcomes) and not all(outcomes)


class TestLatency:
    def test_latency_charged_on_clock(self):
        clock = VirtualClock()
        net = InMemoryNetwork(clock=clock, latency=0.1)
        echo_listener(net)
        conn = net.host("client").connect("server/echo")
        result = []
        thread = threading.Thread(target=lambda: result.append(conn.call(b"x")))
        thread.start()
        # Two messages (request + reply), 0.1 each.
        for _ in range(200):
            if clock.pending_sleepers():
                break
            threading.Event().wait(0.005)
        clock.advance(0.1)  # releases the request leg
        for _ in range(200):
            if clock.pending_sleepers():
                break
            threading.Event().wait(0.005)
        clock.advance(0.1)  # releases the reply leg
        thread.join(timeout=5)
        assert result == [b"echo:x"]

    def test_destination_crashed_during_the_latency_sleep_fails_the_request(self):
        """Reachability is checked once per message, and again only after a
        latency sleep: the window in which a host may crash in flight."""
        handled = []

        class CrashInFlight(RealClock):
            def sleep(self, seconds):
                net.crash("server")

        net = InMemoryNetwork(clock=CrashInFlight(), latency=0.001)
        try:
            net.host("server").listen("echo", lambda data: handled.append(data) or data)
            conn = net.host("client").connect("server/echo")
            with pytest.raises(ServerFailedError, match="server is crashed"):
                conn.call(b"x")
            assert handled == []
        finally:
            net.close()
