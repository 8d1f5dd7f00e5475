"""Fan-out cancellation hygiene at the transport layer (PR 10).

Abandoned correlation ids must not leak waiter entries in the multiplexed
connection — including when the straggler's host crashes
mid-gather — and the non-blocking submit path must put byte-identical
frames on the wire as the blocking path (the differential half of the
scatter-gather acceptance).
"""

import time

import pytest

from repro.core.fanout import ScatterGather
from repro.net.chaos import ChaosNetwork, FaultPlan
from repro.net.tcp import TcpNetwork
from repro.util.errors import CommunicationError, ReproError, TimeoutError_

SLOW_PREFIX = b"slow"
SLOW_S = 0.8


def _handler(data: bytes) -> bytes:
    if data.startswith(SLOW_PREFIX):
        time.sleep(SLOW_S)
    return b"re:" + data


def _pending_count(connection) -> int:
    # The correlation-id waiter map of ``_TcpMuxConnection``; reading its size without the guarding lock is fine for polling.
    return len(connection._pending)


def _poll(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestAbandonReclaimsWaiters:
    @pytest.fixture
    def network(self):
        net = TcpNetwork()
        yield net
        net.close()

    @pytest.fixture
    def connection(self, network):
        network.host("srv").listen("svc", _handler)
        conn = network.host("cli").connect("srv/svc")
        yield conn
        conn.close()

    def test_abandoned_id_does_not_leak(self, connection):
        # Fast first: the server may run handlers inline in arrival
        # order, so a leading straggler would head-of-line block the reply
        # we gather (scheduling noise, not the property under test).
        fast = connection.call_async(b"fast-1")
        assert fast.result(timeout=5.0) == b"re:fast-1"
        slow = connection.call_async(SLOW_PREFIX + b"-x")
        assert _pending_count(connection) >= 1  # the straggler's entry
        slow.abandon()
        assert _poll(lambda: _pending_count(connection) == 0)
        # The stream stays framed: the straggler's late reply is discarded
        # on arrival and the connection keeps serving.
        assert connection.call(b"fast-2", timeout=5.0) == b"re:fast-2"
        time.sleep(SLOW_S + 0.3)  # outlive the late reply
        assert connection.call(b"fast-3", timeout=5.0) == b"re:fast-3"
        assert _pending_count(connection) == 0

    def test_scatter_abandon_rest_drains_the_map(self, connection):
        scatter = ScatterGather()
        for i in range(2):
            scatter.submit(i, lambda i=i: connection.call_async(b"fast-%d" % i))
        scatter.submit("slow", lambda: connection.call_async(SLOW_PREFIX + b"-y"))
        gathered = [scatter.next_outcome(timeout=5.0) for _ in range(2)]
        assert {o.key for o in gathered} == {0, 1}
        assert all(o.ok for o in gathered)
        scatter.abandon_rest()
        assert scatter.next_outcome() is None
        assert _poll(lambda: _pending_count(connection) == 0)
        assert connection.call(b"after", timeout=5.0) == b"re:after"

    def test_straggler_crash_mid_gather_settles_and_drains(self, network, connection):
        slow = connection.call_async(SLOW_PREFIX + b"-z")
        assert _poll(lambda: _pending_count(connection) >= 1)
        network.crash("srv")
        # The crash settles the in-flight branch with a delivery error and
        # reclaims its waiter entry — no zombie correlation ids.
        with pytest.raises((CommunicationError, TimeoutError_)):
            slow.result(timeout=5.0)
        assert _poll(lambda: _pending_count(connection) == 0)
        network.recover("srv")
        # Recovery re-resolves through the name table on the next call.
        assert _poll_call(connection, b"back") == b"re:back"
        assert _pending_count(connection) == 0


def _poll_call(connection, payload, timeout=5.0):
    """Retry a call across the recovery window (stale socket, re-resolve)."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            return connection.call(payload, timeout=2.0)
        except ReproError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.05)


class TestWireDifferential:
    def test_async_submit_sends_identical_bytes_as_blocking_call(self):
        """Same payload via call() and call_async(): the server must see
        byte-identical request frames and produce identical replies — the
        futures API changes scheduling, never the wire."""
        payload = b"\x00differential\xffpayload" * 3
        received: list[bytes] = []

        def recording(data: bytes) -> bytes:
            received.append(bytes(data))
            return b"ok:" + data

        network = TcpNetwork()
        try:
            network.host("srv").listen("svc", recording)
            conn = network.host("cli").connect("srv/svc")
            sync_reply = conn.call(payload, timeout=5.0)
            async_reply = conn.call_async(payload).result(timeout=5.0)
            conn.close()
        finally:
            network.close()
        assert sync_reply == async_reply
        assert received == [payload, payload]

    def test_chaos_decorated_submit_keeps_the_per_call_fault_model(self):
        """The chaos wrapper only implements the blocking call, so its
        call_async inherits the thread-per-call default: submit never
        raises, and the plan's fault verdict lands in the future."""
        network = ChaosNetwork(TcpNetwork(), FaultPlan(seed=7, loss=1.0))
        try:
            network.host("srv").listen("svc", _handler)
            conn = network.host("cli").connect("srv/svc")
            reply = conn.call_async(b"doomed")  # must not raise here
            with pytest.raises(CommunicationError):
                reply.result(timeout=5.0)
        finally:
            network.close()
