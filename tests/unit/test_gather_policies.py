"""Gather policies and sparse replica-id regressions (PR 10).

Policy mechanics over fake platforms: ``first`` and ``quorum:k`` must
complete without waiting on a straggler, a drained scatter without a quorum
must fail loudly, and an invalid ``gather_policy=`` must be refused.
Sparse-id coverage pins the satellite fixes: ActiveRep, TotalOrder and
PassiveRepServer iterate the platform's *real* replica ids instead of
assuming ``range(1, N+1)``.
"""

import time

import pytest

from repro.core.client import CactusClient
from repro.core.request import Request
from repro.core.server import CactusServer
from repro.qos import ActiveRep, PassiveRepServer, TotalOrder
from repro.util.errors import CommunicationError, ConfigurationError
from tests.unit.test_core_components import FakeClientPlatform, FakeServerPlatform


def make_client(platform, extra):
    return CactusClient.with_base(platform, extra, request_timeout=5.0)


def run_request(client, operation="echo", params=("v",)):
    request = Request("obj", operation, list(params))
    return request, client.cactus_request(request)


class SlowReplicaPlatform(FakeClientPlatform):
    """One replica (the straggler) answers after a long sleep."""

    def __init__(self, servers: int, straggler: int, delay: float = 2.0):
        super().__init__(servers=servers)
        self.straggler = straggler
        self.delay = delay

    def invoke_server(self, server, request):
        if server == self.straggler:
            time.sleep(self.delay)
        return super().invoke_server(server, request)


class DivergentPlatform(FakeClientPlatform):
    """Every replica answers with a different value: no quorum possible."""

    def invoke_server(self, server, request):
        self.invocations.append((server, request.operation, list(request.get_params())))
        return f"v{server}"


class TestGatherPolicies:
    def test_first_returns_before_the_straggler(self):
        platform = SlowReplicaPlatform(servers=3, straggler=3, delay=2.0)
        client = make_client(platform, [ActiveRep(gather_policy="first")])
        try:
            started = time.monotonic()
            _, result = run_request(client)
            elapsed = time.monotonic() - started
            assert result == "v"
            assert elapsed < platform.delay / 2
        finally:
            client.shutdown()
            client.runtime.shutdown()

    def test_first_skips_an_early_failure(self):
        platform = SlowReplicaPlatform(servers=3, straggler=3, delay=2.0)
        platform.fail_servers.add(1)
        client = make_client(platform, [ActiveRep(gather_policy="first")])
        try:
            _, result = run_request(client)
            assert result == "v"  # replica 2's success wins despite 1 failing
        finally:
            client.shutdown()
            client.runtime.shutdown()

    def test_quorum_two_of_three_ignores_straggler(self):
        platform = SlowReplicaPlatform(servers=3, straggler=3, delay=2.0)
        client = make_client(platform, [ActiveRep(gather_policy="quorum:2")])
        try:
            started = time.monotonic()
            _, result = run_request(client)
            elapsed = time.monotonic() - started
            assert result == "v"
            assert elapsed < platform.delay / 2
        finally:
            client.shutdown()
            client.runtime.shutdown()

    def test_quorum_exhaustion_fails_loudly(self):
        platform = DivergentPlatform(servers=3)
        client = make_client(platform, [ActiveRep(gather_policy="quorum:2")])
        try:
            with pytest.raises(CommunicationError, match="quorum"):
                run_request(client)
            # Every replica was still asked (active replication sends to all).
            assert sorted(s for s, _, _ in platform.invocations) == [1, 2, 3]
        finally:
            client.shutdown()
            client.runtime.shutdown()

    def test_invalid_policy_is_loud(self):
        platform = FakeClientPlatform(servers=3)
        with pytest.raises(ConfigurationError):
            make_client(platform, [ActiveRep(gather_policy="bogus")])


# -- sparse replica ids ------------------------------------------------------


class SparseClientPlatform(FakeClientPlatform):
    """Client platform whose replica group has sparse logical ids."""

    def __init__(self, ids=(3, 7, 9)):
        super().__init__(servers=len(ids))
        self.ids = tuple(ids)

    def server_ids(self):
        return self.ids


class SparseServerPlatform(FakeServerPlatform):
    """Server platform with a sparse replica group and scriptable liveness."""

    def __init__(self, me=2, ids=(2, 5, 9)):
        super().__init__()
        self.me = me
        self.ids = tuple(ids)
        self.dead: set[int] = set()
        self.status_probes: list[int] = []

    def my_replica(self) -> int:
        return self.me

    def num_replicas(self) -> int:
        return len(self.ids)

    def replica_ids(self):
        return self.ids

    def peer_status(self, replica: int) -> bool:
        self.status_probes.append(replica)
        return replica not in self.dead


def _poll(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestSparseReplicaIds:
    def test_active_rep_fans_out_to_sparse_ids(self):
        platform = SparseClientPlatform(ids=(3, 7, 9))
        client = make_client(platform, [ActiveRep()])
        try:
            run_request(client)
            assert _poll(lambda: len(platform.invocations) >= 3)
            assert sorted(s for s, _, _ in platform.invocations) == [3, 7, 9]
        finally:
            client.shutdown()
            client.runtime.shutdown()

    def test_num_servers_caps_the_sparse_group(self):
        platform = SparseClientPlatform(ids=(3, 7, 9))
        client = make_client(platform, [ActiveRep(num_servers=2)])
        try:
            run_request(client)
            assert _poll(lambda: len(platform.invocations) >= 2)
            time.sleep(0.05)
            assert sorted(s for s, _, _ in platform.invocations) == [3, 7]
        finally:
            client.shutdown()
            client.runtime.shutdown()

    def test_total_order_announces_to_sparse_peers(self):
        platform = SparseServerPlatform(me=2, ids=(2, 5, 9))
        server = CactusServer.with_base(platform, [TotalOrder()])
        try:
            protocol: TotalOrder = server.micro_protocol("TotalOrder")
            with server.shared.lock:
                protocol._sequencer = 2  # this replica coordinates
            result = server.cactus_invoke(Request("obj", "echo", ["x"]))
            assert result == "x"
            assert _poll(lambda: len(platform.peer_messages) >= 2)
            announced = {replica for replica, kind, _ in platform.peer_messages}
            kinds = {kind for _, kind, _ in platform.peer_messages}
            assert announced == {5, 9}  # never 1..3's phantom range
            assert kinds == {"order"}
        finally:
            server.shutdown()
            server.runtime.shutdown()

    def test_sequencer_election_probes_only_real_ids(self):
        platform = SparseServerPlatform(me=5, ids=(2, 5, 9))
        platform.dead.add(2)
        server = CactusServer.with_base(platform, [TotalOrder()])
        try:
            protocol: TotalOrder = server.micro_protocol("TotalOrder")
            protocol._elect_sequencer()
            assert protocol.sequencer == 5  # lowest *live* sparse id
            # The historical range(1, N+1) walk would have probed 1 and 3.
            assert set(platform.status_probes) <= set(platform.ids)
        finally:
            server.shutdown()
            server.runtime.shutdown()

    def test_passive_forwarding_reaches_sparse_backups(self):
        platform = SparseServerPlatform(me=2, ids=(2, 5, 9))
        server = CactusServer.with_base(platform, [PassiveRepServer()])
        try:
            result = server.cactus_invoke(Request("obj", "echo", ["y"]))
            assert result == "y"
            forwarded = {replica for replica, kind, _ in platform.peer_messages}
            assert forwarded == {5, 9}
        finally:
            server.shutdown()
            server.runtime.shutdown()
