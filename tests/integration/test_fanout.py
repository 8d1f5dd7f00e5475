"""Scatter-gather fan-out: differential, policy, and chaos coverage (PR 10).

Three layers:

- **differential** — the futures-based fan-out must put byte-identical
  frames on the wire as the blocking per-replica send it replaced, and the
  default ``all`` policy must raise the historical Cactus event sequence
  (one readyToSend and one invoke event per replica, base resultReturner
  completing from the first reply);
- **policy over real TCP** — quorum(2-of-3) completes without waiting on a
  slow straggler;
- **chaos** — crash and partition of the straggler mid-gather: the quorum
  still answers, every live replica applies exactly once, no lost replies.
"""

import time

import pytest

from repro.apps.bank import BankAccount, bank_compiled, bank_interface
from repro.cactus.composite import MicroProtocol
from repro.cactus.events import ORDER_FIRST
from repro.core.events import (
    EV_INVOKE_FAILURE,
    EV_INVOKE_SUCCESS,
    EV_READY_TO_SEND,
)
from repro.core.request import Request
from repro.core.service import CqosDeployment
from repro.net.chaos import ChaosNetwork, FaultPlan
from repro.net.memory import InMemoryNetwork
from repro.net.tcp import TcpNetwork
from repro.qos import ActiveRep, PassiveRep, PassiveRepServer


class RecordingNetwork(InMemoryNetwork):
    """In-memory network that records every delivered request frame."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.frames: list[tuple[str, bytes]] = []
        self._recording = False

    def start_capture(self) -> None:
        self.frames = []
        self._recording = True

    def stop_capture(self) -> dict[str, list[bytes]]:
        self._recording = False
        by_host: dict[str, list[bytes]] = {}
        for address, data in self.frames:
            by_host.setdefault(address.split("/")[0], []).append(data)
        return by_host

    def _register(self, address, handler):
        def recording(data, _handler=handler, _address=address):
            if self._recording:
                self.frames.append((_address, bytes(data)))
            return _handler(data)

        super()._register(address, recording)


@pytest.fixture
def network():
    net = RecordingNetwork()
    yield net
    net.close()


class FanoutProbe(MicroProtocol):
    """Records the per-replica event stream at ORDER_FIRST (never halted)."""

    name = "FanoutProbe"

    def __init__(self):
        super().__init__()
        self.sends: list[int] = []
        self.successes: list[int] = []
        self.failures: list[int] = []

    def start(self) -> None:
        self.bind(EV_READY_TO_SEND, self.on_send, order=ORDER_FIRST)
        self.bind(EV_INVOKE_SUCCESS, self.on_success, order=ORDER_FIRST)
        self.bind(EV_INVOKE_FAILURE, self.on_failure, order=ORDER_FIRST)

    def on_send(self, occurrence) -> None:
        self.sends.append(occurrence.args[1])

    def on_success(self, occurrence) -> None:
        self.successes.append(occurrence.args[1])

    def on_failure(self, occurrence) -> None:
        self.failures.append(occurrence.args[1])


def _poll(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestWireDifferential:
    def test_async_sends_are_byte_identical_to_blocking_sends(
        self, platform, compiled_bank
    ):
        """``invoke_server_async`` must put exactly the frames on the wire
        that the blocking ``invoke_server`` it replaced would have sent.
        Middleware encoders carry per-connection state (GIOP message ids),
        so the differential drives two identically-constructed deployments
        — one per path — and compares their full frame streams."""

        def run_pass(pipelined: bool):
            network = RecordingNetwork()
            deployment = CqosDeployment(
                network, platform=platform, compiled=compiled_bank, request_timeout=10.0
            )
            try:
                deployment.add_replicas(
                    "acct", BankAccount, bank_interface(), replicas=3
                )
                stub = deployment.client_stub("acct", bank_interface())
                client_platform = stub._platform
                for server in (1, 2, 3):
                    client_platform.bind(server)  # warm outside the capture
                request = Request("acct", "get_balance", [])
                request.request_id = "diff-req-1"  # identical both passes
                network.start_capture()
                if pipelined:
                    values = [
                        client_platform.invoke_server_async(s, request).result(
                            timeout=5.0
                        )
                        for s in (1, 2, 3)
                    ]
                else:
                    values = [
                        client_platform.invoke_server(s, request) for s in (1, 2, 3)
                    ]
                return values, network.stop_capture()
            finally:
                deployment.close()

        sync_values, sync_frames = run_pass(pipelined=False)
        async_values, async_frames = run_pass(pipelined=True)
        assert sync_values == async_values == [0.0, 0.0, 0.0]
        assert set(sync_frames) == set(async_frames)
        for host, frames in sync_frames.items():
            assert async_frames[host] == frames, host

    def test_default_policy_preserves_event_semantics(self, deployment):
        """Under ``all`` (the default): one readyToSend per replica, one
        invoke event per reply, result from the first — the paper's
        ActiveRep observable behaviour, now over the pipelined fan-out."""
        deployment.add_replicas("acct", BankAccount, bank_interface(), replicas=3)
        probe = FanoutProbe()
        stub = deployment.client_stub(
            "acct",
            bank_interface(),
            client_micro_protocols=lambda: [ActiveRep(), probe],
        )
        stub.set_balance(25.0)
        assert sorted(probe.sends) == [1, 2, 3]
        # The request completes on the first reply; the rest still gather.
        assert _poll(lambda: len(probe.successes) + len(probe.failures) == 3)
        assert probe.failures == []
        assert sorted(probe.successes) == [1, 2, 3]
        assert stub.get_balance() == 25.0


class SlowBank(BankAccount):
    """A replica servant that straggles on every operation."""

    def __init__(self, delay: float):
        super().__init__()
        self._delay = delay

    def get_balance(self) -> float:
        time.sleep(self._delay)
        return super().get_balance()

    def deposit(self, amount: float) -> float:
        time.sleep(self._delay)
        return super().deposit(amount)


def _straggler_factory(delay: float, straggler_replica: int = 3):
    built = [0]

    def factory():
        built[0] += 1
        if built[0] == straggler_replica:
            return SlowBank(delay)
        return BankAccount()

    return factory


def _servant_balance(skeleton) -> float:
    return skeleton._platform.invoke_servant(Request("acct", "get_balance", []))


class TestQuorumOverTcp:
    STRAGGLE_S = 1.5

    @pytest.mark.parametrize(
        "policy, beats_straggler",
        [("quorum:2", True), ("quorum:3", False)],
        ids=["quorum:2-early", "quorum:3-waits"],
    )
    def test_quorum_two_of_three_returns_before_straggler(
        self, policy, beats_straggler
    ):
        """Two matching replies of three settle ``quorum:2`` while replica 3
        still sleeps; ``quorum:3`` needs the straggler's reply and cannot."""
        deployment = CqosDeployment(
            TcpNetwork(), "rmi", bank_compiled(), request_timeout=10.0
        )
        try:
            deployment.add_replicas(
                "acct",
                _straggler_factory(self.STRAGGLE_S),
                bank_interface(),
                replicas=3,
            )
            stub = deployment.client_stub(
                "acct",
                bank_interface(),
                client_micro_protocols=lambda: [ActiveRep(gather_policy=policy)],
            )
            started = time.monotonic()
            assert stub.get_balance() == 0.0
            elapsed = time.monotonic() - started
            assert (elapsed < self.STRAGGLE_S) == beats_straggler, (
                f"{policy} returned after {elapsed:.2f}s against a "
                f"{self.STRAGGLE_S}s straggler"
            )
        finally:
            deployment.close()


@pytest.mark.chaos
class TestChaosFanout:
    STRAGGLE_S = 1.5

    def _deploy(self):
        network = ChaosNetwork(TcpNetwork(), FaultPlan(seed=10))
        deployment = CqosDeployment(
            network, platform="rmi", compiled=bank_compiled(), request_timeout=15.0
        )
        return network, deployment

    def test_straggler_crash_mid_gather_exactly_once(self):
        network, deployment = self._deploy()
        try:
            skeletons = deployment.add_replicas(
                "acct",
                _straggler_factory(self.STRAGGLE_S),
                bank_interface(),
                replicas=3,
            )
            stub = deployment.client_stub(
                "acct",
                bank_interface(),
                client_micro_protocols=lambda: [ActiveRep(gather_policy="quorum:2")],
            )
            started = time.monotonic()
            stub.deposit(5.0)
            assert time.monotonic() - started < self.STRAGGLE_S
            # The straggler's branch is still in flight (abandoned locally);
            # crash its host before the reply can ever arrive.
            deployment.crash_replica("acct", 3)
            # Exactly-once on every live replica: 5.0, not 0.0 and not 10.0.
            assert _servant_balance(skeletons[0]) == 5.0
            assert _servant_balance(skeletons[1]) == 5.0
            # The quorum keeps answering with the straggler crashed: its
            # branch fails fast instead of blocking the gather.
            started = time.monotonic()
            assert stub.get_balance() == 5.0
            assert time.monotonic() - started < self.STRAGGLE_S
            deployment.recover_replica("acct", 3)
            stub.deposit(1.0)
            assert _servant_balance(skeletons[0]) == 6.0
            assert _servant_balance(skeletons[1]) == 6.0
        finally:
            deployment.close()

    def test_straggler_partition_mid_gather_heals(self):
        network, deployment = self._deploy()
        try:
            skeletons = deployment.add_replicas(
                "acct",
                _straggler_factory(self.STRAGGLE_S),
                bank_interface(),
                replicas=3,
            )
            stub = deployment.client_stub(
                "acct",
                bank_interface(),
                client_micro_protocols=lambda: [ActiveRep(gather_policy="quorum:2")],
            )
            stub.deposit(2.0)  # warm bindings; straggler branch abandoned
            straggler_host = deployment.replica_host_name("acct", 3)
            network.partition([[straggler_host]])
            started = time.monotonic()
            stub.deposit(2.0)
            assert time.monotonic() - started < self.STRAGGLE_S
            assert _servant_balance(skeletons[0]) == 4.0
            assert _servant_balance(skeletons[1]) == 4.0
            network.heal()
            assert stub.get_balance() == 4.0
        finally:
            deployment.close()

    def test_passive_forwarding_skips_crashed_backup(self):
        network, deployment = self._deploy()
        try:
            skeletons = deployment.add_replicas(
                "acct",
                BankAccount,
                bank_interface(),
                replicas=3,
                server_micro_protocols=lambda: [PassiveRepServer()],
            )
            stub = deployment.client_stub(
                "acct",
                bank_interface(),
                client_micro_protocols=lambda: [PassiveRep()],
            )
            stub.deposit(3.0)  # warm: primary executes, backups forwarded
            assert _poll(lambda: _servant_balance(skeletons[1]) == 3.0)
            assert _poll(lambda: _servant_balance(skeletons[2]) == 3.0)
            deployment.crash_replica("acct", 2)
            # The scattered forward to the crashed backup fails (swallowed:
            # recovery repairs it); the reply must NOT be lost on it.
            stub.deposit(4.0)
            assert _servant_balance(skeletons[0]) == 7.0  # primary, once
            assert _poll(lambda: _servant_balance(skeletons[2]) == 7.0)
        finally:
            deployment.close()
