"""The existing failover suites, re-run over chaos-wrapped real TCP.

The in-memory failover tests inject faults through the network fixture's
``set_loss``/``partition``/``crash`` surface.  :class:`ChaosNetwork` gives
:class:`TcpNetwork` the same surface, so the suites run unchanged over real
kernel sockets by overriding the ``network`` fixture and subclassing — every
inherited test exercises loss, partitions, crashes and failover with actual
connection resets and reconnects underneath.

Marked ``chaos`` so CI can schedule these separately from tier-1.
"""

import pytest

from repro.apps.bank import BankAccount, bank_interface
from repro.core.service import CqosDeployment
from repro.net.chaos import ChaosNetwork, FaultPlan
from repro.net.tcp import TcpNetwork
from repro.qos import Retransmit, RetryBackoff

from tests.integration import test_failure_injection as _failure_injection
from tests.integration import test_fault_tolerance as _fault_tolerance

pytestmark = pytest.mark.chaos


@pytest.fixture
def network():
    """Chaos-wrapped TCP instead of the in-memory network (no faults until
    a test injects them through the parity API)."""
    net = ChaosNetwork(TcpNetwork())
    yield net
    net.close()


@pytest.fixture(params=["corba", "rmi"])
def platform(request):
    return request.param


@pytest.fixture
def deployment(network, platform, compiled_bank):
    dep = CqosDeployment(
        network, platform=platform, compiled=compiled_bank, request_timeout=15.0
    )
    yield dep
    dep.close()


# -- the in-memory failover suites, inherited verbatim ----------------------

class TestCrashRecoveryOverChaosTcp(_failure_injection.TestCrashRecovery):
    pass


class TestMessageLossOverChaosTcp(_failure_injection.TestMessageLoss):
    pass


class TestPartitionsOverChaosTcp(_failure_injection.TestPartitions):
    pass


class TestActiveRepOverChaosTcp(_fault_tolerance.TestActiveRep):
    pass


class TestAcceptanceOverChaosTcp(_fault_tolerance.TestAcceptance):
    pass


class TestPassiveRepOverChaosTcp(_fault_tolerance.TestPassiveRep):
    pass


# -- chaos-plan-specific coverage -------------------------------------------

class TestFaultPlanOverTcp:
    def test_retry_protocols_ride_out_a_seeded_plan(self, deployment, network):
        """A seeded lossy/laggy plan is absorbed by the retry protocol."""
        deployment.add_replicas("acct", BankAccount, bank_interface())
        stub = deployment.client_stub(
            "acct",
            bank_interface(),
            client_micro_protocols=lambda: [
                RetryBackoff(max_attempts=8, base_delay=0.002, max_delay=0.02, seed=3)
            ],
        )
        stub.set_balance(9.0)  # warm up fault-free
        network.set_plan(
            FaultPlan(
                seed=2024,
                loss=0.15,
                latency=0.001,
                jitter=0.002,
                exempt_hosts=frozenset({"naming", "rmi-registry"}),
            )
        )
        for _ in range(15):
            assert stub.get_balance() == 9.0
        assert network.stats()["lost"] > 0  # the plan actually injected

    def test_legacy_retransmit_also_survives_chaos_tcp(self, deployment, network):
        deployment.add_replicas("acct", BankAccount, bank_interface())
        stub = deployment.client_stub(
            "acct",
            bank_interface(),
            client_micro_protocols=lambda: [Retransmit(max_attempts=30)],
        )
        stub.set_balance(1.5)
        network.set_plan(
            FaultPlan(
                seed=5,
                loss=0.2,
                exempt_hosts=frozenset({"naming", "rmi-registry"}),
            )
        )
        for _ in range(10):
            assert stub.get_balance() == 1.5

    def test_scheduled_crash_recover_cycle(self, deployment, network):
        """A FaultPlan schedule drives the deployment's crash injection."""
        deployment.add_replicas("acct", BankAccount, bank_interface())
        stub = deployment.client_stub(
            "acct",
            bank_interface(),
            client_micro_protocols=lambda: [
                RetryBackoff(max_attempts=4, base_delay=0.01, jitter=False)
            ],
        )
        stub.set_balance(7.0)
        host = deployment._replica_hosts[("acct", 1)]
        network.set_plan(
            FaultPlan(seed=0, schedule=((0.0, "crash", host), (0.3, "recover", host)))
        )
        network.start()
        with pytest.raises(Exception):
            stub.get_balance()  # the scheduled crash has fired
        import time

        time.sleep(0.35)  # let the scheduled recovery come due
        stub._platform.bind(1)  # the paper's rebind-after-recovery step
        assert stub.get_balance() == 7.0
        stats = network.stats()
        assert stats["crashes"] == 1 and stats["recoveries"] == 1
