"""Failure-injection tests: crashes, recovery, message loss, partitions."""

import pytest

from repro.apps.bank import BankAccount, bank_interface
from repro.qos import ActiveRep, FirstSuccess, PassiveRep, PassiveRepServer, Retransmit
from repro.util.errors import CommunicationError, ServerFailedError
from tests.integration.test_fault_tolerance import _probe_request, _quiesce


class TestCrashRecovery:
    def test_rebind_after_recovery(self, deployment):
        deployment.add_replicas("acct", BankAccount, bank_interface())
        stub = deployment.client_stub("acct", bank_interface())
        stub.set_balance(5.0)
        deployment.crash_replica("acct", 1)
        with pytest.raises(Exception):
            stub.get_balance()
        deployment.recover_replica("acct", 1)
        # The platform's bind() clears failure knowledge on retry paths; a
        # fresh call must succeed again (in-memory servers keep state).
        platform = stub._platform
        platform.bind(1)
        assert stub.get_balance() == 5.0

    def test_passive_rep_survives_primary_crash_mid_sequence(self, deployment):
        deployment.add_replicas(
            "acct",
            BankAccount,
            bank_interface(),
            replicas=3,
            server_micro_protocols=lambda: [PassiveRepServer()],
        )
        stub = deployment.client_stub(
            "acct", bank_interface(), client_micro_protocols=lambda: [PassiveRep()]
        )
        for i in range(3):
            stub.deposit(1.0)
        deployment.crash_replica("acct", 1)
        for i in range(3):
            stub.deposit(1.0)
        assert stub.get_balance() == 6.0


class TestMessageLoss:
    def test_retransmit_recovers_from_loss(self, deployment, network):
        deployment.add_replicas("acct", BankAccount, bank_interface())
        stub = deployment.client_stub(
            "acct",
            bank_interface(),
            client_micro_protocols=lambda: [Retransmit(max_attempts=50)],
        )
        stub.set_balance(1.0)  # bind and warm up without loss
        network.set_loss(0.3, seed=7)
        try:
            for _ in range(10):
                assert stub.get_balance() == 1.0
        finally:
            network.set_loss(0.0)

    def test_without_retransmit_loss_surfaces(self, deployment, network):
        deployment.add_replicas("acct", BankAccount, bank_interface())
        stub = deployment.client_stub("acct", bank_interface())
        stub.set_balance(1.0)
        network.set_loss(1.0, seed=3)
        try:
            with pytest.raises(CommunicationError):
                stub.get_balance()
        finally:
            network.set_loss(0.0)

    def test_retransmit_gives_up_after_max_attempts(self, deployment, network):
        deployment.add_replicas("acct", BankAccount, bank_interface())
        stub = deployment.client_stub(
            "acct",
            bank_interface(),
            client_micro_protocols=lambda: [Retransmit(max_attempts=3)],
        )
        stub.set_balance(1.0)
        network.set_loss(1.0, seed=5)
        try:
            with pytest.raises(CommunicationError):
                stub.get_balance()
        finally:
            network.set_loss(0.0)

    def test_retransmit_does_not_retry_crashed_host(self, deployment, network):
        skeletons = deployment.add_replicas("acct", BankAccount, bank_interface(), replicas=2)
        stub = deployment.client_stub(
            "acct",
            bank_interface(),
            client_micro_protocols=lambda: [
                Retransmit(max_attempts=5),
                ActiveRep(),
                FirstSuccess(),
            ],
        )
        stub.set_balance(2.0)
        # FirstSuccess returns on the first reply, and replica 2 may not have
        # applied the write yet: left unwaited, the read below can reach it
        # first, over TCP, and answer 0.0.  Wait until both replicas hold it.
        balances = _quiesce(
            skeletons, lambda s: s._platform.invoke_servant(_probe_request("get_balance"))
        )
        assert balances == [2.0, 2.0]
        deployment.crash_replica("acct", 1)
        # ServerFailedError is not transient: failover logic (FirstSuccess
        # accepting replica 2) must answer promptly, not retry replica 1.
        assert stub.get_balance() == 2.0


class TestPartitions:
    def test_client_partitioned_from_servers(self, deployment, network):
        deployment.add_replicas("acct", BankAccount, bank_interface())
        stub = deployment.client_stub(
            "acct", bank_interface(), host_name="isolated-client"
        )
        stub.set_balance(3.0)
        network.partition([["isolated-client"], ["acct-server-1", "naming", "rmi-registry"]])
        with pytest.raises(CommunicationError):
            stub.get_balance()
        network.heal()
        assert stub.get_balance() == 3.0

    def test_active_rep_with_partitioned_minority(self, deployment, network):
        deployment.add_replicas("acct", BankAccount, bank_interface(), replicas=3)
        stub = deployment.client_stub(
            "acct",
            bank_interface(),
            client_micro_protocols=lambda: [ActiveRep(), FirstSuccess()],
            host_name="the-client",
        )
        stub.set_balance(4.0)
        # Cut replica 3 off from everyone else.
        network.partition(
            [
                ["the-client", "acct-server-1", "acct-server-2", "naming", "rmi-registry"],
                ["acct-server-3"],
            ]
        )
        assert stub.get_balance() == 4.0
        network.heal()
