"""Tests for the extensions beyond the paper's prototype.

Each extension is something the paper names as future work or an easy
addition: failure detection, request logging + recovery, total-order
coordinator failover, and dynamic (rBoot-style) client configuration.
"""

import time

import pytest

from repro.apps.bank import BankAccount, bank_interface
from repro.cactus.config import MicroProtocolSpec
from repro.core.client import SHARED_FAILED_SERVERS
from repro.qos import ActiveRep, FirstSuccess, PassiveRep, PassiveRepServer, TotalOrder
from repro.qos.fault_tolerance import FailureDetector, RequestLog, replay_log


class TestFailureDetector:
    def test_detects_crash_and_recovery(self, deployment):
        deployment.add_replicas("acct", BankAccount, bank_interface(), replicas=2)
        stub = deployment.client_stub(
            "acct",
            bank_interface(),
            client_micro_protocols=lambda: [FailureDetector(period=0.05)],
        )
        client = stub.cactus_client
        detector: FailureDetector = client.micro_protocol("FailureDetector")
        assert detector.probe_now() == set()
        deployment.crash_replica("acct", 2)
        assert detector.probe_now() == {2}
        assert client.shared.get(SHARED_FAILED_SERVERS) == {2}
        deployment.recover_replica("acct", 2)
        assert detector.probe_now() == set()

    def test_periodic_probing_updates_view(self, deployment):
        deployment.add_replicas("acct", BankAccount, bank_interface(), replicas=2)
        stub = deployment.client_stub(
            "acct",
            bank_interface(),
            client_micro_protocols=lambda: [FailureDetector(period=0.05)],
        )
        client = stub.cactus_client
        deployment.crash_replica("acct", 1)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if client.shared.get(SHARED_FAILED_SERVERS) == {1}:
                break
            time.sleep(0.02)
        assert client.shared.get(SHARED_FAILED_SERVERS) == {1}

    def test_proactive_failover_with_passive_rep(self, deployment):
        deployment.add_replicas(
            "acct",
            BankAccount,
            bank_interface(),
            replicas=2,
            server_micro_protocols=lambda: [PassiveRepServer()],
        )
        stub = deployment.client_stub(
            "acct",
            bank_interface(),
            client_micro_protocols=lambda: [PassiveRep(), FailureDetector(period=0.05)],
        )
        stub.set_balance(8.0)
        deployment.crash_replica("acct", 1)
        stub.cactus_client.micro_protocol("FailureDetector").probe_now()
        # The next request goes straight to replica 2; no failed attempt.
        assert stub.get_balance() == 8.0


class TestRequestLogRecovery:
    def test_log_and_replay(self, deployment):
        store = []
        deployment.add_replicas(
            "acct",
            BankAccount,
            bank_interface(),
            server_micro_protocols=lambda: [RequestLog(store=store)],
        )
        stub = deployment.client_stub("acct", bank_interface())
        stub.set_balance(10.0)
        stub.deposit(5.0)
        stub.get_balance()  # read: not logged
        assert len(store) == 2

        # Recover onto a brand-new replica of the same object.
        recovered = deployment.add_replicas(
            "acct2",
            BankAccount,
            bank_interface(),
            server_micro_protocols=lambda: [RequestLog(store=[])],
        )[0]
        count = replay_log(store, recovered.cactus_server)
        assert count == 2
        from repro.core.request import Request

        balance = recovered._platform.invoke_servant(Request("acct2", "get_balance", []))
        assert balance == 15.0


class TestTotalOrderFailover:
    def test_sequencer_failover(self, deployment):
        """Crash the coordinator; the lowest live replica takes over."""
        skeletons = deployment.add_replicas(
            "acct",
            BankAccount,
            bank_interface(),
            replicas=3,
            server_micro_protocols=lambda: [TotalOrder(order_timeout=0.2)],
        )
        stub = deployment.client_stub(
            "acct",
            bank_interface(),
            client_micro_protocols=lambda: [ActiveRep(), FirstSuccess()],
        )
        stub.set_balance(1.0)
        deployment.crash_replica("acct", 1)
        # Requests still complete: replica 2 becomes the sequencer after
        # the order-timeout probe discovers replica 1 dead.
        stub.deposit(2.0)
        assert stub.get_balance() == 3.0
        assert skeletons[1].cactus_server.micro_protocol("TotalOrder").sequencer == 2


class TestDynamicClientConfiguration:
    def test_client_config_from_service(self, deployment, network):
        """The client's micro-protocols come from a configuration service."""
        from repro.cactus.dynamic import ConfigurationService, RBoot

        deployment.add_replicas("acct", BankAccount, bank_interface(), replicas=3)
        service = ConfigurationService(network)
        try:
            # ClientBase itself comes from the deployment's with_base
            # wrapping; the service defines only the QoS configuration.
            service.define(
                "alice",
                "acct",
                [MicroProtocolSpec("ActiveRep"), MicroProtocolSpec("FirstSuccess")],
            )
            source = ConfigurationService.source(
                network, "dyn-client", "config-service", "alice", "acct"
            )
            stub = deployment.client_stub(
                "acct",
                bank_interface(),
                client_micro_protocols=lambda: [RBoot(source)],
            )
            client = stub.cactus_client
            # RBoot loaded the real configuration at creation time.
            names = client.micro_protocol_names()
            assert "ActiveRep" in names and "FirstSuccess" in names
            stub.set_balance(6.0)
            assert stub.get_balance() == 6.0
        finally:
            service.close()
