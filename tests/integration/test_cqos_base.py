"""Integration tests for the CQoS interception ladder (Table 1's rungs).

Each rung of the paper's overhead ladder must be *functional*, not just
measurable: original platform, +CQoS stub (pass-through), +CQoS skeleton
(pass-through), +Cactus server, +Cactus client.
"""

import copy

import pytest

from repro.apps.bank import BankAccount, bank_compiled, bank_interface


class TestLadder:
    def test_rung0_original_platform(self, deployment):
        deployment.deploy_plain_replica("acct", BankAccount(balance=1.0), bank_interface())
        stub = deployment.plain_stub("acct", bank_interface())
        stub.set_balance(10.0)
        assert stub.get_balance() == 10.0

    def test_rung1_cqos_stub_passthrough(self, deployment):
        # CQoS stub targets the *original* servant (no skeleton).
        deployment.deploy_plain_replica("acct", BankAccount(), bank_interface())
        stub = deployment.client_stub("acct", bank_interface(), with_cactus_client=False)
        stub.set_balance(11.0)
        assert stub.get_balance() == 11.0
        assert stub.cactus_client is None

    def test_rung2_cqos_skeleton_passthrough(self, deployment):
        deployment.add_replicas(
            "acct", BankAccount, bank_interface(), server_micro_protocols=None
        )
        stub = deployment.client_stub("acct", bank_interface(), with_cactus_client=False)
        stub.set_balance(12.0)
        assert stub.get_balance() == 12.0

    def test_rung3_cactus_server(self, deployment):
        deployment.add_replicas("acct", BankAccount, bank_interface())
        stub = deployment.client_stub("acct", bank_interface(), with_cactus_client=False)
        stub.set_balance(13.0)
        assert stub.get_balance() == 13.0

    def test_rung4_full_cqos(self, deployment):
        deployment.add_replicas("acct", BankAccount, bank_interface())
        stub = deployment.client_stub("acct", bank_interface())
        stub.set_balance(14.0)
        assert stub.get_balance() == 14.0
        assert stub.cactus_client is not None


class TestTransparency:
    def test_stub_interface_matches_original(self, deployment):
        """The CQoS stub exposes exactly the original application interface."""
        deployment.add_replicas("acct", BankAccount, bank_interface())
        stub = deployment.client_stub("acct", bank_interface())
        for operation in bank_interface().operations:
            assert callable(getattr(stub, operation)), operation

    def test_application_exceptions_cross_full_stack(self, deployment):
        deployment.add_replicas("acct", BankAccount, bank_interface())
        stub = deployment.client_stub("acct", bank_interface())
        exc_cls = bank_compiled().exceptions["bank::InsufficientFunds"]
        with pytest.raises(exc_cls) as excinfo:
            stub.withdraw(5.0)
        assert excinfo.value.available == 0.0

    def test_arity_errors_are_local(self, deployment):
        deployment.add_replicas("acct", BankAccount, bank_interface())
        stub = deployment.client_stub("acct", bank_interface())
        with pytest.raises(TypeError):
            stub.set_balance()

    def test_compound_values_cross_stack(self, deployment):
        deployment.add_replicas("acct", BankAccount, bank_interface())
        stub = deployment.client_stub("acct", bank_interface())
        stub.deposit(5.0)
        stub.withdraw(2.0)
        history = stub.history(10)
        assert [h["kind"] for h in history] == ["deposit", "withdraw"]

    def test_multiple_objects_independent(self, deployment):
        deployment.add_replicas("a1", lambda: BankAccount(balance=1.0), bank_interface())
        deployment.add_replicas("a2", lambda: BankAccount(balance=2.0), bank_interface())
        stub1 = deployment.client_stub("a1", bank_interface())
        stub2 = deployment.client_stub("a2", bank_interface())
        stub1.set_balance(100.0)
        assert stub2.get_balance() == 2.0

    def test_one_stub_class_per_interface_object(self, deployment):
        """Stubs of one ``InterfaceDef`` share one generated class; an equal
        but distinct interface object gets its own."""
        deployment.add_replicas("a1", BankAccount, bank_interface())
        deployment.add_replicas("a2", BankAccount, bank_interface())
        stub1 = deployment.client_stub("a1", bank_interface())
        stub2 = deployment.client_stub("a2", bank_interface())
        assert type(stub1) is type(stub2)
        other = copy.copy(bank_interface())
        stub3 = deployment.client_stub("a1", other)
        assert type(stub3) is not type(stub1)
        assert type(stub3).__idl_interface__ is other
        stub3.set_balance(3.0)
        assert stub1.get_balance() == 3.0

    def test_concurrent_clients_one_server(self, deployment):
        import threading

        deployment.add_replicas("acct", BankAccount, bank_interface())
        errors = []

        def worker(i):
            try:
                stub = deployment.client_stub("acct", bank_interface())
                for _ in range(10):
                    stub.deposit(1.0)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        checker = deployment.client_stub("acct", bank_interface())
        assert checker.get_balance() == 40.0


class TestAsyncExtension:
    def test_cactus_request_async(self, deployment, bank_iface):
        from repro.core.events import EV_NEW_REQUEST
        from repro.core.request import Request

        deployment.add_replicas("acct", BankAccount, bank_iface)
        stub = deployment.client_stub("acct", bank_iface)
        client = stub.cactus_client
        request = Request("acct", "deposit", [7.0])
        client.raise_event(EV_NEW_REQUEST, request, mode="async")
        assert request.wait(10.0) == 7.0
