"""Unit tests for the QosBuilder configuration tool."""

import pytest

from repro.cactus.config import parse_config_text
from repro.qos.builder import QosBuilder, QosSpec
from repro.util.errors import ConfigurationError

KEY = "0123456789abcdef"


class TestBuilder:
    def test_empty_build(self):
        spec = QosBuilder().build()
        assert spec.client_specs == [] and spec.server_specs == []

    def test_full_stack(self):
        spec = (
            QosBuilder()
            .fault_tolerance("active", acceptance="vote", total_order=True)
            .privacy(key_hex=KEY)
            .integrity(key_hex=KEY)
            .access_control(acl={"set_balance": ["boss"]})
            .timeliness("timed", period=0.05, high_rate_threshold=2)
            .build()
        )
        assert [s.name for s in spec.client_specs] == [
            "ActiveRep",
            "MajorityVote",
            "DesPrivacy",
            "SignedIntegrity",
        ]
        assert [s.name for s in spec.server_specs] == [
            "TotalOrder",
            "DesPrivacyServer",
            "SignedIntegrityServer",
            "AccessControl",
            "TimedSched",
        ]

    def test_passive_pairs_automatically(self):
        spec = QosBuilder().fault_tolerance("passive").build()
        assert [s.name for s in spec.client_specs] == ["PassiveRep"]
        assert [s.name for s in spec.server_specs] == ["PassiveRepServer"]

    def test_factories_build_fresh_instances(self):
        spec = QosBuilder().fault_tolerance("passive").build()
        first = spec.server_factory()()
        second = spec.server_factory()()
        assert first[0] is not second[0]
        assert type(first[0]).__name__ == "PassiveRepServer"

    def test_config_text_roundtrips(self):
        spec = (
            QosBuilder()
            .fault_tolerance("active", acceptance="success")
            .timeliness("queued", high_threshold=7)
            .build()
        )
        reparsed = parse_config_text(spec.server_config_text())
        assert [s.name for s in reparsed] == ["QueuedSched"]
        assert reparsed[0].params == {"high_threshold": 7}
        client_reparsed = parse_config_text(spec.client_config_text())
        assert [s.name for s in client_reparsed] == ["ActiveRep", "FirstSuccess"]

    def test_acceptance_requires_active(self):
        with pytest.raises(ConfigurationError):
            QosBuilder().fault_tolerance("passive", acceptance="vote")

    def test_total_order_requires_active(self):
        with pytest.raises(ConfigurationError):
            QosBuilder().fault_tolerance("none", total_order=True)

    def test_unknown_styles_rejected(self):
        with pytest.raises(ConfigurationError):
            QosBuilder().fault_tolerance("quantum")
        with pytest.raises(ConfigurationError):
            QosBuilder().timeliness("psychic")

    def test_extra_escape_hatch(self):
        spec = QosBuilder().extra("client", "Retransmit", max_attempts=5).build()
        assert spec.client_specs[0].name == "Retransmit"
        assert spec.client_specs[0].params == {"max_attempts": 5}
        with pytest.raises(ConfigurationError):
            QosBuilder().extra("sideways", "Retransmit")

    def test_order_timeout_parameter(self):
        spec = (
            QosBuilder()
            .fault_tolerance("active", total_order=True, order_timeout=0.5)
            .build()
        )
        total = [s for s in spec.server_specs if s.name == "TotalOrder"][0]
        assert total.params == {"order_timeout": 0.5}


class TestBuilderEndToEnd:
    def test_built_configuration_deploys(self):
        from repro.apps.bank import BankAccount, bank_compiled, bank_interface
        from repro.core.service import CqosDeployment
        from repro.net.memory import InMemoryNetwork

        spec = (
            QosBuilder()
            .fault_tolerance("active", acceptance="vote")
            .integrity(key_hex=KEY)
            .build()
        )
        deployment = CqosDeployment(
            InMemoryNetwork(), "rmi", bank_compiled(), request_timeout=10.0
        )
        try:
            deployment.add_replicas(
                "acct",
                BankAccount,
                bank_interface(),
                replicas=3,
                server_micro_protocols=spec.server_factory(),
            )
            stub = deployment.client_stub(
                "acct", bank_interface(), client_micro_protocols=spec.client_factory()
            )
            stub.set_balance(3.0)
            assert stub.get_balance() == 3.0
        finally:
            deployment.close()


class TestOverloadDeclarations:
    """The builder's SLO surface (overload-protection stack)."""

    def test_slo_assembles_the_admission_stack(self):
        spec = (
            QosBuilder()
            .slo(slo_p99=0.25, max_inflight=32, shed_policy="low-priority-first")
            .build()
        )
        assert [s.name for s in spec.client_specs] == ["DeadlineBudget"]
        assert [s.name for s in spec.server_specs] == ["DeadlineShed", "AdmissionControl"]
        budget = spec.client_specs[0]
        assert budget.params == {"budget": 0.25}
        admission = spec.server_specs[1]
        assert admission.params["max_concurrent"] == 32
        assert admission.params["deadline_aware"] is True
        assert admission.params["exempt_high_priority"] is True

    def test_full_overload_stack_composition_order(self):
        spec = (
            QosBuilder()
            .slo(slo_p99=0.5, max_rate=100.0, burst=20.0)
            .caching(read_operations=["get_balance"], ttl=0.2)
            .load_balance(poll_interval=1.0, seed=3)
            .build()
        )
        # DESIGN.md §12: budget -> cache -> balancer on the client,
        # shed -> admission -> invalidator -> reporter on the server.
        assert [s.name for s in spec.client_specs] == [
            "DeadlineBudget",
            "ClientCache",
            "LoadBalance",
        ]
        assert [s.name for s in spec.server_specs] == [
            "DeadlineShed",
            "AdmissionControl",
            "CacheInvalidator",
            "LoadReporter",
        ]

    def test_unknown_shed_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="shed_policy"):
            QosBuilder().slo(shed_policy="coin-flip")

    def test_deadline_shed_policy_requires_p99(self):
        with pytest.raises(ConfigurationError, match="requires slo_p99"):
            QosBuilder().slo(shed_policy="deadline")

    def test_stale_while_shedding_requires_declared_slo(self):
        with pytest.raises(ConfigurationError, match="slo"):
            QosBuilder().caching(
                read_operations=["get_balance"], stale_while_shedding=True
            )


class TestIncoherentOverloadCombos:
    """The dispatch-plan validator statically rejects incoherent stacks
    with actionable messages (what is wrong + what to change)."""

    def test_cache_with_privacy_but_no_integrity(self):
        with pytest.raises(ConfigurationError, match="add .integrity"):
            (
                QosBuilder()
                .privacy(key_hex=KEY)
                .caching(read_operations=["get_balance"])
                .build()
            )
        # Adding the integrity protocol resolves it, as the message says.
        spec = (
            QosBuilder()
            .privacy(key_hex=KEY)
            .integrity(key_hex=KEY)
            .caching(read_operations=["get_balance"])
            .build()
        )
        assert "ClientCache" in [s.name for s in spec.client_specs]

    def test_cache_bypasses_replication_guarantee(self):
        with pytest.raises(ConfigurationError, match="bypassing the replication"):
            (
                QosBuilder()
                .fault_tolerance("active", acceptance="vote")
                .caching(read_operations=["get_balance"])
                .build()
            )

    def test_balancer_conflicts_with_replication_assigners(self):
        with pytest.raises(ConfigurationError, match="one assignment policy"):
            QosBuilder().fault_tolerance("passive").load_balance().build()

    def test_orphan_invalidator_rejected(self):
        with pytest.raises(ConfigurationError, match="no cache to invalidate"):
            QosBuilder().extra("server", "CacheInvalidator").build()


class TestPlacementDeclarations:
    """Replica placement as a QoS attribute (PR 8, sharded deployments)."""

    def test_placement_lands_on_the_sealed_spec(self):
        spec = QosBuilder().placement(replication_factor=3, policy="spread").build()
        assert spec.placement is not None
        assert spec.placement.replication_factor == 3
        assert spec.placement.policy == "spread"

    def test_sparse_logical_ids_travel_through(self):
        spec = (
            QosBuilder()
            .placement(replication_factor=2, logical_ids=(3, 7))
            .build()
        )
        assert spec.placement.ids() == (3, 7)

    def test_replication_needs_at_least_two_replicas(self):
        with pytest.raises(ConfigurationError, match="at\n?\\s*least 2 replicas"):
            (
                QosBuilder()
                .fault_tolerance("passive")
                .placement(replication_factor=1)
                .build()
            )

    def test_voting_needs_at_least_three_replicas(self):
        with pytest.raises(ConfigurationError, match="replication_factor >= 3"):
            (
                QosBuilder()
                .fault_tolerance("active", acceptance="vote")
                .placement(replication_factor=2)
                .build()
            )

    def test_invalid_policy_rejected_at_declaration(self):
        with pytest.raises(ConfigurationError, match="placement policy"):
            QosBuilder().placement(policy="bogus")
