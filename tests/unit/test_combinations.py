"""Unit tests for the composability matrix (paper §3.5 claims)."""

import pytest

from repro.cactus.config import MicroProtocolSpec, build_micro_protocols
from repro.qos.combinations import (
    FT_ACTIVE_VOTE_TOTAL,
    FT_COMBINATIONS,
    FT_PASSIVE,
    Combination,
    all_combinations,
    count_combinations,
    protocol_specs,
    validate_configuration,
)
from repro.util.errors import ConfigurationError


class TestPaperClaims:
    def test_five_fault_tolerance_combinations(self):
        assert len(FT_COMBINATIONS) == 5

    def test_over_100_combinations(self):
        # The paper: "configured in over 100 different combinations".
        assert count_combinations() > 100
        assert count_combinations() == 6 * 8 * 4  # (1+5) x 2^3 x (1+3)

    def test_all_combinations_are_unique(self):
        combos = all_combinations()
        assert len({c.label() for c in combos}) == len(combos)

    def test_every_combination_validates(self):
        for combo in all_combinations():
            validate_configuration(combo.client_protocols(), combo.server_protocols())

    def test_combination_protocol_names_exist(self):
        from repro.cactus.config import micro_protocol_registry

        registry = micro_protocol_registry()
        for combo in all_combinations():
            for name in combo.client_protocols() + combo.server_protocols():
                assert name in registry, name


class TestStacks:
    """A matrix point's stacks, and its configuration with parameters."""

    def test_empty_combination(self):
        assert Combination().client_protocols() == ()
        assert Combination().server_protocols() == ()

    def test_full_stack(self):
        combo = Combination(FT_ACTIVE_VOTE_TOTAL, ("privacy", "integrity", "access"), "timed")
        assert combo.client_protocols() == (
            "ActiveRep",
            "MajorityVote",
            "DesPrivacy",
            "SignedIntegrity",
        )
        assert combo.server_protocols() == (
            "TotalOrder",
            "DesPrivacyServer",
            "SignedIntegrityServer",
            "AccessControl",
            "TimedSched",
        )

    def test_passive_pairs_automatically(self):
        assert Combination(FT_PASSIVE).client_protocols() == ("PassiveRep",)
        assert Combination(FT_PASSIVE).server_protocols() == ("PassiveRepServer",)

    def test_parameters_are_given_by_name_and_copied(self):
        params = {"TimedSched": {"period": 0.05}}
        specs = protocol_specs(["PrioritySched", "TimedSched"], params)
        assert specs == [
            MicroProtocolSpec("PrioritySched"),
            MicroProtocolSpec("TimedSched", {"period": 0.05}),
        ]
        specs[1].params["period"] = 9.0
        assert params == {"TimedSched": {"period": 0.05}}

    def test_a_configuration_builds_fresh_instances(self):
        specs = protocol_specs(Combination(FT_PASSIVE).server_protocols(), {})
        first, second = build_micro_protocols(specs), build_micro_protocols(specs)
        assert type(first[0]).__name__ == "PassiveRepServer"
        assert first[0] is not second[0]


class TestValidation:
    def test_active_and_passive_conflict(self):
        with pytest.raises(ConfigurationError, match="mutually exclusive"):
            validate_configuration(["ActiveRep", "PassiveRep"], [])

    def test_two_acceptance_protocols_conflict(self):
        with pytest.raises(ConfigurationError, match="acceptance"):
            validate_configuration(["ActiveRep", "FirstSuccess", "MajorityVote"], [])

    def test_acceptance_requires_active(self):
        with pytest.raises(ConfigurationError, match="ActiveRep"):
            validate_configuration(["MajorityVote"], [])

    def test_total_order_requires_active(self):
        with pytest.raises(ConfigurationError, match="ActiveRep"):
            validate_configuration([], ["TotalOrder"])

    def test_queue_schedulers_conflict(self):
        with pytest.raises(ConfigurationError, match="mutually exclusive"):
            validate_configuration([], ["QueuedSched", "TimedSched"])

    def test_priority_composes_with_queued(self):
        validate_configuration([], ["PrioritySched", "QueuedSched"])

    def test_privacy_must_be_paired(self):
        with pytest.raises(ConfigurationError, match="DesPrivacyServer"):
            validate_configuration(["DesPrivacy"], [])
        with pytest.raises(ConfigurationError, match="DesPrivacy"):
            validate_configuration([], ["DesPrivacyServer"])

    def test_integrity_must_be_paired(self):
        with pytest.raises(ConfigurationError, match="SignedIntegrityServer"):
            validate_configuration(["SignedIntegrity"], [])

    def test_passive_must_be_paired(self):
        with pytest.raises(ConfigurationError, match="PassiveRepServer"):
            validate_configuration(["PassiveRep"], [])

    def test_valid_full_stack(self):
        validate_configuration(
            ["ActiveRep", "MajorityVote", "DesPrivacy", "SignedIntegrity"],
            [
                "TotalOrder",
                "DesPrivacyServer",
                "SignedIntegrityServer",
                "AccessControl",
                "TimedSched",
            ],
        )

    def test_cache_with_privacy_but_no_integrity(self):
        with pytest.raises(ConfigurationError, match="add SignedIntegrity"):
            validate_configuration(["DesPrivacy", "ClientCache"], ["DesPrivacyServer"])
        # Adding the integrity pair resolves it, as the message says.
        validate_configuration(
            ["DesPrivacy", "SignedIntegrity", "ClientCache"],
            ["DesPrivacyServer", "SignedIntegrityServer"],
        )

    def test_cache_bypasses_replication_guarantee(self):
        with pytest.raises(ConfigurationError, match="bypassing the replication"):
            validate_configuration(["ActiveRep", "MajorityVote", "ClientCache"], [])

    def test_balancer_conflicts_with_replication_assigners(self):
        with pytest.raises(ConfigurationError, match="one assignment policy"):
            validate_configuration(["PassiveRep", "LoadBalance"], ["PassiveRepServer"])

    def test_orphan_invalidator_rejected(self):
        with pytest.raises(ConfigurationError, match="no cache to invalidate"):
            validate_configuration([], ["CacheInvalidator"])
