"""Building a QoS configuration from a :class:`Combination`: the rules a
built configuration is held to, and a built configuration deployed end to
end."""

import pytest

from repro.qos.combinations import (
    FT_ACTIVE_VOTE,
    FT_PASSIVE,
    Combination,
    protocol_specs,
    validate_configuration,
)
from repro.util.errors import ConfigurationError

KEY = "0123456789abcdef"
PARAMS = {"SignedIntegrity": {"key_hex": KEY}, "SignedIntegrityServer": {"key_hex": KEY}}


class TestBuilder:
    def test_acceptance_requires_active(self):
        passive = Combination(FT_PASSIVE)
        with pytest.raises(ConfigurationError, match="MajorityVote needs .* ActiveRep"):
            validate_configuration(
                passive.client_protocols() + ("MajorityVote",), passive.server_protocols()
            )

    def test_total_order_requires_active(self):
        unreplicated = Combination(security=("integrity",))
        with pytest.raises(ConfigurationError, match="TotalOrder .* requires ActiveRep"):
            validate_configuration(
                unreplicated.client_protocols(),
                unreplicated.server_protocols() + ("TotalOrder",),
            )


class TestBuilderEndToEnd:
    def test_built_configuration_deploys(self):
        from repro.apps.bank import BankAccount, bank_compiled, bank_interface
        from repro.core.service import CqosDeployment
        from repro.net.memory import InMemoryNetwork

        combo = Combination(FT_ACTIVE_VOTE, ("integrity",))
        validate_configuration(combo.client_protocols(), combo.server_protocols())
        deployment = CqosDeployment(
            InMemoryNetwork(), "rmi", bank_compiled(), request_timeout=10.0
        )
        try:
            deployment.add_replicas(
                "acct",
                BankAccount,
                bank_interface(),
                replicas=3,
                server_micro_protocols=protocol_specs(combo.server_protocols(), PARAMS),
            )
            stub = deployment.client_stub(
                "acct",
                bank_interface(),
                client_micro_protocols=protocol_specs(combo.client_protocols(), PARAMS),
            )
            stub.set_balance(3.0)
            assert stub.get_balance() == 3.0
        finally:
            deployment.close()
