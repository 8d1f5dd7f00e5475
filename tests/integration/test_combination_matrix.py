"""End-to-end smoke of the configuration matrix (paper §3.5).

The unit tests enumerate and validate all 192 combinations; here a
representative sample actually *runs*: every fault-tolerance combination,
with and without the full security bundle and a timeliness protocol, on
each of the three platforms — the paper's claim that the attribute families compose "in
any combination", executed.
"""

import pytest

from repro.apps.bank import BankAccount, bank_interface
from repro.qos.combinations import (
    FT_COMBINATIONS,
    Combination,
    protocol_specs,
    validate_configuration,
)
from repro.qos.timeliness import HIGH_PRIORITY

KEY = "0123456789abcdef"

#: Parameters for protocols that require them.
PROTOCOL_PARAMS = {
    "DesPrivacy": {"key_hex": KEY},
    "DesPrivacyServer": {"key_hex": KEY},
    "SignedIntegrity": {"key_hex": KEY},
    "SignedIntegrityServer": {"key_hex": KEY},
    "TimedSched": {"period": 0.05, "high_rate_threshold": 100},  # permissive
}

SAMPLE = [
    Combination(ft, security, timeliness)
    for ft in ("none", *FT_COMBINATIONS)
    for security, timeliness in (
        ((), None),
        (("privacy", "integrity", "access"), "priority"),
        (("integrity",), "queued"),
    )
]


@pytest.mark.parametrize("combo", SAMPLE, ids=[c.label() for c in SAMPLE])
def test_combination_runs(deployment, combo):
    client_names = combo.client_protocols()
    server_names = combo.server_protocols()
    validate_configuration(client_names, server_names)

    replicas = 3 if combo.fault_tolerance != "none" else 1
    deployment.add_replicas(
        "acct",
        BankAccount,
        bank_interface(),
        replicas=replicas,
        server_micro_protocols=protocol_specs(server_names, PROTOCOL_PARAMS),
        priority_policy=lambda request: HIGH_PRIORITY,
    )
    stub = deployment.client_stub(
        "acct",
        bank_interface(),
        client_micro_protocols=protocol_specs(client_names, PROTOCOL_PARAMS),
        client_id="matrix-client",
    )
    stub.set_balance(10.0)
    stub.deposit(2.5)
    assert stub.get_balance() == 12.5
