"""End-to-end smoke of the configuration matrix (paper §3.5).

The unit tests enumerate and validate all 192 combinations; here a
representative sample actually *runs*: every fault-tolerance combination,
with and without the full security bundle and a timeliness protocol, on
each of the three platforms — the paper's claim that the attribute families compose "in
any combination", executed.  A low-priority client reads the owner while
a high-priority one deposits, so a scheduler has lows to queue behind
highs (the owner is a read no deposit changes, so replicas without
TotalOrder still vote alike).
"""

import threading

import pytest

from repro.apps.bank import BankAccount, bank_interface
from repro.qos.combinations import (
    FT_COMBINATIONS,
    Combination,
    protocol_specs,
    validate_configuration,
)
from repro.qos.timeliness import HIGH_PRIORITY, LOW_PRIORITY

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
        priority_policy=lambda request: (
            HIGH_PRIORITY if request.client_id.startswith("matrix") else LOW_PRIORITY
        ),
    )
    high, low = (
        deployment.client_stub(
            "acct",
            bank_interface(),
            client_micro_protocols=protocol_specs(client_names, PROTOCOL_PARAMS),
            client_id=client_id,
        )
        for client_id in ("matrix-client", "low-client")
    )
    high.set_balance(10.0)
    errors, owners = [], []

    def repeat(call):
        try:
            for _ in range(4):
                call()
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [
        threading.Thread(target=repeat, args=(lambda: high.deposit(2.5),)),
        threading.Thread(target=repeat, args=(lambda: owners.append(low.owner()),)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not errors, errors[:3]
    assert owners == ["alice"] * 4
    assert high.get_balance() == low.get_balance() == 20.0
