"""Unit tests for static configuration: registry, wire form, building."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.cactus.composite import MicroProtocol
from repro.cactus.config import (
    MicroProtocolSpec,
    build_micro_protocols,
    micro_protocol_registry,
    register_micro_protocol,
)
from repro.util.errors import ConfigurationError


@register_micro_protocol("_TestConfigurable")
class Configurable(MicroProtocol):
    name = "_TestConfigurable"

    def __init__(self, count: int = 1, label: str = "x", fast: bool = False):
        super().__init__()
        self.count = count
        self.label = label
        self.fast = fast


class TestRegistry:
    def test_registered(self):
        assert micro_protocol_registry()["_TestConfigurable"] is Configurable

    def test_conflicting_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_micro_protocol("_TestConfigurable", MicroProtocol)

    def test_idempotent_registration(self):
        register_micro_protocol("_TestConfigurable", Configurable)  # no error

    def test_qos_protocols_are_registered(self):
        registry = micro_protocol_registry()
        for name in (
            "ClientBase",
            "ServerBase",
            "ActiveRep",
            "PassiveRep",
            "PassiveRepServer",
            "FirstSuccess",
            "MajorityVote",
            "TotalOrder",
            "Retransmit",
            "DesPrivacy",
            "DesPrivacyServer",
            "SignedIntegrity",
            "SignedIntegrityServer",
            "AccessControl",
            "PrioritySched",
            "QueuedSched",
            "TimedSched",
        ):
            assert name in registry, name


class TestWireForm:
    def test_wire_roundtrip(self):
        spec = MicroProtocolSpec("A", {"k": 1})
        assert MicroProtocolSpec.from_wire(spec.to_wire()) == spec


class TestBuilding:
    def test_build_with_params(self):
        [instance] = build_micro_protocols(
            [MicroProtocolSpec("_TestConfigurable", {"count": 9})]
        )
        assert isinstance(instance, Configurable)
        assert instance.count == 9

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown micro-protocol"):
            build_micro_protocols([MicroProtocolSpec("NoSuchProtocol")])

    def test_bad_params(self):
        with pytest.raises(ConfigurationError, match="bad parameters"):
            build_micro_protocols(
                [MicroProtocolSpec("_TestConfigurable", {"bogus_kw": 1})]
            )


FRESH_BY_NAME = """
import json, sys
from repro import CqosDeployment, InMemoryNetwork
from repro.apps.bank import BankAccount, bank_compiled, bank_interface

deployment = CqosDeployment(InMemoryNetwork(), platform="rmi", compiled=bank_compiled())
deployment.add_replicas("acct", BankAccount, bank_interface(), replicas=3,
                        server_micro_protocols=["TotalOrder"])
stub = deployment.client_stub("acct", bank_interface(),
                              client_micro_protocols=["ActiveRep", "MajorityVote"])
stub.set_balance(7.0)
assert stub.get_balance() == 7.0
deployment.close()
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro.qos"))))
"""


def test_names_resolve_in_a_fresh_interpreter():
    """A by-name configuration works with nothing imported before but
    ``repro``: each name imports the module ``repro.qos`` declares for it,
    and only those.  (The registry used to be filled only as a side effect
    of importing the whole ``repro.qos`` package, so this failed with
    ``unknown micro-protocol 'TotalOrder'; registered: <none>``.)"""
    src = Path(__file__).resolve().parents[2] / "src"
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(FRESH_BY_NAME)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert json.loads(result.stdout.splitlines()[-1]) == [
        "repro.qos",
        "repro.qos.base",
        "repro.qos.fault_tolerance",
        "repro.qos.fault_tolerance.acceptance",
        "repro.qos.fault_tolerance.active",
        "repro.qos.fault_tolerance.total_order",
    ]
