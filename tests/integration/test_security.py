"""Integration tests for the security micro-protocols (§3.3)."""

import pytest

from repro.apps.bank import BankAccount, bank_interface
from repro.cactus.composite import MicroProtocol
from repro.core.events import EV_INVOKE_RETURN, EV_READY_TO_SEND
from repro.core.request import PB_ENCRYPTED
from repro.crypto.des import DesCipher
from repro.qos import (
    AccessControl,
    ActiveRep,
    DesPrivacy,
    DesPrivacyServer,
    MajorityVote,
    SignedIntegrity,
    SignedIntegrityServer,
)
from repro.serialization.jser import jser_dumps
from repro.util.errors import IntegrityError, InvocationError, MarshalError

KEY = "0123456789abcdef"
OTHER_KEY = "fedcba9876543210"


class TestPrivacy:
    def test_roundtrip(self, deployment):
        deployment.add_replicas(
            "acct",
            BankAccount,
            bank_interface(),
            server_micro_protocols=lambda: [DesPrivacyServer(key_hex=KEY)],
        )
        stub = deployment.client_stub(
            "acct",
            bank_interface(),
            client_micro_protocols=lambda: [DesPrivacy(key_hex=KEY)],
        )
        stub.set_balance(123.5)
        assert stub.get_balance() == 123.5

    def test_parameters_are_actually_encrypted(self, deployment, network):
        """Tap the network: the plaintext amount must not appear on the wire."""
        captured = []
        original = type(network)._deliver

        def tap(self, source, address, data):
            captured.append(bytes(data))
            return original(self, source, address, data)

        type(network)._deliver = tap
        try:
            deployment.add_replicas(
                "acct",
                BankAccount,
                bank_interface(),
                server_micro_protocols=lambda: [DesPrivacyServer(key_hex=KEY)],
            )
            stub = deployment.client_stub(
                "acct",
                bank_interface(),
                client_micro_protocols=lambda: [DesPrivacy(key_hex=KEY)],
            )
            captured.clear()
            secret = 31337.25
            stub.set_balance(secret)
            import struct

            plain_double = struct.pack(">d", secret)
            assert not any(plain_double in frame for frame in captured)
        finally:
            type(network)._deliver = original

    def test_wrong_server_key_fails(self, deployment):
        deployment.add_replicas(
            "acct",
            BankAccount,
            bank_interface(),
            server_micro_protocols=lambda: [DesPrivacyServer(key_hex=OTHER_KEY)],
        )
        stub = deployment.client_stub(
            "acct",
            bank_interface(),
            client_micro_protocols=lambda: [DesPrivacy(key_hex=KEY)],
        )
        with pytest.raises(Exception):
            stub.set_balance(1.0)

    def test_privacy_with_replication(self, deployment):
        deployment.add_replicas(
            "acct",
            BankAccount,
            bank_interface(),
            replicas=3,
            server_micro_protocols=lambda: [DesPrivacyServer(key_hex=KEY)],
        )
        stub = deployment.client_stub(
            "acct",
            bank_interface(),
            client_micro_protocols=lambda: [
                ActiveRep(),
                MajorityVote(),
                DesPrivacy(key_hex=KEY),
            ],
        )
        stub.set_balance(9.75)
        assert stub.get_balance() == 9.75

    def test_unencrypted_client_against_privacy_server(self, deployment):
        """A client without DesPrivacy still works: the flag is absent."""
        deployment.add_replicas(
            "acct",
            BankAccount,
            bank_interface(),
            server_micro_protocols=lambda: [DesPrivacyServer(key_hex=KEY)],
        )
        stub = deployment.client_stub("acct", bank_interface())
        stub.set_balance(2.0)
        assert stub.get_balance() == 2.0


class TestIntegrity:
    def test_roundtrip(self, deployment):
        deployment.add_replicas(
            "acct",
            BankAccount,
            bank_interface(),
            server_micro_protocols=lambda: [SignedIntegrityServer(key_hex=KEY)],
        )
        stub = deployment.client_stub(
            "acct",
            bank_interface(),
            client_micro_protocols=lambda: [SignedIntegrity(key_hex=KEY)],
        )
        stub.set_balance(7.0)
        assert stub.get_balance() == 7.0

    def test_unsigned_request_rejected(self, deployment):
        deployment.add_replicas(
            "acct",
            BankAccount,
            bank_interface(),
            server_micro_protocols=lambda: [SignedIntegrityServer(key_hex=KEY)],
        )
        stub = deployment.client_stub("acct", bank_interface())  # no signing
        with pytest.raises((IntegrityError, InvocationError)):
            stub.set_balance(1.0)

    def test_wrong_key_rejected(self, deployment):
        deployment.add_replicas(
            "acct",
            BankAccount,
            bank_interface(),
            server_micro_protocols=lambda: [SignedIntegrityServer(key_hex=KEY)],
        )
        stub = deployment.client_stub(
            "acct",
            bank_interface(),
            client_micro_protocols=lambda: [SignedIntegrity(key_hex=OTHER_KEY)],
        )
        with pytest.raises((IntegrityError, InvocationError)):
            stub.set_balance(1.0)

    def test_rejected_before_servant_runs(self, deployment):
        account = BankAccount()
        deployment.add_replicas(
            "acct",
            lambda: account,
            bank_interface(),
            server_micro_protocols=lambda: [SignedIntegrityServer(key_hex=KEY)],
        )
        stub = deployment.client_stub("acct", bank_interface())
        with pytest.raises((IntegrityError, InvocationError)):
            stub.set_balance(999.0)
        assert account.get_balance() == 0.0


class TestPrivacyPlusIntegrity:
    def test_layering(self, deployment):
        deployment.add_replicas(
            "acct",
            BankAccount,
            bank_interface(),
            server_micro_protocols=lambda: [
                DesPrivacyServer(key_hex=KEY),
                SignedIntegrityServer(key_hex=KEY),
            ],
        )
        stub = deployment.client_stub(
            "acct",
            bank_interface(),
            client_micro_protocols=lambda: [
                DesPrivacy(key_hex=KEY),
                SignedIntegrity(key_hex=KEY),
            ],
        )
        stub.set_balance(55.5)
        assert stub.get_balance() == 55.5
        assert stub.deposit(4.5) == 60.0


class ForgeReply(MicroProtocol):
    """Server side: replace the reply, after the security handlers ran."""

    name = "ForgeReply"

    def __init__(self, value):
        super().__init__()
        self._value = value

    def start(self) -> None:
        self.bind(EV_INVOKE_RETURN, self.forge, order=90)

    def forge(self, occurrence) -> None:
        occurrence.args[0].set_result(self._value)


class ForgeParams(MicroProtocol):
    """Client side: send this parameter vector, flagged as encrypted."""

    name = "ForgeParams"

    def __init__(self, params):
        super().__init__()
        self._params = params

    def start(self) -> None:
        self.bind(EV_READY_TO_SEND, self.forge, order=90)

    def forge(self, occurrence) -> None:
        request = occurrence.args[0]
        request.set_params(self._params)
        request.piggyback[PB_ENCRYPTED] = True


class TestForgedShapes:
    """A peer that sends the right wrapper around the wrong type gets the
    error the protocol promises, not a TypeError out of a handler."""

    @pytest.mark.parametrize("signature", ["x", None, 7, ["s"]])
    def test_reply_signature_of_the_wrong_type(self, deployment, signature):
        deployment.add_replicas(
            "acct",
            BankAccount,
            bank_interface(),
            server_micro_protocols=lambda: [
                SignedIntegrityServer(key_hex=KEY),
                ForgeReply({"__cqos_sig__": signature, "v": 1.0}),
            ],
        )
        stub = deployment.client_stub(
            "acct",
            bank_interface(),
            client_micro_protocols=lambda: [SignedIntegrity(key_hex=KEY)],
        )
        with pytest.raises(IntegrityError, match="verification failed"):
            stub.get_balance()

    @pytest.mark.parametrize("ciphertext", ["a" * 16, None, 7, b"\x00" * 12, b"\x00" * 16])
    def test_reply_ciphertext_of_the_wrong_type_or_length(self, deployment, ciphertext):
        deployment.add_replicas(
            "acct",
            BankAccount,
            bank_interface(),
            server_micro_protocols=lambda: [
                DesPrivacyServer(key_hex=KEY),
                ForgeReply({"__cqos_ct__": ciphertext}),
            ],
        )
        stub = deployment.client_stub(
            "acct",
            bank_interface(),
            client_micro_protocols=lambda: [DesPrivacy(key_hex=KEY)],
        )
        with pytest.raises(MarshalError):
            stub.get_balance()

    @pytest.mark.parametrize("params", [[], ["a" * 16], [7], [b"\x00" * 16, b"\x00" * 16]])
    def test_encrypted_flag_without_one_ciphertext(self, deployment, params):
        account = BankAccount()
        deployment.add_replicas(
            "acct",
            lambda: account,
            bank_interface(),
            server_micro_protocols=lambda: [DesPrivacyServer(key_hex=KEY)],
        )
        stub = deployment.client_stub(
            "acct",
            bank_interface(),
            client_micro_protocols=lambda: [ForgeParams(params)],
        )
        with pytest.raises(InvocationError, match="MarshalError"):
            stub.set_balance(5.0)
        assert account.get_balance() == 0.0

    @pytest.mark.parametrize("plaintext", ["ab", {"x": 1.0}, 5], ids=["str", "dict", "int"])
    def test_decrypted_parameters_that_are_not_a_list(self, deployment, plaintext):
        """A ciphertext under the right key whose plaintext is not a list is
        rejected before the servant runs: a str would run as its characters,
        a dict as its keys."""
        calls = []

        class RecordingAccount(BankAccount):
            def set_balance(self, *args):
                calls.append(args)
                return super().set_balance(*args)

        deployment.add_replicas(
            "acct",
            RecordingAccount,
            bank_interface(),
            server_micro_protocols=lambda: [DesPrivacyServer(key_hex=KEY)],
        )
        ciphertext = DesCipher(bytes.fromhex(KEY)).encrypt(jser_dumps(plaintext))
        stub = deployment.client_stub(
            "acct",
            bank_interface(),
            client_micro_protocols=lambda: [ForgeParams([ciphertext])],
        )
        with pytest.raises(InvocationError, match="MarshalError.*not a list"):
            stub.set_balance(5.0)
        assert calls == []


class TestAccessControl:
    def acl_server(self):
        return [
            AccessControl(
                acl={"set_balance": ["boss"], "withdraw": ["boss", "teller"]},
                default_allow=True,
            )
        ]

    def test_allowed_client(self, deployment):
        deployment.add_replicas(
            "acct", BankAccount, bank_interface(), server_micro_protocols=self.acl_server
        )
        stub = deployment.client_stub("acct", bank_interface(), client_id="boss")
        stub.set_balance(10.0)
        assert stub.get_balance() == 10.0

    def test_denied_client(self, deployment):
        account = BankAccount()
        deployment.add_replicas(
            "acct",
            lambda: account,
            bank_interface(),
            server_micro_protocols=self.acl_server,
        )
        stub = deployment.client_stub("acct", bank_interface(), client_id="teller")
        with pytest.raises(InvocationError, match="AccessDenied"):
            stub.set_balance(10.0)
        assert account.get_balance() == 0.0  # servant untouched
        assert stub.get_balance() == 0.0  # default-allow operation still works

    def test_default_deny(self, deployment):
        deployment.add_replicas(
            "acct",
            BankAccount,
            bank_interface(),
            server_micro_protocols=lambda: [AccessControl(default_allow=False)],
        )
        stub = deployment.client_stub("acct", bank_interface(), client_id="anyone")
        with pytest.raises(InvocationError, match="AccessDenied"):
            stub.get_balance()
