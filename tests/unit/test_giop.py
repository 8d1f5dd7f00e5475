"""The GIOP envelope against frames the stream-based encoders produced.

``tests/oracles/giop_golden.py`` holds the bytes of every message below as
the parent commit's ``giop.encode_*`` wrote them (through ``CdrOutputStream``);
the envelope now packs and reads them at offsets, and must neither move a
byte nor fail with anything but :class:`MarshalError`.
"""

import pytest

from repro.apps.bank import bank_compiled, bank_interface
from repro.orb import giop
from repro.orb.typed_marshal import marshal_arguments, marshal_result
from repro.util.errors import MarshalError
from tests.oracles import giop_golden

KEY = "acct_agent_poa_1|acct_CQoS_Skeleton"
THREE_KEYS = {"cqos_client": "client-1", "cqos_request_id": "req:7", "cqos_priority": 5}


def golden_messages() -> dict:
    """Every message ``giop_golden.FRAMES`` holds, rebuilt."""
    compiled = bank_compiled()  # registers bank::InsufficientFunds
    deposit = bank_interface().operation("deposit")
    broke = compiled.exceptions["bank::InsufficientFunds"](
        reason="balance too low", requested=100.0, available=12.5
    )
    return {
        "request_no_arguments_empty_context": giop.RequestMessage(1, KEY, "get_balance", [], {}),
        "request_one_argument": giop.RequestMessage(
            2, KEY, "set_balance", [100.0], {"cqos_client": "client-1"}
        ),
        "request_two_arguments_three_keys": giop.RequestMessage(
            3, "p|o", "op", ["héllo", -7], dict(THREE_KEYS)
        ),
        "request_three_arguments": giop.RequestMessage(
            2**32 - 1, KEY, "cqos_control", ["ping", 0, {"k": [1, 2.5, None]}], dict(THREE_KEYS)
        ),
        "request_oneway": giop.RequestMessage(
            5, KEY, "set_balance", [1.5], {}, response_expected=False
        ),
        "request_typed_body": giop.RequestMessage(
            6, "bank_poa|acct", "deposit", [], {},
            typed_body=marshal_arguments(deposit, [12.5], compiled),
        ),
        "reply_no_exception": giop.ReplyMessage(2, giop.REPLY_NO_EXCEPTION, 112.5),
        "reply_oneway_acknowledgement": giop.ReplyMessage(5, giop.REPLY_NO_EXCEPTION),
        "reply_user_exception": giop.ReplyMessage(7, giop.REPLY_USER_EXCEPTION, broke),
        "reply_system_exception": giop.ReplyMessage(
            8, giop.REPLY_SYSTEM_EXCEPTION, {"type": "BindError", "message": "no POA 'x'"}
        ),
        "reply_typed_body": giop.ReplyMessage(
            6, giop.REPLY_NO_EXCEPTION, typed_body=marshal_result(deposit, 112.5, compiled)
        ),
    }


MESSAGES = golden_messages()


def encode(message) -> bytes:
    if isinstance(message, giop.RequestMessage):
        return giop.encode_request(message)
    return giop.encode_reply(message)


def test_the_oracle_holds_every_message_and_no_other():
    assert set(giop_golden.FRAMES) == set(MESSAGES)


@pytest.mark.parametrize("name", MESSAGES)
class TestGoldenFrames:
    def test_encodes_to_the_parents_bytes(self, name):
        assert encode(MESSAGES[name]).hex() == giop_golden.FRAMES[name]

    def test_decodes_the_parents_bytes(self, name):
        assert giop.decode_message(bytes.fromhex(giop_golden.FRAMES[name])) == MESSAGES[name]

    def test_every_proper_prefix_is_a_marshal_error(self, name):
        frame = bytes.fromhex(giop_golden.FRAMES[name])
        for cut in range(len(frame)):
            with pytest.raises(MarshalError):
                giop.decode_message(frame[:cut])

    def test_every_corrupted_octet_decodes_or_is_a_marshal_error(self, name):
        frame = bytes.fromhex(giop_golden.FRAMES[name])
        for at, original in enumerate(frame):
            for octet in range(256):
                if octet == original:
                    continue
                try:
                    giop.decode_message(frame[:at] + bytes((octet,)) + frame[at + 1 :])
                except MarshalError:
                    pass


class TestDecoderContract:
    def test_any_nonzero_flag_octet_is_true(self):
        frame = bytearray(bytes.fromhex(giop_golden.FRAMES["request_oneway"]))
        flag_at = frame.index(b"set_balance") + len(b"set_balance")
        assert frame[flag_at] == 0
        frame[flag_at] = 0x80
        assert giop.decode_message(bytes(frame)).response_expected is True

    @pytest.mark.parametrize("wrap", [bytearray, memoryview])
    def test_input_buffer_types(self, wrap):
        for name, message in MESSAGES.items():
            assert giop.decode_message(wrap(bytes.fromhex(giop_golden.FRAMES[name]))) == message

    def test_typed_reply_body_longer_than_the_frame(self):
        frame = bytearray(bytes.fromhex(giop_golden.FRAMES["reply_typed_body"]))
        frame[19] += 1
        with pytest.raises(MarshalError, match="truncated"):
            giop.decode_message(bytes(frame))
