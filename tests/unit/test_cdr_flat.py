"""The flat CDR codec against bytes and behaviour captured before it.

Golden vectors come from the parent commit (``tests/oracles/cdr_golden.py``),
the stream primitives are held to the tree-walk streams kept in
``tests/oracles/cdr_tree_walk.py``, and the decoder's error contract is that a
frame can only ever fail with :class:`MarshalError`.
"""

import enum
import struct
from collections import OrderedDict

import pytest

from repro.orb import giop
from repro.serialization.cdr import (
    MAX_DEPTH,
    CdrInputStream,
    CdrOutputStream,
    cdr_dumps,
    cdr_loads,
    read_any,
    write_any,
)
from repro.serialization.registry import TypeRegistry
from repro.util.errors import MarshalError
from tests.oracles import cdr_golden, cdr_tree_walk


class Point:
    def __init__(self, x, y):
        self.x, self.y = x, y

    def __eq__(self, other):
        return vars(self) == vars(other)


REGISTRY = TypeRegistry()
REGISTRY.register("golden.Point", Point)

#: One value per ``any`` tag, as encoded in ``cdr_golden.ANY_AT_RESIDUE``.
SAMPLES = {
    "none": None,
    "true": True,
    "false": False,
    "int64": -2,
    "bigint": 2**64,
    "double": 1.5,
    "string": "hé",
    "bytes": b"\x00\xff",
    "list": [1],
    "tuple": (None,),
    "dict": {"k": 2.0},
    "value": Point(1, "y"),
}


def set_balance_request() -> giop.RequestMessage:
    return giop.RequestMessage(
        request_id=3,
        object_key="acct_agent_poa_1|acct_CQoS_Skeleton",
        operation="set_balance",
        arguments=[100.0],
        context={"cqos_client": "client-1", "cqos_request_id": "req:1"},
    )


def history_reply() -> giop.ReplyMessage:
    balance, movements = 0.0, []
    for i in range(64):
        kind = "deposit" if i % 3 else "set"
        amount = round(1.0 + i * 15.61, 2)
        balance = amount if kind == "set" else round(balance + amount, 2)
        movements.append({"kind": kind, "amount": amount, "balance_after": balance})
    return giop.ReplyMessage(request_id=3, status=giop.REPLY_NO_EXCEPTION, body=movements)


class TestGoldenVectors:
    @pytest.mark.parametrize("name", SAMPLES)
    @pytest.mark.parametrize("residue", range(8))
    def test_every_tag_at_every_residue(self, name, residue):
        golden = bytes.fromhex(cdr_golden.ANY_AT_RESIDUE[name][residue])
        buf = bytearray(b"\xaa" * residue)
        write_any(buf, SAMPLES[name], REGISTRY)
        assert bytes(buf[residue:]) == golden
        value, end = read_any(bytes(buf), residue, REGISTRY)
        assert value == SAMPLES[name] and type(value) is type(SAMPLES[name])
        assert end == len(buf)

    def test_set_balance_request_frame(self):
        message = set_balance_request()
        assert giop.encode_request(message) == cdr_golden.SET_BALANCE_REQUEST
        assert giop.decode_message(cdr_golden.SET_BALANCE_REQUEST) == message

    def test_history_reply_frame(self):
        message = history_reply()
        assert giop.encode_reply(message) == cdr_golden.HISTORY_64_REPLY
        assert giop.decode_message(cdr_golden.HISTORY_64_REPLY) == message


class TestStreamPrimitives:
    VALUES = [
        ("octet", 0xAB), ("bool", True), ("short", -1234), ("ushort", 65000),
        ("long", -(2**31)), ("ulong", 2**32 - 1), ("longlong", -(2**63)),
        ("double", 2.5), ("string", "héllo"), ("bytes", b"\x00\x01\x02"),
    ]

    @pytest.mark.parametrize("kind,value", VALUES)
    @pytest.mark.parametrize("residue", range(8))
    def test_same_bytes_as_the_tree_walk_streams(self, kind, value, residue):
        out, oracle = CdrOutputStream(), cdr_tree_walk.CdrOutputStream()
        for stream in (out, oracle):
            for _ in range(residue):
                stream.write_octet(0xAA)
            getattr(stream, f"write_{kind}")(value)
        encoded = out.getvalue()
        assert encoded == oracle.getvalue()
        stream = CdrInputStream(encoded)
        stream.pos = residue
        assert getattr(stream, f"read_{kind}")() == value
        assert stream.remaining == 0

    @pytest.mark.parametrize("kind,value", VALUES)
    def test_every_prefix_is_truncated(self, kind, value):
        out = CdrOutputStream()
        out.write_octet(0xAA)
        getattr(out, f"write_{kind}")(value)
        encoded = out.getvalue()
        for cut in range(1, len(encoded)):
            stream = CdrInputStream(encoded[:cut])
            stream.pos = 1
            with pytest.raises(MarshalError):
                getattr(stream, f"read_{kind}")()


class TestTruncationSweep:
    """Every strict prefix of a good buffer fails, and only with MarshalError."""

    @pytest.mark.parametrize("name", SAMPLES)
    def test_any_values(self, name):
        encoded = cdr_dumps(SAMPLES[name], REGISTRY)
        for cut in range(len(encoded)):
            with pytest.raises(MarshalError):
                cdr_loads(encoded[:cut], REGISTRY)

    @pytest.mark.parametrize(
        "frame", [cdr_golden.SET_BALANCE_REQUEST, cdr_golden.HISTORY_64_REPLY],
        ids=["set_balance_request", "history_64_reply"],
    )
    def test_whole_frames(self, frame):
        for cut in range(len(frame)):
            with pytest.raises(MarshalError):
                giop.decode_message(frame[:cut])

    def test_typed_body_frames(self):
        request = giop.encode_request(
            giop.RequestMessage(1, "poa|obj", "op", [], {"k": "v"}, typed_body=b"\x01\x02\x03")
        )
        reply = giop.encode_reply(giop.ReplyMessage(1, giop.REPLY_NO_EXCEPTION, typed_body=b"\x09" * 5))
        for frame in (request, reply):
            assert giop.decode_message(frame).typed_body is not None
            for cut in range(len(frame)):
                with pytest.raises(MarshalError):
                    giop.decode_message(frame[:cut])


class Colour(enum.IntEnum):
    RED = 7


class Label(str):
    pass


class TestLadderOrder:
    """Values outside the exact-type table take the ``isinstance`` ladder."""

    def test_int_enum_is_an_int(self):
        assert cdr_dumps(Colour.RED) == cdr_dumps(7)
        assert type(cdr_loads(cdr_dumps(Colour.RED))) is int

    def test_str_subclass_is_a_string(self):
        assert cdr_dumps(Label("x")) == cdr_dumps("x")
        assert type(cdr_loads(cdr_dumps(Label("x")))) is str

    def test_ordered_dict_is_a_dict_in_its_order(self):
        ordered = OrderedDict([("b", 1), ("a", 2)])
        assert cdr_dumps(ordered) == cdr_dumps({"b": 1, "a": 2})
        assert list(cdr_loads(cdr_dumps(ordered))) == ["b", "a"]

    def test_bytearray_is_bytes(self):
        assert cdr_dumps(bytearray(b"ab")) == cdr_dumps(b"ab")
        assert type(cdr_loads(cdr_dumps(bytearray(b"ab")))) is bytes

    def test_true_is_not_one(self):
        assert cdr_dumps(True) != cdr_dumps(1)
        assert cdr_loads(cdr_dumps(True)) is True
        assert type(cdr_loads(cdr_dumps(1))) is int
        assert cdr_loads(cdr_dumps({True: 1, 2: False})) == {True: 1, 2: False}

    def test_subclass_of_a_builtin_wins_over_its_registration(self):
        class Pair(tuple):
            pass

        registry = TypeRegistry()
        registry.register("t.Pair", Pair)
        assert cdr_dumps(Pair((1, 2)), registry) == cdr_dumps((1, 2))

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
    def test_input_buffer_types(self, wrap):
        value = {"s": "hé", "b": b"\x01", "n": [1, 2.5, None, (True,)]}
        assert cdr_loads(wrap(cdr_dumps(value))) == value
        frame = wrap(cdr_golden.SET_BALANCE_REQUEST)
        assert giop.decode_message(frame) == set_balance_request()

    def test_same_bytes_as_the_tree_walk(self):
        for value in (Colour.RED, Label("x"), OrderedDict(a=1), bytearray(b"ab"), True, 1):
            assert cdr_dumps(value) == cdr_tree_walk.cdr_dumps(value)


def any_string(payload: bytes, tag: int = 6) -> bytes:
    return bytes([tag]) + b"\x00" * 3 + struct.pack(">I", len(payload)) + payload


class TestErrorContract:
    """Hostile frames: the parent leaked four other exception types here."""

    def test_string_that_is_not_utf8(self):
        with pytest.raises(MarshalError):
            cdr_loads(any_string(b"\xff\xfe"))

    def test_bigint_that_is_not_digits(self):
        with pytest.raises(MarshalError):
            cdr_loads(any_string(b"12x4", tag=4))

    def test_list_as_dict_key(self):
        empty_list = b"\x08" + b"\x00" * 3 + struct.pack(">I", 0)
        frame = b"\x0a" + b"\x00" * 3 + struct.pack(">I", 1) + empty_list + b"\x00"
        with pytest.raises(MarshalError):
            cdr_loads(frame)

    def test_value_type_nobody_registered(self):
        with pytest.raises(MarshalError):
            cdr_loads(cdr_dumps(Point(1, 2), REGISTRY), TypeRegistry())

    def test_value_type_state_that_does_not_fit(self):
        # The default decoder updates ``__dict__`` from the state: a list is no state.
        frame = any_string(b"golden.Point", tag=11) + cdr_dumps([1])
        with pytest.raises(MarshalError):
            cdr_loads(frame, REGISTRY)

    def test_unknown_tag_inside_a_container(self):
        frame = b"\x08" + b"\x00" * 3 + struct.pack(">I", 1) + b"\x63"
        with pytest.raises(MarshalError, match="unknown CDR any tag: 99"):
            cdr_loads(frame)

    def test_count_far_beyond_the_frame(self):
        for tag in (8, 9, 10):
            with pytest.raises(MarshalError):
                cdr_loads(bytes([tag]) + b"\x00" * 3 + struct.pack(">I", 2**32 - 1) + b"\x00")
        with pytest.raises(MarshalError):
            cdr_loads(any_string(b"ab")[:-2])  # length 2, no payload

    def test_nesting_is_capped_not_left_to_the_interpreter_stack(self):
        def nest(depth):
            value: list = []
            for _ in range(depth - 1):
                value = [value]
            return value

        encoded = cdr_dumps(nest(MAX_DEPTH))
        decoded = cdr_loads(encoded)
        for _ in range(MAX_DEPTH - 1):
            (decoded,) = decoded
        assert decoded == []
        with pytest.raises(MarshalError, match="nested deeper"):
            cdr_dumps(nest(3000))
        # What a peer without the cap could send: 3000 one-element lists.
        one_element_list = b"\x08" + b"\x00" * 3 + struct.pack(">I", 1)
        with pytest.raises(MarshalError, match="nested deeper"):
            cdr_loads(one_element_list * 3000 + b"\x00")

    def test_deep_tuple_as_dict_key_never_reaches_hash(self):
        # hash() of a tuple nested 200 000 deep overflows the C stack.
        one_element_tuple = b"\x09" + b"\x00" * 3 + struct.pack(">I", 1)
        frame = b"\x0a" + b"\x00" * 3 + struct.pack(">I", 1) + one_element_tuple * 200_000
        with pytest.raises(MarshalError, match="nested deeper"):
            cdr_loads(frame + b"\x00\x00")

    def test_lone_surrogate_cannot_be_marshalled(self):
        with pytest.raises(MarshalError):
            cdr_dumps(["ok", "\ud800"])

    def test_unregistered_object_inside_a_container(self):
        with pytest.raises(MarshalError, match="register it as a value type"):
            cdr_dumps({"k": [object()]})

    def test_request_header_strings_that_are_not_utf8(self):
        frame = bytearray(cdr_golden.SET_BALANCE_REQUEST)
        key_at = frame.index(b"acct_agent")
        frame[key_at] = 0xFF
        with pytest.raises(MarshalError):
            giop.decode_message(bytes(frame))

    @pytest.mark.parametrize("context", ["notadict", ["k", "v"], None, 7])
    def test_request_service_context_that_is_not_a_dict(self, context):
        frame = giop.encode_request(giop.RequestMessage(1, "k", "op", [], context))
        with pytest.raises(MarshalError, match="GIOP service context is not a dict"):
            giop.decode_message(frame)

    @pytest.mark.parametrize(
        "header,message",
        [
            (b"GIOQ\x01\x00", "bad GIOP magic"),
            (b"GIOP\x02\x00", "unsupported GIOP version: 2"),
            (b"GIOP\x01\x07", "unknown GIOP message type: 7"),
        ],
    )
    def test_each_wrong_header_octet_is_named(self, header, message):
        with pytest.raises(MarshalError, match=message):
            giop.decode_message(header + cdr_golden.SET_BALANCE_REQUEST[6:])

    def test_every_corrupted_octet_of_a_request_fails_cleanly_or_decodes(self):
        frame = cdr_golden.SET_BALANCE_REQUEST
        for at in range(len(frame)):
            for octet in (0x00, 0x0B, 0x63, 0xFF):
                corrupt = frame[:at] + bytes([octet]) + frame[at + 1 :]
                try:
                    giop.decode_message(corrupt)
                except MarshalError:
                    pass
