"""The bookkeeping of the four codec walks: ``jser_dumps`` / ``jser_loads``
and ``write_any`` / ``read_any`` (through ``cdr_dumps`` / ``cdr_loads``).

Each walk keeps its enclosing containers as a chain of tuples in a local, so
entering or leaving a container makes no call, and the CDR reader fills a
dict as its keys and values arrive.  The nesting cap counts containers open
at once, not containers seen, and sits at exactly ``MAX_DEPTH`` in each walk.
The CDR reader reads a list's later records by the layouts it learned from
the first of each shape, and keeps nothing of them once it returns.
"""

import copy
import gc
import struct
import sys
import types
from collections import Counter

import pytest

from repro.orb import giop
from repro.rmi import jrmp
from repro.serialization import cdr
from repro.serialization.cdr import MAX_DEPTH, cdr_dumps, cdr_loads, read_any, write_any
from repro.serialization.jser import jser_dumps, jser_loads
from repro.serialization.registry import TypeRegistry
from repro.util.errors import MarshalError
from tests.oracles import cdr_golden, cdr_tree_walk
from tests.oracles.jser_tree_walk import tree_dumps


class Point:
    def __init__(self, x, y):
        self.x, self.y = x, y

    def __eq__(self, other):
        return type(other) is Point and vars(self) == vars(other)


class Unit:
    def __eq__(self, other):
        return type(other) is Unit


REGISTRY = TypeRegistry()
REGISTRY.register("walks.Point", Point)
REGISTRY.register("walks.Unit", Unit)

SERVICE_CONTEXT = {"cqos_client": "client-1", "cqos_request_id": "req:1"}


def builtin_calls(walk, *args) -> Counter:
    """Every builtin the walk calls, by qualified name, under a profile hook."""
    seen: Counter = Counter()

    def hook(frame, event, arg):
        if event == "c_call":
            seen[arg.__qualname__] += 1

    sys.setprofile(hook)
    try:
        walk(*args)
    finally:
        sys.setprofile(None)
    return seen


def jrmp_call_frame() -> bytes:
    return jrmp.encode_call(jrmp.CallMessage("acct", "deposit", [12.5], dict(SERVICE_CONTEXT)))


class TestNoStackCalls:
    def test_walks_make_no_stack_calls(self):
        history = giop.decode_message(cdr_golden.HISTORY_64_REPLY).body
        frame = jrmp_call_frame()
        call = jser_loads(frame)
        walks = {
            "jser_dumps": builtin_calls(jser_dumps, call),
            "jser_loads": builtin_calls(jser_loads, frame),
            "cdr_dumps": builtin_calls(cdr_dumps, history),
            "cdr_loads": builtin_calls(cdr_loads, cdr_dumps(history)),
        }
        assert {name: calls["list.pop"] for name, calls in walks.items()} == dict.fromkeys(walks, 0)
        assert walks["jser_dumps"]["list.append"] == 0
        assert walks["cdr_dumps"]["list.append"] == 0
        context = builtin_calls(cdr_loads, cdr_dumps(SERVICE_CONTEXT))
        assert context["list.append"] == 0


def wide_values() -> list:
    """Each holds ``MAX_DEPTH + 1`` sibling containers, none deeper than two."""
    return [
        [[i] for i in range(MAX_DEPTH + 1)],
        [(i,) for i in range(MAX_DEPTH + 1)],
        {i: {"v": i} for i in range(MAX_DEPTH + 1)},
        [Point(i, [i]) for i in range(MAX_DEPTH + 1)],
    ]


class TestDepthIsNestingNotCount:
    @pytest.mark.parametrize("value", wide_values(), ids=["lists", "tuples", "dicts", "values"])
    def test_wide_values_round_trip_in_both_codecs(self, value):
        assert cdr_loads(cdr_dumps(value, REGISTRY), REGISTRY) == value
        assert jser_loads(jser_dumps(value, REGISTRY), REGISTRY) == value

    def test_cdr_cap_is_exactly_max_depth_containers(self):
        def nest(depth):
            value = [None]
            for _ in range(depth - 1):
                value = [value]
            return value

        assert cdr_loads(cdr_dumps(nest(MAX_DEPTH))) == nest(MAX_DEPTH)
        with pytest.raises(MarshalError, match="nested deeper"):
            cdr_dumps(nest(MAX_DEPTH + 1))
        # One container more, as the tree walk writes it.
        with pytest.raises(MarshalError, match="nested deeper"):
            cdr_loads(cdr_tree_walk.cdr_dumps(nest(MAX_DEPTH + 1)))

    def test_decoders_cap_a_value_type_like_any_container(self):
        def around(depth):
            value = Unit()  # its state is an empty dict, which opens nothing
            for _ in range(depth):
                value = [value]
            return value

        fits, one_more = around(MAX_DEPTH - 1), around(MAX_DEPTH)
        assert cdr_loads(cdr_tree_walk.cdr_dumps(fits, REGISTRY), REGISTRY) == fits
        assert jser_loads(tree_dumps(fits, REGISTRY), REGISTRY) == fits
        with pytest.raises(MarshalError, match="nested deeper"):
            cdr_loads(cdr_tree_walk.cdr_dumps(one_more, REGISTRY), REGISTRY)
        with pytest.raises(MarshalError, match="nested deeper"):
            jser_loads(tree_dumps(one_more, REGISTRY), REGISTRY)


class TestCdrDictFill:
    def test_last_duplicate_key_wins_as_in_the_tree_walk(self):
        # A dict's items are the stream key, value, key, value: write them as
        # a list, then make its head a dict's (tag 10, count 2).
        frame = bytearray(cdr_dumps(["k", 1, "k", 2]))
        frame[0], frame[4:8] = 10, struct.pack(">I", 2)
        frame = bytes(frame)
        assert cdr_tree_walk.cdr_loads(frame) == {"k": 2}
        assert cdr_loads(frame) == {"k": 2}

    @pytest.mark.parametrize(
        "value",
        [
            {"outer": {"a": 1, "b": 2}, "next": 3},
            {"outer": Point(1, "y"), "next": 3},
            {"outer": [{"a": 1}], "next": {"b": (Point(2, {"c": 3}),)}},
        ],
        ids=["dict-in-dict", "value-in-dict", "mixed"],
    )
    def test_a_container_value_keeps_its_outer_key(self, value):
        encoded = cdr_dumps(value, REGISTRY)
        assert encoded == cdr_tree_walk.cdr_dumps(value, REGISTRY)
        assert cdr_loads(encoded, REGISTRY) == value
        assert cdr_tree_walk.cdr_loads(encoded, REGISTRY) == value


# -- record layouts -------------------------------------------------------------

#: The primitive reads of the generic loop, by format.
PRIMITIVES = (">I", ">d", ">q")


def reader_calls(frame: bytes, at: int) -> Counter:
    """Each builtin ``read_any`` calls on ``frame[at:]``, by qualified name;
    a struct's ``unpack_from`` by the struct's format instead."""
    seen: Counter = Counter()

    def hook(frame, event, arg):
        if event == "c_call":
            name = arg.__qualname__
            seen[arg.__self__.format if name == "Struct.unpack_from" else name] += 1

    sys.setprofile(hook)
    try:
        read_any(frame, at)
    finally:
        sys.setprofile(None)
    del seen["setprofile"]
    return seen


def movements(count: int) -> list:
    return [
        {"kind": "deposit", "amount": i * 1.5, "balance_after": i * 2.25} for i in range(count)
    ]


def nest(value, levels: int):
    for _ in range(levels):
        value = [value]
    return value


class TestRecordLayoutCost:
    def test_a_later_history_record_is_one_unpack_from_and_no_key_is_read(self):
        """``HISTORY_64_REPLY`` holds records of two shapes, a ``set`` and two
        ``deposit`` movements in turn, and by its seventh record the reader
        has learned both.  Each record after that costs one matching
        ``unpack_from``, one ``decode`` (of the ``kind`` value) and one
        ``append``, with no length read and no key decoded; a ``set`` record
        first tries the ``deposit`` layout at its offset."""
        frame = cdr_golden.HISTORY_64_REPLY
        body = giop.decode_message(frame).body
        head = bytearray(frame[:14])
        write_any(head, body[:7])
        extra = reader_calls(frame, 14) - reader_calls(bytes(head), 14)
        later = len(body) - 7
        sets = sum(record["kind"] == "set" for record in body[7:])
        # The second field is the ``kind`` text: 7 octets, or 3 for ``set``.
        (deposit,) = (name for name in extra if name.startswith(">28s7s"))
        (set_,) = (name for name in extra if name.startswith(">28s3s"))
        # One deposit-layout unpack per deposit record and per set record.
        assert extra == Counter(
            {"bytes.decode": later, "list.append": later, deposit: later, set_: sets}
        )

    def test_a_record_of_the_one_shape_costs_three_calls(self):
        """The benchmark's ``history`` reply: every movement a ``deposit``."""
        def frame(count):
            buf = bytearray(14)
            write_any(buf, movements(count))
            return bytes(buf)

        extra = reader_calls(frame(64), 14) - reader_calls(frame(4), 14)
        (layout,) = (name for name in extra if name.startswith(">"))
        assert extra == Counter({layout: 60, "bytes.decode": 60, "list.append": 60})

    def test_records_of_ever_new_shapes_stop_being_tried(self):
        """Every text value a new length, so every record a new shape: once
        the walk has tried ``_LAYOUTS`` records, the first record that fits
        no layout ends the tries for the rest of the walk."""
        records = [{"id": i, "name": "x" * (3 + i), "score": i * 0.5} for i in range(64)]
        frame = cdr_dumps(records)
        calls = reader_calls(frame, 0)
        tries = sum(
            n for name, n in calls.items() if name.startswith(">") and name not in PRIMITIVES
        )
        assert tries <= 4 * cdr._LAYOUTS
        assert cdr_loads(frame) == records


class TestRecordLayoutsKeepNothing:
    def test_a_decode_leaves_the_module_as_it_was(self):
        def state():
            """Each attribute, and what a list, dict or set of them holds."""
            return {
                name: (value, copy.copy(value) if isinstance(value, (list, dict, set)) else None)
                for name, value in vars(cdr).items()
            }

        before = state()
        read_any(cdr_golden.HISTORY_64_REPLY, 14)
        after = state()
        assert after.keys() == before.keys()
        assert [
            name for name, (value, held) in before.items()
            if after[name][0] is not value or after[name][1] != held
        ] == []

    def test_only_the_decoded_records_hold_a_fresh_key(self):
        frame = cdr_dumps([{"k-" + "9f3c" * 4: i * 0.5, "n": i} for i in range(8)])
        value = cdr_loads(frame)
        records = {id(record) for record in value}
        fresh = next(iter(value[5]))
        outside = [
            holder for holder in gc.get_referrers(fresh)
            if id(holder) not in records and not isinstance(holder, types.FrameType)
        ]
        assert outside == []
        sharing = 0
        for record in value:
            for key in record:
                sharing += key is fresh
        del key
        assert sharing >= 7  # the records read by the layout share the first one's key
        assert sys.getrefcount(fresh) == sharing + 2  # the records, ``fresh``, the argument


class TestRecordLayoutFallback:
    """A later record the learned layout does not fit is read by the generic
    loop at the same offset: the same value, or the same error."""

    WIDTH = 88  # a movement from an 8-aligned offset

    def frame(self) -> bytearray:
        frame = bytearray(cdr_dumps(movements(4)))
        assert len(frame) == 8 + 4 * self.WIDTH
        return frame

    def record(self, index: int) -> int:
        return 8 + index * self.WIDTH

    def test_a_nonzero_pad_byte(self):
        frame = self.frame()
        frame[self.record(2) + 1] = 0xAA  # a pad between the dict tag and its count
        frame = bytes(frame)
        assert cdr_loads(frame) == cdr_tree_walk.cdr_loads(frame) == movements(4)

    def test_a_repeated_key(self):
        frame = cdr_dumps([{"ab": i * 1.0, "cd": f"v{i}"} for i in range(4)])
        at = -1
        for _ in range(4):  # to the fourth record's second key
            at = frame.index(b"cd", at + 1)
        frame = frame[:at] + b"ab" + frame[at + 2 :]
        expected = [{"ab": 0.0, "cd": "v0"}, {"ab": 1.0, "cd": "v1"}, {"ab": 2.0, "cd": "v2"},
                    {"ab": "v3"}]
        assert cdr_tree_walk.cdr_loads(frame) == expected
        assert repr(cdr_loads(frame)) == repr(expected)

    def test_invalid_utf8_in_a_value_fails_as_the_generic_loop_does(self):
        frame = self.frame()
        at = frame.index(b"deposit", self.record(3))
        frame[at] = 0xFF
        with pytest.raises(MarshalError) as by_layout:
            cdr_loads(bytes(frame))
        first = self.frame()  # the same record first in its list: the generic loop reads it
        first[first.index(b"deposit")] = 0xFF
        with pytest.raises(MarshalError) as generic:
            cdr_loads(bytes(first))
        assert str(by_layout.value) == str(generic.value)
        assert str(generic.value).startswith("corrupt CDR any: 'utf-8' codec can't decode")

    def test_a_record_list_nested_at_max_depth_minus_one(self):
        value = nest(movements(8), MAX_DEPTH - 2)  # the records are at MAX_DEPTH
        assert cdr_loads(cdr_dumps(value)) == value

    def test_a_learned_layout_never_reads_past_max_depth(self):
        """Records learned at the top, then a list one level too deep whose
        records follow a scalar (a first record would fail on its own)."""
        value = [*movements(3), nest([0, *movements(3)], MAX_DEPTH - 2)]
        with pytest.raises(MarshalError, match="nested deeper"):
            cdr_loads(cdr_tree_walk.cdr_dumps(value))
