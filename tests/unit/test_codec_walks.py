"""The bookkeeping of the four codec walks: ``jser_dumps`` / ``jser_loads``
and ``write_any`` / ``read_any`` (through ``cdr_dumps`` / ``cdr_loads``).

Each walk keeps its enclosing containers as a chain of tuples in a local, so
entering or leaving a container makes no call, and the CDR reader fills a
dict as its keys and values arrive.  The nesting cap counts containers open
at once, not containers seen, and sits at exactly ``MAX_DEPTH`` in each walk.
The CDR reader reads a list's later records by the layouts it learned from
earlier ones of each shape, those of one shape in a row as one block, in as
many calls whatever its length, and keeps nothing of them once it returns.
The CDR writer writes a list of same-shaped records as one block, in as many
calls whatever its length, and otherwise costs the generic loop a fixed few.
jser writes and reads a declared wire name with no ``encode``, ``len`` or
``decode``, learns none from a value, and fills a list or tuple in place.
"""

import copy
import gc
import struct
import sys
import types
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.bank import bank_compiled
from repro.core import request as core_request
from repro.orb import giop
from repro.qos.security import integrity, privacy
from repro.rmi import jrmp
from repro.serialization import cdr, jser
from repro.serialization.cdr import MAX_DEPTH, cdr_dumps, cdr_loads, read_any, write_any
from repro.serialization.jser import jser_dumps, jser_loads
from repro.serialization.registry import TypeRegistry
from repro.serialization.tags import NAME_RUNS, NAMES_BY_TEXT
from repro.util.errors import MarshalError
from tests.oracles import cdr_golden, cdr_tree_walk
from tests.oracles.jser_tree_walk import tree_dumps, tree_loads


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
        # A list or tuple is filled in place: the one append is the context
        # dict's handle, none is a child of the frame or of its arguments.
        assert walks["jser_loads"]["list.append"] == 1
        nested = jser_dumps(([1, (2, 3), [4]], (5, 6, 7)))
        assert builtin_calls(jser_loads, nested)["list.append"] == 2  # two lists' handles

    def test_a_call_frame_encodes_only_its_undeclared_texts(self):
        """The frame kind, the operation and the piggyback keys are declared
        names, written as pre-built runs and read back without a decode; the
        object id and the two piggyback values are not."""
        bank_compiled()  # declares the bank's operation names
        frame = jrmp_call_frame()
        call = jser_loads(frame)
        texts = [call[0], call[1], call[2], *call[4], *call[4].values()]
        undeclared = [text for text in texts if text not in NAME_RUNS]
        assert undeclared == ["acct", "client-1", "req:1"]
        assert builtin_calls(jser_dumps, call)["str.encode"] == len(undeclared)
        assert builtin_calls(jser_loads, frame)["bytes.decode"] == len(undeclared)


# -- declared wire names ----------------------------------------------------------

DECLARED = (
    "call", "return", "throw", "system",  # rmi.jrmp's frame kinds
    core_request.PB_REQUEST_ID, core_request.PB_CLIENT_ID, core_request.PB_SIGNATURE,
    core_request.PB_VIEW_DELTA, privacy.CT_KEY, integrity.SIG_KEY, integrity.VALUE_KEY,
)


class Loud(str):
    """A ``str`` subclass both walks write through its own ``encode``."""

    def encode(self, *args):
        return str.encode(self.upper(), *args)


def names_table() -> tuple:
    return dict(NAME_RUNS), dict(NAMES_BY_TEXT)


texts = st.one_of(st.sampled_from(DECLARED), st.text(max_size=12))
named_values = st.recursive(
    st.one_of(texts, st.none(), st.integers(-(2**70), 2**70), st.binary(max_size=12)),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(texts, children, max_size=4),
        st.tuples(children, children),
    ),
    max_leaves=20,
)


class TestDeclaredNames:
    def test_the_owners_declare_their_names(self):
        bank_compiled()
        for name in (*DECLARED, "set_balance", "get_balance", "history"):
            assert NAME_RUNS[name] == tree_dumps(name)  # tag, length, UTF-8
            assert NAMES_BY_TEXT[name.encode()] == name

    @given(named_values)
    @settings(max_examples=200)
    def test_walks_leave_the_table_as_it_was(self, value):
        """Nothing written or read is learned: neither a declared name's
        container nor any other text adds, drops or replaces an entry."""
        before = names_table()
        encoded = jser_dumps(value)
        assert encoded == tree_dumps(value)
        assert jser_loads(encoded) == tree_loads(encoded) == value
        assert names_table() == before
        assert all(NAME_RUNS[name] is run for name, run in before[0].items())

    def test_a_decoded_name_is_the_declared_object(self):
        text = "".join(["cqos_", "client"])  # built at run time: not the declared object
        (decoded,) = jser_loads(jser_dumps([text]))
        assert decoded is NAMES_BY_TEXT[b"cqos_client"]

    @pytest.mark.parametrize(
        "value, written",
        [
            (Loud("call"), b"CALL"),
            ([Loud("call"), "call"], b"CALL"),
            ({Loud("v"): "call", "return": Loud("v")}, b"V"),
            ((Loud("__cqos_ct__"),), b"__CQOS_CT__"),
        ],
        ids=["alone", "in-a-list", "dict-key-and-value", "in-a-tuple"],
    )
    def test_a_str_subclass_equal_to_a_name_keeps_its_own_encode(self, value, written):
        encoded = jser_dumps(value)
        assert encoded == tree_dumps(value)
        assert bytes((6, len(written))) + written in encoded

    @pytest.mark.parametrize(
        "data, text",
        [
            (bytes([6, 2, 0xC3, 0x28]),
             "corrupt jser stream: 'utf-8' codec can't decode byte 0xc3 in position 0: "
             "invalid continuation byte"),
            (bytes([9, 1, 6, 2, 0xC3, 0x28]),
             "corrupt jser stream: 'utf-8' codec can't decode byte 0xc3 in position 0: "
             "invalid continuation byte"),
            (bytes([9, 2, 6, 4]) + b"cal\xff" + bytes([0]),
             "corrupt jser stream: 'utf-8' codec can't decode byte 0xff in position 3: "
             "invalid start byte"),
            (bytes([8, 3, 0, 0]), "jser stream truncated"),
            (bytes([9, 5, 0]), "jser stream truncated"),
            (bytes([6, 4]) + b"cal", "jser stream truncated"),
            (bytes([9, 2, 6, 4]) + b"cal", "jser stream truncated"),
        ],
        ids=["str", "str-in-a-tuple", "name-with-a-bad-octet", "list-count", "tuple-count",
             "name-cut", "name-cut-in-a-tuple"],
    )
    def test_bad_frames_fail_with_the_texts_they_had(self, data, text):
        with pytest.raises(MarshalError) as raised:
            jser_loads(data)
        assert str(raised.value) == text

    def test_every_cut_of_a_call_frame_is_truncated(self):
        bank_compiled()
        frame = jrmp_call_frame()
        for cut in range(len(frame)):
            with pytest.raises(MarshalError, match="^jser stream truncated$"):
                jser_loads(frame[:cut])

    @pytest.mark.parametrize("tag", [8, 9], ids=["list", "tuple"])
    @pytest.mark.parametrize("count", [2**62, 2**64 + 1, 5], ids=["2**62", "2**64+1", "5"])
    def test_a_count_the_bytes_cannot_hold_allocates_nothing(self, tag, count):
        """Each child takes an octet at least: a larger count is refused
        before a list of that many slots is made."""
        with pytest.raises(MarshalError, match="^jser stream truncated$"):
            jser_loads(jser._head(tag, count) + bytes(4))
        assert jser_loads(bytes((tag, 4)) + bytes(4)) == (
            [None] * 4 if tag == 8 else (None,) * 4
        )


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


def layout_reads(calls: Counter) -> dict:
    """The ``unpack_from`` calls of learned layouts, by format."""
    return {name: n for name, n in calls.items() if name.startswith(">") and name not in PRIMITIVES}


def movements_frame(count: int) -> bytes:
    """``count`` benchmark movements after 14 octets, as in a GIOP reply."""
    buf = bytearray(14)
    write_any(buf, movements(count))
    return bytes(buf)


class TestRecordLayoutCost:
    def test_a_later_history_record_is_one_unpack_from_and_no_key_is_read(self):
        """``HISTORY_64_REPLY`` holds records of two shapes, a ``set`` and two
        ``deposit`` movements in turn, and by its seventh record the reader
        has learned both.  Neither forms a block: each layout's one block
        try stops at its look at the next sibling, which has the other shape.
        So each record after the seventh costs one matching ``unpack_from``,
        one ``decode`` (of the ``kind`` value) and one ``append``, with no
        length read and no key decoded; a ``set`` record first tries the
        ``deposit`` layout at its offset, and the ``set`` layout's block try
        (at the seventh record, the last of the shorter list) looks at the
        ``deposit`` record after it."""
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
            {"bytes.decode": later, "list.append": later, deposit: later, set_: sets + 1}
        )

    def test_a_record_of_the_one_shape_costs_three_calls(self):
        """The benchmark's ``history`` reply: every movement a ``deposit``.
        The third record, when it is the last, costs three calls: one
        ``unpack_from`` of the layout learned from the second, a ``decode``
        and an ``append``.  (Learning that layout, which the second record
        of two does not, reads five lengths and one ``len``.)  With more to
        come it starts a block, and the fourth to the last cost no call."""
        extra = reader_calls(movements_frame(3), 14) - reader_calls(movements_frame(2), 14)
        (layout,) = layout_reads(extra)
        learning = {">I": 5, "len": 1}
        assert extra == Counter({layout: 1, "bytes.decode": 1, "list.append": 1, **learning})
        assert reader_calls(movements_frame(64), 14) == reader_calls(movements_frame(4), 14)

    def test_a_first_record_no_sibling_starts_like_teaches_nothing(self):
        """The benchmark's ``history`` reply: the first movement starts at
        residue 4 and every later one at 0, so only the second teaches a
        layout, and the third to the last are read by it as one block: one
        ``unpack_from`` for the third, one for the fourth (the block try's
        look at the next sibling), one ``iter_unpack`` for all 62."""
        calls = reader_calls(movements_frame(64), 14)
        (layout,) = layout_reads(calls)
        assert layout_reads(calls) == {layout: 2}
        assert (calls["Struct.iter_unpack"], calls["list.append"]) == (1, 2)

    def test_records_that_alternate_residues_still_read_by_layout(self):
        """A record 28 octets wide from either residue 0 or 4: siblings
        alternate between the two, so neither of the first two has a next
        sibling at its own residue.  The third and fourth each start where an
        earlier one did and teach a layout; from the fifth on each record is
        one ``unpack_from``, a decode and an append.  A width that is not a
        multiple of 8 moves the next sibling to another residue, so these
        records form no block."""
        def frame(count):
            return cdr_dumps([{"k": f"{i % 10000:04d}"} for i in range(count)])

        assert len(frame(3)) - len(frame(2)) == 28
        # Both layouts have one format: a 28-octet record has no 8-octet value.
        (layout,) = (name for name in reader_calls(frame(8), 0) if name.startswith(">24s4s"))
        assert reader_calls(frame(8), 0)[layout] == 4  # the fifth to the eighth
        extra = reader_calls(frame(64), 0) - reader_calls(frame(8), 0)
        assert extra == Counter({layout: 56, "bytes.decode": 56, "list.append": 56})
        assert "Struct.iter_unpack" not in reader_calls(frame(64), 0)
        assert cdr_loads(frame(64)) == [{"k": f"{i:04d}"} for i in range(64)]

    def test_records_of_ever_new_shapes_stop_being_tried(self, monkeypatch):
        """Every text value a new length, so every record a new shape: the
        walk learns a layout from the first record, tries it on the second
        and the third, and at that second misfit, with no record fitted,
        stops learning and trying for the rest of the walk."""
        records = [{"id": i, "name": "x" * (3 + i), "score": i * 0.5} for i in range(64)]
        frame = cdr_dumps(records)
        learned = []
        layout = cdr._layout
        monkeypatch.setattr(
            cdr, "_layout", lambda *args: learned.append(args[1]) or layout(*args)
        )
        calls = reader_calls(frame, 0)
        assert learned == [8]  # the first record, after the list's head
        assert list(layout_reads(calls).values()) == [2]
        assert "Struct.iter_unpack" not in calls
        assert cdr_loads(frame) == records

    def test_sixty_four_movements_read_at_the_cost_of_eight(self):
        """The reader's converse of the writer's cost: the movements from the
        third on are one block, checked and built by column, so its calls do
        not grow with its records.  The generic loop reads the first two,
        the second teaches the layout, and the block costs an ``unpack_from``
        of the third, one of the fourth, a ``min``, an ``iter_unpack``, a
        ``dict.fromkeys`` for the template and a ``len``."""
        calls = reader_calls(movements_frame(64), 14)
        assert calls == reader_calls(movements_frame(8), 14)
        assert (calls["min"], calls["Struct.iter_unpack"], calls["dict.fromkeys"]) == (1, 1, 1)
        assert sum(calls.values()) == 38

    def test_the_golden_history_costs_what_it_did_record_by_record(self):
        """``HISTORY_64_REPLY`` mixes ``set`` and ``deposit`` records, so it
        forms no block; its two block tries, one ``unpack_from`` each, are
        paid for by the two learned layouts, whose runs are sliced from the
        record rather than unpacked.  256 calls, as when every later record
        was read one at a time."""
        assert sum(reader_calls(cdr_golden.HISTORY_64_REPLY, 14).values()) == 256


def cdr_state() -> dict:
    """Each attribute of ``cdr``, and what a list, dict or set of them holds."""
    return {
        name: (value, copy.copy(value) if isinstance(value, (list, dict, set)) else None)
        for name, value in vars(cdr).items()
    }


def changed_since(before: dict) -> list:
    after = cdr_state()
    assert after.keys() == before.keys()
    return [
        name for name, (value, held) in before.items()
        if after[name][0] is not value or after[name][1] != held
    ]


class TestRecordLayoutsKeepNothing:
    def test_a_decode_leaves_the_module_as_it_was(self):
        before = cdr_state()
        read_any(cdr_golden.HISTORY_64_REPLY, 14)
        assert changed_since(before) == []

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

    def test_the_first_bad_text_of_a_block_fails_first(self):
        """Two text columns, a bad text in the second column of the fifth
        record and another in the first column of the ninth: the block
        decodes by column, and still names the fifth record's, as the
        generic loop does."""
        frame = bytearray(cdr_dumps([{"a": "aaa", "b": "bbb", "n": i * 1.0} for i in range(12)]))
        width = (len(frame) - 8) // 12
        assert width % 8 == 0  # every record at one residue: the third on are one block
        fifth = frame.index(b"bbb", 8 + 4 * width)
        ninth = frame.index(b"aaa", 8 + 8 * width)
        frame[fifth], frame[ninth + 1] = 0xFF, 0xFE
        with pytest.raises(MarshalError) as by_block:
            cdr_loads(bytes(frame))
        with mock.patch.object(cdr, "_layout", lambda *args: None):
            with pytest.raises(MarshalError) as generic:
                cdr_loads(bytes(frame))
        assert str(by_block.value) == str(generic.value)
        assert "byte 0xff in position 0" in str(generic.value)

    def test_a_record_list_nested_at_max_depth_minus_one(self):
        value = nest(movements(8), MAX_DEPTH - 2)  # the records are at MAX_DEPTH
        assert cdr_loads(cdr_dumps(value)) == value

    def test_a_learned_layout_never_reads_past_max_depth(self):
        """Records learned at the top, then a list one level too deep whose
        records follow a scalar (a first record would fail on its own)."""
        value = [*movements(3), nest([0, *movements(3)], MAX_DEPTH - 2)]
        with pytest.raises(MarshalError, match="nested deeper"):
            cdr_loads(cdr_tree_walk.cdr_dumps(value))


# -- the record writer ----------------------------------------------------------


def writer_calls(value, lead: int = 14) -> Counter:
    """Each call ``write_any`` makes writing ``value`` after ``lead``
    octets: a builtin by qualified name, a Python function by name."""
    seen: Counter = Counter()

    def hook(frame, event, arg):
        if event == "c_call":
            seen[arg.__qualname__] += 1
        elif event == "call":
            seen[frame.f_code.co_name] += 1

    buf = bytearray(lead)
    sys.setprofile(hook)
    try:
        write_any(buf, value)
    finally:
        sys.setprofile(None)
    del seen["setprofile"]
    return seen


def generic_calls(monkeypatch, value, lead: int = 14) -> Counter:
    """The same, with every list left to the generic loop."""
    monkeypatch.setattr(cdr, "_write_records", lambda buf, value: False)
    try:
        seen = writer_calls(value, lead)
    finally:
        monkeypatch.undo()
    del seen["<lambda>"]
    return seen


def written(value, lead: int) -> bytes:
    buf = bytearray(lead)
    write_any(buf, value)
    return bytes(buf)


def tree_walk_written(value, lead: int) -> bytes:
    out = cdr_tree_walk.CdrOutputStream()
    for _ in range(lead):
        out.write_octet(0)
    out.write_any(value)
    return out.getvalue()


def falling_back(count: int) -> dict:
    """Lists of ``count`` records the record writer hands to the generic loop."""
    return {
        "a str subclass key": [
            {Loud("kind") if i == count // 2 else "kind": "set", "amount": i * 1.0}
            for i in range(count)
        ],
        "text of many lengths": [
            {"id": i, "name": "x" * (3 + i), "score": i * 0.5} for i in range(count)
        ],
        "a bigint": [{"n": 2**63 if i == count // 2 else i} for i in range(count)],
        "a float subclass": [
            {"v": type("F", (float,), {})(i) if i == count - 1 else float(i)}
            for i in range(count)
        ],
        "a dict subclass": [type("D", (dict,), {})(m) if i == 2 else m
                            for i, m in enumerate(movements(count))],
        "keys in another order": [
            dict(reversed(m.items())) if i == count - 1 else m
            for i, m in enumerate(movements(count))
        ],
        "a width not a multiple of 8": [{"k": f"{i % 2:04d}"} for i in range(count)],
        "templates of two widths": [
            {"a": i * 1.0, "b": "x" if i % 2 else "x" * 12} for i in range(count)
        ],
        "too many bool combinations": [
            {"p": bool(i & 1), "q": bool(i & 2), "r": bool(i & 4)} for i in range(count)
        ],
        "a container value": [{"k": [i]} for i in range(count)],
    }


class TestRecordWriterCost:
    def test_sixty_four_movements_cost_what_eight_do(self):
        """The block is checked and packed by column, so its calls do not
        grow with its records: the generic loop writes the first movement
        and one template, and the rest is a pack per numeric column."""
        assert writer_calls(movements(64)) == writer_calls(movements(8))
        calls = writer_calls(movements(64))
        assert (calls["write_any"], calls["_layout"], calls["pack"]) == (1 + 1 + 1, 1, 2)
        assert sum(calls.values()) < 100

    def test_the_golden_history_is_written_as_one_block(self, monkeypatch):
        history = giop.decode_message(cdr_golden.HISTORY_64_REPLY).body
        assert written(history, 14)[14:] == cdr_golden.HISTORY_64_REPLY[14:]
        calls = writer_calls(history)
        # The list, the first record, then a template for a set and a deposit.
        assert (calls["write_any"], calls["_layout"]) == (1 + 1 + 2, 2)
        assert sum(calls.values()) < sum(generic_calls(monkeypatch, history).values()) / 10

    @pytest.mark.parametrize("case", sorted(falling_back(3)))
    def test_a_list_that_falls_back_costs_a_fixed_number_of_calls_more(self, case, monkeypatch):
        """At most the first record and a template or two written by the
        generic loop before a rule fails, whatever the count."""
        extra = []
        for count in (16, 64):
            value = falling_back(count)[case]
            assert written(value, 5) == tree_walk_written(value, 5)
            extra.append(
                sum(writer_calls(value, 5).values())
                - sum(generic_calls(monkeypatch, value, 5).values())
            )
        assert extra[0] == extra[1] <= 60

    @pytest.mark.parametrize(
        "value",
        [
            movements(2),
            tuple(movements(2)),
            [0, *movements(3)],
            [[1], *movements(3)],
            [type("D", (dict,), {})(), *movements(3)],
            list(range(64)),
        ],
        ids=["two records", "a tuple of two", "an int first", "a list first",
             "a dict subclass first", "ints"],
    )
    def test_a_short_list_or_one_not_led_by_a_dict_costs_no_call_more(self, value, monkeypatch):
        calls = writer_calls(value)
        assert "_write_records" not in calls
        assert calls == generic_calls(monkeypatch, value)


class TestRecordWriterTouchesNoKeyObject:
    @pytest.mark.parametrize("at", [0, 3, 7], ids=["first", "in the window", "past the window"])
    def test_a_key_of_a_value_type_is_never_hashed_or_compared(self, at):
        """The generic loop writes a dict's keys without hashing or comparing
        them; the record writer, which looks keys up and compares them, does
        so only with keys known to be exact ``str``, wherever the odd key is:
        in the first record, in one of the five it looks up text values in
        first, or in a later one."""
        touched = []

        class Key:
            def __init__(self, name):
                self.name = name

            def __hash__(self):
                touched.append(("hash", self.name))
                return hash(self.name)  # the same as its name's: lookups collide

            def __eq__(self, other):
                touched.append(("eq", self.name))
                return type(other) is Key and other.name == self.name

        registry = TypeRegistry()
        registry.register("walks.Key", Key)
        records = [{"kind": "set", "amount": i * 1.0} for i in range(8)]
        records[at] = {Key("kind"): "set", "amount": 0.5}
        touched.clear()
        frame = cdr_dumps(records, registry)
        assert touched == []
        assert frame == cdr_tree_walk.cdr_dumps(records, registry)


class TestRecordWriterKeepsNothing:
    def test_a_write_leaves_the_module_as_it_was(self):
        before = cdr_state()
        cdr_dumps(giop.decode_message(cdr_golden.HISTORY_64_REPLY).body)
        cdr_dumps(movements(64))
        for value in falling_back(8).values():
            cdr_dumps(value)
        assert changed_since(before) == []

    def test_no_text_value_or_key_is_held_once_the_write_returns(self):
        kind = "".join(["depo", "sit-", "9f3c"])  # built at run time: no constant holds it
        key = "".join(["bal", "ance"])
        records = [{"kind": kind, key: i * 0.5} for i in range(16)]
        held = sys.getrefcount(kind), sys.getrefcount(key)
        frame = cdr_dumps(records)
        assert (sys.getrefcount(kind), sys.getrefcount(key)) == held
        assert frame == cdr_tree_walk.cdr_dumps(records)
