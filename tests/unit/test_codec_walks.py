"""The bookkeeping of the four codec walks: ``jser_dumps`` / ``jser_loads``
and ``write_any`` / ``read_any`` (through ``cdr_dumps`` / ``cdr_loads``).

Each walk keeps its enclosing containers as a chain of tuples in a local, so
entering or leaving a container makes no call, and the CDR reader fills a
dict as its keys and values arrive.  The nesting cap counts containers open
at once, not containers seen, and sits at exactly ``MAX_DEPTH`` in each walk.
"""

import struct
import sys
from collections import Counter

import pytest

from repro.orb import giop
from repro.rmi import jrmp
from repro.serialization.cdr import MAX_DEPTH, cdr_dumps, cdr_loads
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
