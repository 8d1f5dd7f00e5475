"""Lists of records, written as one block where they are flat, against the tree walk.

``write_any`` writes a list or tuple of at least three flat records of one
shape (exact dicts, the same exact-``str`` keys in the same order, each
key's values of one exact scalar type) from per-call templates and one
``pack`` per numeric column; every other list goes to the generic loop.
These properties hold the bytes to ``tests/oracles/cdr_tree_walk.py`` and
every failure to the generic loop's own, on lists built to land on both
sides of each rule: values at and past the 64-bit bounds, text of one
length, of many and non-ASCII, lone surrogates, subclasses, non-``str``
keys, keys in another order and records at the nesting cap.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.serialization import cdr
from repro.serialization.cdr import MAX_DEPTH, write_any
from repro.util.errors import MarshalError
from tests.oracles import cdr_tree_walk

INT64_MAX = 2**63 - 1
INT64_MIN = -(2**63)


class Text(str):
    """Written through its own ``encode``, as both walks write a subclass."""

    def encode(self, *args):
        return str.encode(self.upper(), *args)


class Real(float):
    pass


class Record(dict):
    pass


VALUES = {
    "float": st.floats(),
    "int": st.sampled_from([INT64_MIN, INT64_MAX, 0, -7])
    | st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
    "none": st.none(),
    "bool": st.booleans(),
    "fixed": st.sampled_from(["set", "dep", "wdr"]),  # one length, few kinds
    "text": st.sampled_from(["", "set", "deposit", "x" * 9]) | st.text(max_size=6),
    "non-ascii": st.sampled_from(["é", "日本", "héllo", "\U0001f600"]),
}

KEYS = ["kind", "amount", "balance_after", "id", "k", "é", "name"]

#: Lone surrogates, each at another position, so the error names which.
SURROGATES = ["\ud800", "a\udc80", "bb\udfff"]

#: The kinds whose values keep a record's width whatever they are.
FIXED_WIDTH = ["bool", "fixed", "float", "int", "none"]


def shapes(kinds: list):
    """An ordered set of keys, each with the kind of its value."""
    return st.lists(
        st.tuples(st.sampled_from(KEYS), st.sampled_from(kinds)),
        min_size=1, max_size=4, unique_by=lambda field: field[0],
    )


def nest(value, levels: int):
    for _ in range(levels):
        value = [value]
    return value


@st.composite
def record_lists(draw):
    """A list or tuple of 0-70 records of 1-6 shapes, some of them spoilt
    the ways the record writer must notice, perhaps nested at or one level
    below the depth cap; and the count of octets written before it (0-7)."""
    pool = draw(st.sampled_from([FIXED_WIDTH, sorted(VALUES)]))
    choices = draw(st.lists(shapes(pool), min_size=1, max_size=6))
    order = draw(st.sampled_from(["repeated", "repeated", "repeated", "alternating", "any"]))
    count = draw(st.integers(min_value=0, max_value=70))
    records = []
    for index in range(count):
        if order == "repeated":
            shape = choices[0]
        elif order == "alternating":
            shape = choices[index % len(choices)]
        else:
            shape = draw(st.sampled_from(choices))
        records.append({key: draw(VALUES[kind]) for key, kind in shape})
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2])) if records else 0):
        at = draw(st.integers(min_value=0, max_value=len(records) - 1))
        record = records[at]
        key = draw(st.sampled_from(list(record)))
        spoil = draw(st.sampled_from(
            ["bigint", "surrogate value", "surrogate key", "str subclass", "float subclass",
             "dict subclass", "int key", "str subclass key", "reordered"]
        ))
        if spoil == "bigint":  # just past either bound
            record[key] = draw(st.sampled_from([INT64_MIN - 1, INT64_MAX + 1]))
        elif spoil == "surrogate value":
            record[key] = draw(st.sampled_from(SURROGATES))
        elif spoil == "surrogate key":
            records[at] = {draw(st.sampled_from(SURROGATES)) if k == key else k: v
                           for k, v in record.items()}
        elif spoil == "str subclass":
            record[key] = Text(draw(VALUES["fixed"]))
        elif spoil == "float subclass":
            record[key] = Real(draw(VALUES["float"]))
        elif spoil == "dict subclass":
            records[at] = Record(record)
        elif spoil == "int key":
            records[at] = {3 if k == key else k: v for k, v in record.items()}
        elif spoil == "str subclass key":
            records[at] = {Text(k) if k == key else k: v for k, v in record.items()}
        else:
            records[at] = dict(reversed(record.items()))
    value = records if draw(st.booleans()) else tuple(records)
    levels = draw(st.sampled_from([0, 0, 0, 1, MAX_DEPTH - 2, MAX_DEPTH - 1]))
    return nest(value, levels), draw(st.integers(min_value=0, max_value=7))


def outcome(write, value, lead: int):
    """``("bytes", frame)`` or ``("error", text)`` of one write."""
    buf = bytearray(lead)
    try:
        write(buf, value)
    except MarshalError as exc:
        return "error", str(exc)
    return "bytes", bytes(buf)


def generic_loop(buf, value):
    """``write_any`` with every list left to the generic loop."""
    with mock.patch.object(cdr, "_write_records", lambda buf, value: False):
        write_any(buf, value)


def tree_walk(buf, value):
    out = cdr_tree_walk.CdrOutputStream()
    for _ in range(len(buf)):
        out.write_octet(0)
    try:
        out.write_any(value)
    except UnicodeEncodeError as exc:  # the tree walk leaks it
        raise MarshalError(f"cannot marshal string: {exc}") from exc
    buf[:] = out.getvalue()


@given(record_lists())
@settings(max_examples=300, deadline=None)
def test_record_lists_are_written_as_the_tree_walk_writes_them(case):
    value, lead = case
    written = outcome(write_any, value, lead)
    assert written == outcome(generic_loop, value, lead)
    if written[0] == "error" and "nested deeper" in written[1]:
        return  # the tree walk has no cap: the generic loop's error is the reference
    assert written == outcome(tree_walk, value, lead)


def late_and_early_values() -> list:
    """A surrogate in a late record's value, then one in an earlier one's."""
    records = [{"kind": "set", "amount": i * 1.0} for i in range(40)]
    records[30]["kind"] = SURROGATES[2]
    records[9]["kind"] = SURROGATES[1]
    return records


def a_key_behind_a_value() -> list:
    """Every record's second key a surrogate, the first record's first value
    one too: the value comes first in write order."""
    records = [{"kind": "set", SURROGATES[0]: i * 1.0} for i in range(40)]
    records[0]["kind"] = SURROGATES[1]
    return records


@pytest.mark.parametrize("records", [late_and_early_values(), a_key_behind_a_value()],
                         ids=["late and early values", "a key behind a value"])
def test_the_first_string_that_does_not_encode_in_write_order_is_named(records):
    written = outcome(write_any, records, 3)
    assert written == outcome(generic_loop, records, 3) == outcome(tree_walk, records, 3)
    assert written[0] == "error" and "'\\udc80' in position 1" in written[1]


def test_records_at_the_cap_fail_and_one_level_below_it_are_written():
    records = [{"kind": "deposit", "amount": i * 1.5} for i in range(8)]
    below = nest(records, MAX_DEPTH - 2)
    assert outcome(write_any, below, 5) == outcome(tree_walk, below, 5)
    at_cap = nest(records, MAX_DEPTH - 1)
    assert outcome(write_any, at_cap, 5) == (
        "error", f"CDR any nested deeper than {MAX_DEPTH}"
    ) == outcome(generic_loop, at_cap, 5)
