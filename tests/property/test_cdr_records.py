"""Lists of same-shaped records, read by learned layouts, against the tree walk.

``read_any`` reads a list or tuple element that matches a record layout it
learned earlier in the same walk with one ``unpack_from``; these properties
hold it to ``tests/oracles/cdr_tree_walk.py``, which reads every value the
long way, on clean frames and on cut or byte-flipped ones.
"""

from hypothesis import given, settings, strategies as st

from repro.serialization.cdr import read_any, write_any
from repro.util.errors import MarshalError
from tests.oracles import cdr_tree_walk

KEYS = ["kind", "amount", "balance_after", "id", "k", "é", "name"]

VALUES = {
    "str": st.sampled_from(["", "set", "deposit", "héllo", "x" * 9]) | st.text(max_size=6),
    "float": st.floats(allow_nan=False),
    "int": st.integers(min_value=-(2**63), max_value=2**63 - 1),
    "none": st.none(),
}

# A shape is an ordered set of keys, each with the kind of its value.
shapes = st.lists(
    st.tuples(st.sampled_from(KEYS), st.sampled_from(sorted(VALUES))),
    min_size=1, max_size=4, unique_by=lambda field: field[0],
)


@st.composite
def record_lists(draw):
    """A list or tuple of 2-12 records of 2-4 shapes (repeated, alternating
    or in any order) and the count of octets written before it (0-7)."""
    kinds = draw(st.lists(shapes, min_size=2, max_size=4))
    count = draw(st.integers(min_value=2, max_value=12))
    order = draw(st.sampled_from(["repeated", "alternating", "any"]))
    records = []
    for index in range(count):
        if order == "repeated":
            shape = kinds[0]
        elif order == "alternating":
            shape = kinds[index % len(kinds)]
        else:
            shape = draw(st.sampled_from(kinds))
        records.append({key: draw(VALUES[kind]) for key, kind in shape})
    value = records if draw(st.booleans()) else tuple(records)
    return value, draw(st.integers(min_value=0, max_value=7))


def encode(value, lead: int) -> bytes:
    buf = bytearray(lead)
    write_any(buf, value)
    return bytes(buf)


def outcome(read, frame: bytes, lead: int):
    """``("value", repr)`` or ``("error",)``: repr tells a list from a tuple
    and keeps a dict's order."""
    try:
        return "value", repr(read(frame, lead))
    except MarshalError:
        return ("error",)


def oracle(frame: bytes, lead: int):
    stream = cdr_tree_walk.CdrInputStream(frame)
    stream.seek(lead)
    try:
        return stream.read_any()
    except (UnicodeDecodeError, ValueError, TypeError) as exc:  # it leaks these
        raise MarshalError(str(exc)) from exc


def under_test(frame: bytes, lead: int):
    return read_any(frame, lead)[0]


@given(record_lists())
@settings(max_examples=300, deadline=None)
def test_record_lists_decode_as_the_tree_walk_reads_them(case):
    value, lead = case
    frame = encode(value, lead)
    out = cdr_tree_walk.CdrOutputStream()
    for _ in range(lead):
        out.write_octet(0)
    out.write_any(value)
    assert out.getvalue() == frame
    assert repr(under_test(frame, lead)) == repr(oracle(frame, lead)) == repr(value)


@given(record_lists(), st.data())
@settings(max_examples=300, deadline=None)
def test_cut_or_flipped_record_lists_fail_or_decode_as_the_tree_walk(case, data):
    """Either both readers give the same value or both fail."""
    value, lead = case
    frame = encode(value, lead)
    cut = data.draw(st.integers(min_value=lead, max_value=len(frame) - 1))
    assert outcome(under_test, frame[:cut], lead) == ("error",)
    assert outcome(oracle, frame[:cut], lead) == ("error",)
    flipped = bytearray(frame)
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        at = data.draw(st.integers(min_value=lead, max_value=len(frame) - 1))
        flipped[at] = data.draw(st.integers(min_value=0, max_value=255))
    flipped = bytes(flipped)
    assert outcome(under_test, flipped, lead) == outcome(oracle, flipped, lead)
