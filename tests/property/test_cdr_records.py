"""Lists of same-shaped records, read by learned layouts, against the tree walk.

``read_any`` reads a list or tuple element that matches a record layout it
learned earlier in the same walk with one ``unpack_from``, and at a layout's
first fit the siblings after it that fit too as one block; these properties
hold it to ``tests/oracles/cdr_tree_walk.py``, which reads every value the
long way, on clean frames and on cut or byte-flipped ones, and hold every
``MarshalError`` text to the generic loop's, run with no layout learned.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.serialization import cdr
from repro.serialization.cdr import MAX_DEPTH, read_any, write_any
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


# -- blocks -------------------------------------------------------------------

#: A text value no key, length or other text holds, to make invalid in place.
MARKER = "\x01\x02\x03"

#: Values that keep a record's width: a block's records share one shape.
BLOCK_VALUES = {
    "text": st.sampled_from(["set", "dep", "wdr", MARKER]),
    "float": st.floats(),
    "int": st.integers(min_value=-(2**63), max_value=2**63 - 1),
    "none": st.none(),
    "true": st.just(True),
}


def nest(value, levels: int):
    for _ in range(levels):
        value = [value]
    return value


@st.composite
def record_blocks(draw):
    """A list or tuple of 3-70 records of one shape (often ending in an
    8-octet value, so that each record's width keeps the next at its
    residue), perhaps nested so its records sit at ``MAX_DEPTH`` or one
    past it, after 0-7 lead octets; one record from the second on is
    spoilt, and the frame cut, byte-flipped or made invalid UTF-8 there, or
    made invalid UTF-8 there and cut after it.

    Returns the frame, the lead and what was done."""
    shape = draw(st.lists(
        st.tuples(st.sampled_from(KEYS), st.sampled_from(sorted(BLOCK_VALUES))),
        min_size=1, max_size=4, unique_by=lambda field: field[0],
    ))
    if draw(st.booleans()):
        shape = [*shape, ("zz", "float")]
    count = draw(st.integers(min_value=3, max_value=70))
    records = [{key: draw(BLOCK_VALUES[kind]) for key, kind in shape} for _ in range(count)]
    at = draw(st.integers(min_value=1, max_value=count - 1))
    texts = [key for key, kind in shape if kind == "text"]
    spoil = draw(st.sampled_from(["none", "cut", "flip", "shape", "utf-8", "utf-8, cut after"]))
    if spoil == "shape":  # a longer text, or one key more
        if texts:
            records[at][texts[0]] = "deposit"
        else:
            records[at]["extra"] = 1.5
    elif spoil.startswith("utf-8") and texts:
        records[at][texts[0]] = MARKER
    value = records if draw(st.booleans()) else tuple(records)
    levels = draw(st.sampled_from([0, 0, 1, MAX_DEPTH - 2, MAX_DEPTH - 1]))
    lead = draw(st.integers(min_value=0, max_value=7))
    frame = encode_deep(nest(value, levels), lead)
    # The spoilt record's bytes: the list before it is as long as its head.
    start = len(encode_deep(nest(records[:at], levels), lead))
    end = len(encode_deep(nest(records[: at + 1], levels), lead))
    if spoil == "cut":
        frame = frame[: draw(st.integers(min_value=start, max_value=end - 1))]
    elif spoil == "flip":
        flipped = bytearray(frame)
        flipped[draw(st.integers(min_value=start, max_value=end - 1))] = draw(
            st.integers(min_value=0, max_value=255)
        )
        frame = bytes(flipped)
    elif spoil.startswith("utf-8") and texts:
        marker = frame.index(MARKER.encode(), start, end)
        frame = frame[:marker] + b"\xff" + frame[marker + 1 :]
        if spoil.endswith("cut after"):
            frame = frame[: draw(st.integers(min_value=end, max_value=len(frame)))]
    return frame, lead, spoil


def encode_deep(value, lead: int) -> bytes:
    """The tree walk's bytes, which need no depth cap."""
    out = cdr_tree_walk.CdrOutputStream()
    for _ in range(lead):
        out.write_octet(0)
    out.write_any(value)
    return out.getvalue()


def told(read, frame: bytes, lead: int):
    """``("value", repr)`` or ``("error", text)``."""
    try:
        return "value", repr(read(frame, lead))
    except MarshalError as exc:
        return "error", str(exc)


def generic_loop(frame: bytes, lead: int):
    """``read_any`` with no layout ever learned: every record the long way."""
    with mock.patch.object(cdr, "_layout", lambda *args: None):
        return read_any(frame, lead)[0]


@given(record_blocks())
@settings(max_examples=400, deadline=None)
def test_blocks_spoilt_anywhere_read_as_the_tree_walk_and_fail_as_the_generic_loop(case):
    """The same value as the tree walk, or an error on both sides with the
    generic loop's text (the tree walk has no depth cap and leaks its
    own exceptions)."""
    frame, lead, spoil = case
    read = told(under_test, frame, lead)
    assert read == told(generic_loop, frame, lead)
    if read[0] == "error":
        assert "nested deeper" in read[1] or told(oracle, frame, lead)[0] == "error"
    else:
        assert read == told(oracle, frame, lead)
    if spoil == "none":
        assert read[0] == "value" or "nested deeper" in read[1]
