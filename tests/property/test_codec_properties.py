"""Property-based tests: both codecs round-trip arbitrary wire values."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.serialization.cdr import cdr_dumps, cdr_loads
from repro.serialization.jser import jser_dumps, jser_loads
from repro.util.errors import MarshalError
from tests.oracles import cdr_tree_walk, jser_tree_walk

# Finite floats only: NaN breaks equality (covered by explicit tests).
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=True),
    st.text(max_size=50),
    st.binary(max_size=50),
)

# Dict keys must be hashable wire values.
keys = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.text(max_size=20),
    st.booleans(),
)

wire_values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(keys, children, max_size=5),
        st.tuples(children, children),
    ),
    max_leaves=25,
)


def normalize(value):
    """Tuples decode as tuples; everything else compares directly."""
    return value


@given(wire_values)
@settings(max_examples=200)
def test_cdr_roundtrip(value):
    assert cdr_loads(cdr_dumps(value)) == value


@given(wire_values)
@settings(max_examples=300)
def test_cdr_flat_codec_matches_the_tree_walk(value):
    """Bytes equal one way, values equal the other."""
    encoded = cdr_dumps(value)
    assert encoded == cdr_tree_walk.cdr_dumps(value)
    assert cdr_loads(encoded) == cdr_tree_walk.cdr_loads(encoded) == value


@given(wire_values, st.data())
@settings(max_examples=200)
def test_cdr_corrupt_input_only_raises_marshal_error(value, data):
    """Cut or flip the encoding anywhere: a value or MarshalError, nothing else."""
    encoded = bytearray(cdr_dumps(value))
    cut = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
    try:
        cdr_loads(bytes(encoded[:cut]))
    except MarshalError:
        pass
    else:
        raise AssertionError("a strict prefix decoded")
    encoded[cut] = data.draw(st.integers(min_value=0, max_value=255))
    try:
        cdr_loads(bytes(encoded))
    except MarshalError:
        pass


@given(wire_values)
@settings(max_examples=200)
def test_jser_roundtrip(value):
    assert jser_loads(jser_dumps(value)) == value


@given(wire_values)
@settings(max_examples=300)
def test_jser_flat_codec_matches_the_tree_walk(value):
    """Bytes equal one way, values equal the other."""
    encoded = jser_dumps(value)
    assert encoded == jser_tree_walk.tree_dumps(value)
    assert jser_loads(encoded) == jser_tree_walk.tree_loads(encoded) == value


@given(wire_values, st.data())
@settings(max_examples=200)
def test_jser_corrupt_input_only_raises_marshal_error(value, data):
    """Cut or flip the encoding anywhere: a value or MarshalError, nothing else."""
    encoded = bytearray(jser_dumps(value))
    cut = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
    try:
        jser_loads(bytes(encoded[:cut]))
    except MarshalError:
        pass
    else:
        raise AssertionError("a strict prefix decoded")
    encoded[cut] = data.draw(st.integers(min_value=0, max_value=255))
    try:
        jser_loads(bytes(encoded))
    except MarshalError:
        pass


@given(wire_values)
@settings(max_examples=100)
def test_codecs_agree_on_equality(value):
    """Whatever one codec round-trips, the other round-trips identically."""
    assert cdr_loads(cdr_dumps(value)) == jser_loads(jser_dumps(value))


@given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
@settings(max_examples=200)
def test_jser_int64_zigzag(value):
    assert jser_loads(jser_dumps(value)) == value


@given(st.floats())
@settings(max_examples=200)
def test_double_bit_exactness(value):
    decoded_cdr = cdr_loads(cdr_dumps(value))
    decoded_jser = jser_loads(jser_dumps(value))
    if math.isnan(value):
        assert math.isnan(decoded_cdr) and math.isnan(decoded_jser)
    else:
        assert decoded_cdr == value and decoded_jser == value


@given(st.binary(max_size=200))
@settings(max_examples=100)
def test_bytes_exactness(value):
    assert cdr_loads(cdr_dumps(value)) == value
    assert jser_loads(jser_dumps(value)) == value


@given(st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=8))
@settings(max_examples=50)
def test_jser_aliasing_preserved(shape):
    """A list referenced N times decodes to one object referenced N times."""
    inner = ["shared"]
    outer = [inner for _ in shape]
    decoded = jser_loads(jser_dumps(outer))
    assert all(item is decoded[0] for item in decoded)


# What a value alone at the top of a frame can be: the shapes the one-step
# scalar path meets, and the edges around it (varint and int64 limits, one-
# and two-byte lengths, values no UTF-8 or IEEE bit pattern hides).
top_level_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-200, max_value=200),
    st.integers(min_value=-(2**63) - 3, max_value=-(2**63) + 3),
    st.integers(min_value=2**63 - 4, max_value=2**63 + 3),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0]),
    st.text(max_size=40),
    st.text(alphabet=st.characters(min_codepoint=0x80), max_size=40),
    st.builds(lambda n, c: c * n, st.integers(124, 130), st.sampled_from(["a", "é"])),
    st.builds(
        lambda head, lone, tail: head + lone + tail,
        st.text(max_size=5),
        st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),
        st.text(max_size=5),
    ),
)


@given(top_level_scalars, st.data())
@settings(max_examples=300)
def test_jser_top_level_scalar_in_one_step(value, data):
    """A lone scalar: the tree walk's bytes, a round trip, and every proper
    prefix and single-byte corruption a MarshalError or a value."""
    try:
        expected = jser_tree_walk.tree_dumps(value)
    except UnicodeEncodeError:  # a lone surrogate
        with pytest.raises(MarshalError):
            jser_dumps(value)
        return
    encoded = jser_dumps(value)
    assert encoded == expected
    decoded = jser_loads(encoded)
    assert type(decoded) is type(value)
    assert jser_dumps(decoded) == encoded  # bit-exact: nan and -0.0 included
    for cut in range(len(encoded)):
        with pytest.raises(MarshalError):
            jser_loads(encoded[:cut])
    for at in range(len(encoded)):
        replacements = range(256) if at == 0 else [data.draw(st.integers(0, 255))]
        for byte in replacements:
            corrupt = bytearray(encoded)
            corrupt[at] = byte
            try:
                jser_loads(bytes(corrupt))
            except MarshalError:
                pass
