"""Property tests: piggyback fidelity through the shared header codec.

The HTTP adapter ships piggyback entries as ``X-CQoS-*`` headers.  Headers
are case-folded and latin-1-constrained, which historically lost key case,
crashed on non-latin-1 keys, and stringified non-string keys.  The kernel's
:class:`~repro.core.piggyback.PiggybackCodec` must round-trip *any*
jser-marshallable key and value losslessly — through the codec alone and
through a real formatted-and-parsed HTTP request frame.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core import request
from repro.core.piggyback import PIGGYBACK_CODEC
from repro.http.message import HttpRequest, format_request, parse_request

# Finite floats only: NaN breaks equality (as in the codec suites).
values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**70), max_value=2**70),
        st.floats(allow_nan=False, allow_infinity=True),
        st.text(max_size=40),
        st.binary(max_size=40),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=10), children, max_size=4),
    ),
    max_leaves=12,
)

# Keys: anything hashable and jser-marshallable — upper case, non-ASCII,
# non-string, whitespace, header-hostile separators.
keys = st.one_of(
    st.text(max_size=30),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.booleans(),
)

piggybacks = st.dictionaries(keys, values, max_size=6)


@given(piggybacks)
@settings(max_examples=200)
def test_codec_roundtrip(piggyback):
    headers = PIGGYBACK_CODEC.encode_headers(piggyback)
    assert PIGGYBACK_CODEC.decode_headers(headers) == piggyback


@given(piggybacks)
@settings(max_examples=200)
def test_roundtrip_through_http_wire_frame(piggyback):
    """Fidelity survives an actual formatted + parsed HTTP request —
    the transport that lowercases header names and encodes them latin-1."""
    request = HttpRequest(
        method="POST",
        path="/objects/acct/op",
        headers=PIGGYBACK_CODEC.encode_headers(piggyback),
        body=b"payload",
    )
    parsed = parse_request(format_request(request))
    assert parsed.piggyback() == piggyback
    assert parsed.body == b"payload"


@given(piggybacks)
@settings(max_examples=100)
def test_headers_are_latin1_and_casefold_safe(piggyback):
    """Every emitted header name/value is latin-1 encodable and invariant
    under the case folding real HTTP stacks apply."""
    for name, value in PIGGYBACK_CODEC.encode_headers(piggyback).items():
        name.encode("latin-1")
        value.encode("latin-1")
        assert name == name.lower()
        assert value == value.lower()


def test_wellknown_keys_keep_historical_wire_form():
    """The well-known cqos_* keys (the ``PB_*`` constants) stay in the
    pre-kernel byte-identical header form (no escaping) — wire
    compatibility with recorded chaos runs."""
    keys = [value for name, value in vars(request).items() if name.startswith("PB_")]
    assert len(keys) >= 12
    for key in keys:
        headers = PIGGYBACK_CODEC.encode_headers({key: 1})
        assert list(headers) == [f"x-cqos-{key}"]
