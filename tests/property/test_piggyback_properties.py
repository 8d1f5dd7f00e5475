"""Property tests: piggyback fidelity through the HTTP header lines.

The HTTP adapter ships piggyback entries as ``X-CQoS-*`` headers.  Headers
are case-folded and latin-1-constrained, which historically lost key case,
crashed on non-latin-1 keys, and stringified non-string keys.
:mod:`repro.http.message` must round-trip *any* jser-marshallable key and
value losslessly — through its header lines alone and through a whole
formatted-and-parsed HTTP request frame.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core import request
from repro.http.message import format_request, parse_request

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


def header_lines(piggyback) -> list[bytes]:
    """The ``x-cqos-*`` lines of a request carrying ``piggyback``."""
    head = format_request("/x", piggyback).partition(b"\r\n\r\n")[0]
    return head.split(b"\r\n")[1:-1]  # between the request line and content-length


@given(piggybacks)
@settings(max_examples=200)
def test_codec_roundtrip(piggyback):
    """One line per entry, and the lines alone give the dict back."""
    lines = header_lines(piggyback)
    assert len(lines) == len(piggyback)
    frame = b"POST /x HTTP/1.0\r\n" + b"".join(line + b"\r\n" for line in lines) + b"\r\n"
    assert parse_request(frame)[3] == piggyback


@given(piggybacks)
@settings(max_examples=200)
def test_roundtrip_through_http_wire_frame(piggyback):
    """Fidelity survives an actual formatted + parsed HTTP request —
    the transport that lowercases header names and encodes them latin-1."""
    method, path, headers, parsed, body = parse_request(
        format_request("/objects/acct/op", piggyback, b"payload")
    )
    assert parsed == piggyback
    assert [type(key) for key in parsed] == [type(key) for key in piggyback]
    assert (method, path, headers, body) == ("POST", "/objects/acct/op", {}, b"payload")


@given(piggybacks)
@settings(max_examples=100)
def test_headers_are_latin1_and_casefold_safe(piggyback):
    """Every emitted header name/value is latin-1 (ASCII, even) and
    invariant under the case folding real HTTP stacks apply."""
    for line in header_lines(piggyback):
        assert line.isascii()
        assert line == line.lower()
        name, _, value = line.partition(b": ")
        assert name.startswith(b"x-cqos-") and value == value.strip()


def test_wellknown_keys_keep_historical_wire_form():
    """The well-known cqos_* keys (the ``PB_*`` constants) stay in the
    pre-kernel byte-identical header form (no escaping) — wire
    compatibility with recorded chaos runs."""
    keys = [value for name, value in vars(request).items() if name.startswith("PB_")]
    assert len(keys) >= 12
    for key in keys:
        assert header_lines({key: 1}) == [f"x-cqos-{key}: 0302".encode()]
