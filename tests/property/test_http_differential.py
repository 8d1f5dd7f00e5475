"""Differential suite: the one-pass HTTP codec against the header-dict one.

``tests/oracles/http_reference.py`` is the formatter, parser and piggyback
header codec ``repro.http.message`` replaced, verbatim.  Two properties:

(a) whatever the formatters are given, the new bytes *are* the reference
    bytes, and both parsers read them back to the same method, path,
    headers, piggyback and body;
(b) frames no formatter writes but the parser has always read — folded and
    padded names, values padded with the blanks ``str.strip`` knows and
    ``bytes.fromhex`` does not, ``a:b`` values, duplicate names, a missing
    terminator, a short or long body — read to the same value, or fail with
    an error of the same class.

The codecs differ in two stated ways, both on malformed frames.  Where the
reference lets ``int()`` or ``bytes.fromhex`` raise a bare ``ValueError``,
the codec under test raises ``MarshalError``.  And it decodes an
``x-cqos-*`` line where it meets it, so a malformed one is an error even
when a later line of the same name would have overwritten it unread.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.http.message import format_request, format_response, parse_request, parse_response
from repro.serialization.jser import jser_dumps
from repro.util.errors import MarshalError
from tests.oracles import http_reference as reference
from tests.property.test_piggyback_properties import piggybacks, values

NOT_HEADERS = ("x-cqos-", "content-length")


def outcome(call, *args):
    """``("value", v)`` or ``("error", class)``; a bare ValueError of the
    reference is the MarshalError the new codec promises instead."""
    try:
        return "value", call(*args)
    except (MarshalError, ValueError) as exc:
        return "error", MarshalError if isinstance(exc, ValueError) else type(exc)


def reference_request(frame: bytes):
    request = reference.parse_request(frame)
    headers = {k: v for k, v in request.headers.items() if not k.startswith(NOT_HEADERS)}
    return request.method, request.path, headers, request.piggyback(), request.body


def reference_response(frame: bytes):
    response = reference.parse_response(frame)
    headers = {k: v for k, v in response.headers.items() if k != "content-length"}
    return response.status, headers, response.body


def typed(piggyback: dict) -> list:
    """Key types too: ``1 == True`` would hide an ``int`` read back as a ``bool``."""
    return [(type(key), key) for key in piggyback]


# -- (a) what the formatters write ----------------------------------------------

paths = st.from_regex(r"/objects/[a-zA-Z0-9_\-\xe9]{1,12}/[a-z_]{1,12}", fullmatch=True)
arguments = st.lists(values, max_size=4)


@given(paths, piggybacks, arguments)
@settings(max_examples=300)
def test_request_bytes_and_values_match_the_reference(path, piggyback, args):
    body = jser_dumps(args)
    frame = format_request(path, piggyback, body)
    assert frame == reference.format_request(
        reference.HttpRequest("POST", path, reference.piggyback_headers(piggyback), body)
    )
    parsed = parse_request(frame)
    assert parsed == reference_request(frame) == ("POST", path, {}, piggyback, body)
    assert typed(parsed[3]) == typed(piggyback)


header_names = st.from_regex(r"[a-z][a-z0-9\-]{0,10}", fullmatch=True).filter(
    lambda name: not name.startswith(NOT_HEADERS)
)
header_values = st.from_regex(r"[!-~]([ -~]{0,10}[!-~])?", fullmatch=True)


@given(
    st.sampled_from([200, 400, 403, 404, 500, 502, 418, 99]),
    st.one_of(st.just(b""), values.map(jser_dumps)),
    st.dictionaries(st.one_of(header_names, st.just("x-cqos-kind")), header_values, max_size=3),
)
@settings(max_examples=300)
def test_response_bytes_and_values_match_the_reference(status, body, headers):
    frame = format_response(status, body, headers)
    assert frame == reference.format_response(reference.HttpResponse(status, dict(headers), body))
    assert parse_response(frame) == reference_response(frame) == (status, headers, body)


# -- (b) what only the parsers read ------------------------------------------------

#: The blanks ``str.strip`` removes; ``bytes.fromhex`` skips only the first two.
blanks = st.sampled_from(["", "", "", " ", "\t", "\xa0", "\x85", "\x1c", "\x1f", " \xa0 "])
keys_on_the_wire = st.sampled_from(
    ["a", "a", "cqos_client", "n.1-x", "!0603616263", "!0302", "!0201"]
    + ["!zz", "!", "", "a b", "\xc9t\xe9"]
)
hex_values = st.one_of(
    values.map(lambda value: jser_dumps(value).hex()),
    values.map(lambda value: jser_dumps(value).hex()),
    values.map(lambda value: jser_dumps(value).hex().upper()),
    values.map(lambda value: " ".join(jser_dumps(value).hex())),  # blanks inside too
    st.sampled_from(["", "0", "zz", "03", "0302\xa00302", "a:b"]),
)
spellings = st.sampled_from([str, str, str.upper, str.title])


@st.composite
def header_lines(draw, length: int) -> str:
    kind = draw(st.sampled_from(["piggyback"] * 4 + ["length", "other"] * 2 + ["no-colon"]))
    if kind == "no-colon":
        return draw(st.sampled_from(["no-colon", "x-cqos-a", "content-length", " ", "\xe9"]))
    if kind == "piggyback":
        name, value = "x-cqos-" + draw(keys_on_the_wire), draw(hex_values)
    elif kind == "length":
        name = "content-length"
        value = draw(st.sampled_from(
            [str(length)] * 6
            + [f"+{length}", f"0_{length}", f"{length} {length}", str(length + 1), "x", "1e", "", "\xb2"]
        ))
    else:
        name = draw(st.sampled_from(["x-other", "host", ""]))
        value = draw(st.sampled_from(["a:b", "", "v"]))
    name = draw(spellings)(name)
    return f"{draw(blanks)}{name}{draw(blanks)}:{draw(blanks)}{value}{draw(blanks)}"


@st.composite
def frames(draw, start_lines) -> bytes:
    body = draw(st.sampled_from([b"", b"hi", b"hi!", b"h\r\n\r\ni"]))
    lines = draw(st.lists(header_lines(len(body)), max_size=5))
    end = draw(st.sampled_from(["\r\n\r\n"] * 8 + ["\r\n", ""]))
    return "\r\n".join([draw(start_lines), *lines]).encode("latin-1") + end.encode() + body


request_lines = st.sampled_from(
    ["POST /x HTTP/1.0"] * 12
    + ["GET /objects/a/b HTTP/1.0", "POST /\xe9 HTTP/1.0", "POST  /x HTTP/1.0", "POST /x HTTP/1.1",
       "POST /x", "POST /x HTTP/1.0 ", "", "x-cqos-a: 0302"]
)
status_lines = st.sampled_from(
    ["HTTP/1.0 200 OK"] * 12
    + ["HTTP/1.0 200", "HTTP/1.0 404 Not Found", "HTTP/1.0 +200 OK", "HTTP/1.0 2_0_0 OK",
       "HTTP/1.0 \t200 OK", "HTTP/1.0 \xa0200 OK", "HTTP/1.0 \x1c200 OK", "HTTP/1.0 \xb2 OK",
       "HTTP/1.0 abc OK", "HTTP/1.0  OK", "HTTP/1.0", "HTTP/1.1 200 OK", "http/1.0 200 OK", ""]
)


def overwritten_piggyback_line(frame: bytes) -> bool:
    """Does an ``x-cqos-*`` name occur twice in the frame's header block?"""
    block = frame.partition(b"\r\n\r\n")[0].decode("latin-1").split("\r\n")[1:]
    names = [line.partition(":")[0].strip().lower() for line in block if ":" in line]
    names = [name for name in names if name.startswith("x-cqos-")]
    return len(names) != len(set(names))


@given(frames(request_lines))
@settings(max_examples=1500)
def test_requests_nobody_writes_read_alike(frame):
    new, old = outcome(parse_request, frame), outcome(reference_request, frame)
    if new != old:
        # The one difference in outcome: a malformed line the reference
        # never read because a later one of the same name replaced it.
        assert new == ("error", MarshalError) and old[0] == "value"
        assert overwritten_piggyback_line(frame)
    elif new[0] == "value":
        assert typed(new[1][3]) == typed(old[1][3])


@given(frames(status_lines))
@settings(max_examples=1000)
def test_responses_nobody_writes_read_alike(frame):
    assert outcome(parse_response, frame) == outcome(reference_response, frame)


@given(st.binary(max_size=80))
@settings(max_examples=300)
def test_arbitrary_bytes_fail_alike(frame):
    assert outcome(parse_request, frame) == outcome(reference_request, frame)
    assert outcome(parse_response, frame) == outcome(reference_response, frame)
