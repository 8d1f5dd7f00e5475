"""HTTP/1.0-flavoured wire format: one formatter and one parser per direction.

One request and one response per transport frame (the framing the
underlying transport already provides plays the role of Content-Length
enforcement on a raw socket; Content-Length is still emitted and checked
for fidelity).  Bodies are binary (the jser codec's output).

CQoS piggyback entries travel as one ``x-cqos-<key>`` header each, whose
value is the hex of the key's jser-encoded value, so *any* marshallable
value (non-string, non-ASCII, nested, binary) survives header transport
losslessly.  Header names are case-folded and latin-1-constrained by HTTP,
so keys that are not safe lower-case tokens are escaped as ``x-cqos-!<hex
of jser(key)>`` — ``!`` cannot appear in a safe token, making the escape
unambiguous, and safe keys (every well-known ``cqos_*`` key of
:mod:`repro.core.request`) keep their plain wire form.  Nothing here
enumerates keys, so a new ``PB_*`` constant needs nothing.

A frame's head is written by appending to one value, encoded once, and
read in one pass over its header lines, each ``x-cqos-*`` line decoded into
the piggyback dict where it is met.  Whatever is wrong with the bytes of a
frame, the error is a :class:`~repro.util.errors.MarshalError`.
"""

from __future__ import annotations

import re
from typing import Any

from repro.serialization.jser import jser_dumps, jser_loads
from repro.util.errors import MarshalError

_END = b"\r\n\r\n"
_VERSION = "HTTP/1.0"

PIGGYBACK_PREFIX = "x-cqos-"
_ESCAPE = "!"
_SAFE_KEY = re.compile(r"[a-z0-9_.\-]+\Z")

STATUS_REASONS = {
    200: "OK", 400: "Bad Request", 403: "Forbidden", 404: "Not Found",
    500: "Internal Server Error", 502: "Bad Gateway",
}
_STATUS_LINES = {
    status: f"{_VERSION} {status} {reason}\r\n".encode("latin-1")
    for status, reason in STATUS_REASONS.items()
}

#: The most entries either memo table below will hold: a deployment's safe
#: piggyback keys are a dozen ``PB_*`` constants, but names arrive from the
#: network.  A full table stops remembering; the rule still answers.
_MEMO_LIMIT = 256
#: safe piggyback key -> the head of its header line, ``"x-cqos-<key>: "``.
_LINE_HEADS: dict[str, str] = {}
#: header name already in ``x-cqos-<safe key>`` form -> that key.
_HEADER_KEYS: dict[str, str] = {}


def _line_head(key: Any) -> str:
    """The head of ``key``'s header line by the escape rule; safe keys are
    remembered, other keys take the rule every time."""
    if isinstance(key, str) and _SAFE_KEY.match(key):
        head = f"{PIGGYBACK_PREFIX}{key}: "
        if len(_LINE_HEADS) < _MEMO_LIMIT:
            _LINE_HEADS[key] = head
        return head
    return f"{PIGGYBACK_PREFIX}{_ESCAPE}{jser_dumps(key).hex()}: "


def _unhex(text: str, name: str) -> bytes:
    try:
        return bytes.fromhex(text)
    except ValueError:
        raise MarshalError(f"header {name!r} carries {text!r}, which is not hex") from None


def _header_key(name: str) -> Any:
    """The piggyback key a stripped, lower-cased ``x-cqos-*`` name stands
    for; a name spelling a safe key is remembered."""
    raw = name[len(PIGGYBACK_PREFIX):]
    if raw.startswith(_ESCAPE):
        return jser_loads(_unhex(raw[len(_ESCAPE):], name))
    if _SAFE_KEY.match(raw) and len(_HEADER_KEYS) < _MEMO_LIMIT:
        _HEADER_KEYS[name] = raw
    return raw


def format_request(path: str, piggyback: dict | None = None, body: bytes = b"") -> bytes:
    """``POST <path>`` carrying ``piggyback`` as ``x-cqos-*`` headers."""
    head = f"POST {path} {_VERSION}\r\n"
    if piggyback:
        for key in piggyback:
            try:
                head += _LINE_HEADS[key]
            except KeyError:
                head += _line_head(key)
            head += jser_dumps(piggyback[key]).hex() + "\r\n"
    return f"{head}content-length: {len(body)}\r\n\r\n".encode("latin-1") + body


def format_response(status: int, body: bytes = b"", headers: dict[str, str] | None = None) -> bytes:
    """The reply: status line, ``headers`` as given, ``content-length``, body."""
    try:
        frame = _STATUS_LINES[status]
    except KeyError:
        frame = f"{_VERSION} {status} Unknown\r\n".encode("latin-1")
    if headers:
        for name, value in headers.items():
            frame += f"{name}: {value}\r\n".encode("latin-1")
    return b"%bcontent-length: %d\r\n\r\n%b" % (frame, len(body), body)


def _split(frame: bytes, piggyback: dict | None) -> tuple[str, dict[str, str], bytes]:
    """``(start line, headers, body)`` of one frame.

    ``x-cqos-*`` lines are decoded into ``piggyback`` when one is given (a
    request) and are headers like any other when not (a response);
    ``content-length``, checked against the body, is in neither.
    """
    head, sep, body = frame.partition(_END)
    if not sep:
        raise MarshalError("HTTP frame lacks header terminator")
    # latin-1 maps bytes to code points one to one: decode the head once.
    start, *lines = head.decode("latin-1").split("\r\n")
    headers: dict[str, str] = {}
    declared = None
    for line in lines:
        name, sep, value = line.partition(":")
        if not sep:
            if line:
                raise MarshalError(f"malformed HTTP header line: {line.encode('latin-1')!r}")
        elif name == "content-length":
            declared = value
        elif piggyback is not None and name in _HEADER_KEYS:
            try:
                raw = bytes.fromhex(value)
            except ValueError:  # fromhex skips blanks, strip() a few more
                raw = _unhex(value.strip(), name)
            piggyback[_HEADER_KEYS[name]] = jser_loads(raw)
        else:
            # Not spelled as the formatter spells it, or not met before.
            name = name.strip().lower()
            if name == "content-length":
                declared = value
            elif piggyback is not None and name.startswith(PIGGYBACK_PREFIX):
                piggyback[_header_key(name)] = jser_loads(_unhex(value.strip(), name))
            else:
                headers[name] = value.strip()
    if declared is not None:
        declared = declared.strip()
        try:
            length = int(declared)
        except ValueError:
            raise MarshalError(f"content-length is not a number: {declared!r}") from None
        if length != len(body):
            raise MarshalError(f"content-length mismatch: declared {length}, got {len(body)}")
    return start, headers, body


def parse_request(frame: bytes) -> tuple[str, str, dict[str, str], dict, bytes]:
    """``(method, path, headers, piggyback, body)`` of a request frame."""
    piggyback: dict = {}
    start, headers, body = _split(frame, piggyback)
    try:
        method, path, version = start.split(" ")
    except ValueError:
        version = None
    if version != _VERSION:
        raise MarshalError(f"malformed HTTP request line: {start.encode('latin-1')!r}")
    return method, path, headers, piggyback, body


def parse_response(frame: bytes) -> tuple[int, dict[str, str], bytes]:
    """``(status, headers, body)`` of a response frame."""
    start, headers, body = _split(frame, None)
    try:
        version, status, *_ = start.split(" ", 2)
        # Through bytes: int() of a str would also take the latin-1 blanks.
        status = int(status.encode("latin-1"))
    except ValueError:
        version = None
    if version != _VERSION:
        raise MarshalError(f"malformed HTTP status line: {start.encode('latin-1')!r}")
    return status, headers, body
