"""The HTTP wire format as two passes over a header dict: the formatter,
parser and piggyback header codec of the parent of the commit that made
``repro.http.message`` write a frame by appending to one value
and read it in one pass (``repro/http/message.py`` and ``PiggybackCodec``
of ``repro/core/piggyback.py`` at commit 61dd0dc, verbatim).  Every message
is a dataclass holding a ``dict[str, str]`` of headers, rendered line by
line, and on arrival split, stripped, lowered and partitioned per line into
another dict that ``decode_headers`` walks a second time.

The differential suite (``tests/property/test_http_differential.py``) holds
the one-pass codec to these bytes and these values.  They differ on
malformed frames only, and on purpose: where this parser lets ``int()`` or
``bytes.fromhex`` raise a bare ``ValueError``, the codec under test raises
``MarshalError``; and a malformed ``x-cqos-*`` line that a later line of the
same name overwrites is never read here, where the codec under test, which
decodes each line as it meets it, rejects the frame.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.serialization.jser import jser_dumps, jser_loads
from repro.util.errors import MarshalError


class PiggybackCodec:
    """The textual header encoding of a piggyback dict.

    Each entry becomes one ``x-cqos-<key>`` header whose value is the hex
    of the key's jser-encoded value, so *any* marshallable value
    (non-string, non-ASCII, nested, binary) survives header transport
    losslessly.

    Header names are case-folded and latin-1-constrained by HTTP, so keys
    that are not safe lower-case tokens are escaped as ``x-cqos-!<hex of
    jser(key)>`` — ``!`` cannot appear in a safe token, making the escape
    unambiguous, and safe keys (every well-known ``cqos_*`` key of
    :mod:`repro.core.request`) keep their plain wire form.  No adapter
    enumerates keys, so a new ``PB_*`` constant needs nothing here.
    """

    PREFIX = "x-cqos-"
    _ESCAPE = "!"
    _SAFE_KEY = re.compile(r"[a-z0-9_.\-]+\Z")

    def encode_headers(self, piggyback: dict | None) -> dict[str, str]:
        """Encode a piggyback dict as transport-safe ``x-cqos-*`` headers."""
        headers: dict[str, str] = {}
        for key, value in (piggyback or {}).items():
            if isinstance(key, str) and self._SAFE_KEY.match(key):
                name = f"{self.PREFIX}{key}"
            else:
                name = f"{self.PREFIX}{self._ESCAPE}{jser_dumps(key).hex()}"
            headers[name] = jser_dumps(value).hex()
        return headers

    def decode_headers(self, headers: dict[str, str]) -> dict:
        """Decode ``x-cqos-*`` headers back into the piggyback dict."""
        piggyback: dict = {}
        for name, value in headers.items():
            if not name.startswith(self.PREFIX):
                continue
            raw_key = name[len(self.PREFIX):]
            if raw_key.startswith(self._ESCAPE):
                key = jser_loads(bytes.fromhex(raw_key[len(self._ESCAPE):]))
            else:
                key = raw_key
            piggyback[key] = jser_loads(bytes.fromhex(value))
        return piggyback


#: The process-wide codec instance.
PIGGYBACK_CODEC = PiggybackCodec()


#: The process-wide codec instance.
PIGGYBACK_CODEC = PiggybackCodec()

_CRLF = b"\r\n"
_VERSION = b"HTTP/1.0"

PIGGYBACK_PREFIX = PIGGYBACK_CODEC.PREFIX

STATUS_REASONS = {
    200: "OK",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    500: "Internal Server Error",
    502: "Bad Gateway",
}


@dataclass
class HttpRequest:
    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def piggyback(self) -> dict:
        """Decode the ``X-CQoS-*`` headers back into a piggyback dict."""
        return PIGGYBACK_CODEC.decode_headers(self.headers)


@dataclass
class HttpResponse:
    status: int
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def reason(self) -> str:
        return STATUS_REASONS.get(self.status, "Unknown")


def piggyback_headers(piggyback: dict) -> dict[str, str]:
    """Encode a piggyback dict as ``X-CQoS-*`` headers."""
    return PIGGYBACK_CODEC.encode_headers(piggyback)


def _format_headers(headers: dict[str, str], body: bytes) -> bytes:
    lines = [f"{name}: {value}".encode("latin-1") for name, value in headers.items()]
    lines.append(b"content-length: %d" % len(body))
    return _CRLF.join(lines)


def _parse_headers(block: bytes) -> dict[str, str]:
    headers: dict[str, str] = {}
    # latin-1 maps bytes to code points one to one: decode the block once.
    for line in block.decode("latin-1").split("\r\n"):
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise MarshalError(
                f"malformed HTTP header line: {line.encode('latin-1')!r}"
            )
        headers[name.strip().lower()] = value.strip()
    return headers


def format_request(request: HttpRequest) -> bytes:
    start = f"{request.method} {request.path} ".encode("latin-1") + _VERSION
    return (
        start + _CRLF + _format_headers(request.headers, request.body)
        + _CRLF + _CRLF + request.body
    )


def format_response(response: HttpResponse) -> bytes:
    start = _VERSION + f" {response.status} {response.reason}".encode("latin-1")
    return (
        start + _CRLF + _format_headers(response.headers, response.body)
        + _CRLF + _CRLF + response.body
    )


def _split(frame: bytes) -> tuple[bytes, dict[str, str], bytes]:
    head, sep, body = frame.partition(_CRLF + _CRLF)
    if not sep:
        raise MarshalError("HTTP frame lacks header terminator")
    start_line, _, header_block = head.partition(_CRLF)
    headers = _parse_headers(header_block)
    declared = headers.get("content-length")
    if declared is not None and int(declared) != len(body):
        raise MarshalError(
            f"content-length mismatch: declared {declared}, got {len(body)}"
        )
    return start_line, headers, body


def parse_request(frame: bytes) -> HttpRequest:
    start_line, headers, body = _split(frame)
    parts = start_line.split(b" ")
    if len(parts) != 3 or parts[2] != _VERSION:
        raise MarshalError(f"malformed HTTP request line: {start_line!r}")
    return HttpRequest(
        method=parts[0].decode("latin-1"),
        path=parts[1].decode("latin-1"),
        headers=headers,
        body=body,
    )


def parse_response(frame: bytes) -> HttpResponse:
    start_line, headers, body = _split(frame)
    parts = start_line.split(b" ", 2)
    if len(parts) < 2 or parts[0] != _VERSION:
        raise MarshalError(f"malformed HTTP status line: {start_line!r}")
    return HttpResponse(status=int(parts[1]), headers=headers, body=body)
