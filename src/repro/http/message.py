"""HTTP/1.0-flavoured wire format.

One request and one response per transport frame (the framing the
underlying transport already provides plays the role of Content-Length
enforcement on a raw socket; Content-Length is still emitted and checked
for fidelity).  Bodies are binary (the jser codec's output); CQoS piggyback
entries travel as ``X-CQoS-<key>`` headers encoded by the shared
:class:`~repro.core.piggyback.PiggybackCodec` (hex-encoded
jser values; non-token keys escaped the same way), so arbitrary piggyback
keys *and* values survive header transport losslessly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.piggyback import PIGGYBACK_CODEC
from repro.util.errors import MarshalError

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
