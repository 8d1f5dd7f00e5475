"""GIOP-like wire messages, encoded with the CDR codec.

Two message types cover the request/reply paradigm the paper targets:

- **Request** — request id, object key, operation name, argument list, and a
  *service context* dict.  The service context is the standard CORBA slot
  for out-of-band data; CQoS uses it for piggybacked parameters (request
  priority, encryption markers, signatures, replica-control payloads).
- **Reply** — request id, status (NO_EXCEPTION / USER_EXCEPTION /
  SYSTEM_EXCEPTION), and a body: the return value, the user exception value
  (a registered IDL exception), or a ``{type, message}`` description of a
  system-level failure.

Frames begin with the 4-byte magic ``GIOP`` and a version octet so stray or
truncated frames fail loudly instead of mis-decoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.serialization.cdr import CdrInputStream, read_any, write_any
from repro.serialization.streams import acquire_output_stream, release_output_stream
from repro.util.errors import MarshalError

# Encoders reuse pooled output streams instead of allocating a fresh
# bytearray per message.  The pool uses explicit acquire/release (see
# repro.serialization.streams) rather than the earlier thread-local slot:
# each marshal owns its stream for exactly the encode's duration, whatever
# thread runs it.  Nested encodes (a value type whose registry
# encoder itself marshals) simply acquire a second stream.

_MAGIC = b"GIOP"
_VERSION = 1

MSG_REQUEST = 0
MSG_REPLY = 1

# The six header octets of each message type: magic, version, type.
_HEADER_SIZE = 6
_REQUEST_HEADER = _MAGIC + bytes((_VERSION, MSG_REQUEST))
_REPLY_HEADER = _MAGIC + bytes((_VERSION, MSG_REPLY))

REPLY_NO_EXCEPTION = 0
REPLY_USER_EXCEPTION = 1
REPLY_SYSTEM_EXCEPTION = 2


@dataclass
class RequestMessage:
    request_id: int
    object_key: str
    operation: str
    arguments: list
    context: dict = field(default_factory=dict)
    response_expected: bool = True
    #: Compiled-stub path: pre-marshalled argument body (untagged typed
    #: CDR); mutually exclusive with ``arguments``.
    typed_body: bytes | None = None


@dataclass
class ReplyMessage:
    request_id: int
    status: int
    body: Any = None
    #: Compiled-skeleton path: pre-marshalled result body.
    typed_body: bytes | None = None


def _bad_header(header: bytes) -> MarshalError:
    """Say which of the six octets is wrong (or missing)."""
    if len(header) < _HEADER_SIZE:
        return MarshalError("CDR stream truncated")
    if header[:4] != _MAGIC:
        return MarshalError(f"bad GIOP magic: {header[:4]!r}")
    if header[4] != _VERSION:
        return MarshalError(f"unsupported GIOP version: {header[4]}")
    return MarshalError(f"unknown GIOP message type: {header[5]}")


def encode_request(message: RequestMessage) -> bytes:
    out = acquire_output_stream()
    try:
        out.buf += _REQUEST_HEADER
        out.write_ulong(message.request_id)
        out.write_string(message.object_key)
        out.write_string(message.operation)
        out.write_bool(message.response_expected)
        if message.typed_body is not None:
            out.write_bool(True)
            out.write_bytes(message.typed_body)
        else:
            out.write_bool(False)
            out.write_ulong(len(message.arguments))
            for argument in message.arguments:
                write_any(out.buf, argument)
        write_any(out.buf, message.context)
        return out.getvalue()
    finally:
        release_output_stream(out)


def encode_reply(message: ReplyMessage) -> bytes:
    out = acquire_output_stream()
    try:
        out.buf += _REPLY_HEADER
        out.write_ulong(message.request_id)
        out.write_octet(message.status)
        if message.typed_body is not None:
            out.write_bool(True)
            out.write_bytes(message.typed_body)
        else:
            out.write_bool(False)
            write_any(out.buf, message.body)
        return out.getvalue()
    finally:
        release_output_stream(out)


def decode_message(frame: bytes) -> RequestMessage | ReplyMessage:
    """Decode either message type, dispatching on the header."""
    stream = CdrInputStream(frame)
    data = stream.data
    header = data[:_HEADER_SIZE]
    stream.pos = _HEADER_SIZE
    if header == _REQUEST_HEADER:
        request_id = stream.read_ulong()
        object_key = stream.read_string()
        operation = stream.read_string()
        response_expected = stream.read_bool()
        typed_body: bytes | None = None
        arguments: list = []
        if stream.read_bool():
            typed_body = stream.read_bytes()
        else:
            for _ in range(stream.read_ulong()):
                argument, stream.pos = read_any(data, stream.pos)
                arguments.append(argument)
        context, _ = read_any(data, stream.pos)
        return RequestMessage(
            request_id=request_id,
            object_key=object_key,
            operation=operation,
            arguments=arguments,
            context=context,
            response_expected=response_expected,
            typed_body=typed_body,
        )
    if header == _REPLY_HEADER:
        request_id = stream.read_ulong()
        status = stream.read_octet()
        if stream.read_bool():
            return ReplyMessage(request_id=request_id, status=status, typed_body=stream.read_bytes())
        return ReplyMessage(request_id=request_id, status=status, body=read_any(data, stream.pos)[0])
    raise _bad_header(header)
