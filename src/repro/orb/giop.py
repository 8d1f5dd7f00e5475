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

The envelope around the ``any`` values is CDR as a stream would write it —
octets, booleans, length-prefixed strings, every ulong on a 4-byte boundary
counted from the start of the frame — but packed by pre-built
:class:`struct.Struct` objects straight into one ``bytearray`` and read back
with ``unpack_from`` at offsets; only the arguments, the service context and
the reply body go through :func:`~repro.serialization.cdr.write_any` /
:func:`~repro.serialization.cdr.read_any`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any

from repro.serialization.cdr import read_any, write_any
from repro.util.errors import MarshalError

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

_TRUNCATED = "CDR stream truncated"

# The envelope's fixed layouts, one pack each.
#: header, request id and the object key's length: octets 0-15 of a request.
_REQUEST_HEAD = struct.Struct(">6s2xII").pack
#: a string's length, after a string of ``len & 3`` octets past a boundary.
_LENGTH_AFTER = tuple(struct.Struct(f">{-residue % 4}xI").pack for residue in range(4))
#: the response-expected and typed-body flags, then the argument count or
#: the typed body's length, after the operation name likewise.
_FLAGS_COUNT_AFTER = tuple(
    struct.Struct(f">??{-(residue + 2) % 4}xI").pack for residue in range(4)
)
#: header, request id, status and the typed-body flag: octets 0-13 of a reply.
_REPLY_HEAD = struct.Struct(">6s2xIB?").pack
#: the same, then the typed body's length.
_TYPED_REPLY_HEAD = struct.Struct(">6s2xIB?2xI").pack

_ULONG_AT = struct.Struct(">I").unpack_from
_ID_LENGTH_AT = struct.Struct(">II").unpack_from
_ID_STATUS_TYPED_AT = struct.Struct(">IB?").unpack_from


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
        return MarshalError(_TRUNCATED)
    if header[:4] != _MAGIC:
        return MarshalError(f"bad GIOP magic: {header[:4]!r}")
    if header[4] != _VERSION:
        return MarshalError(f"unsupported GIOP version: {header[4]}")
    return MarshalError(f"unknown GIOP message type: {header[5]}")


def encode_request(message: RequestMessage) -> bytes:
    key = message.object_key.encode()
    operation = message.operation.encode()
    key_size = len(key)
    operation_size = len(operation)
    buf = bytearray(_REQUEST_HEAD(_REQUEST_HEADER, message.request_id, key_size))
    buf += key
    buf += _LENGTH_AFTER[key_size & 3](operation_size)
    buf += operation
    body = message.typed_body
    if body is not None:
        buf += _FLAGS_COUNT_AFTER[operation_size & 3](message.response_expected, True, len(body))
        buf += body
    else:
        arguments = message.arguments
        buf += _FLAGS_COUNT_AFTER[operation_size & 3](
            message.response_expected, False, len(arguments)
        )
        for argument in arguments:
            write_any(buf, argument)
    write_any(buf, message.context)
    return bytes(buf)


def encode_reply(message: ReplyMessage) -> bytes:
    body = message.typed_body
    if body is not None:
        return _TYPED_REPLY_HEAD(
            _REPLY_HEADER, message.request_id, message.status & 0xFF, True, len(body)
        ) + body
    buf = bytearray(_REPLY_HEAD(_REPLY_HEADER, message.request_id, message.status & 0xFF, False))
    write_any(buf, message.body)
    return bytes(buf)


def decode_message(frame: bytes) -> RequestMessage | ReplyMessage:
    """Decode either message type, dispatching on the header.  Whatever is
    wrong with the frame, the error is a :class:`MarshalError`."""
    data = frame if type(frame) is bytes else bytes(frame)
    header = data[:_HEADER_SIZE]
    try:
        if header == _REQUEST_HEADER:
            request_id, size = _ID_LENGTH_AT(data, 8)
            key_end = 16 + size
            at = key_end + (-key_end & 3)
            (size,) = _ULONG_AT(data, at)
            at += 4
            end = at + size
            # A string cut short fails the read after it, before it is decoded.
            response_expected = data[end] != 0
            typed = data[end + 1] != 0
            object_key = data[16:key_end].decode()
            operation = data[at:end].decode()
            at = end + 2
            at += -at & 3
            (size,) = _ULONG_AT(data, at)
            at += 4
            typed_body: bytes | None = None
            arguments: list = []
            if typed:
                typed_body = data[at : at + size]
                at += size
            else:
                for _ in range(size):
                    argument, at = read_any(data, at)
                    arguments.append(argument)
            context, _ = read_any(data, at)
            if type(context) is not dict:
                raise MarshalError("GIOP service context is not a dict")
            return RequestMessage(
                request_id, object_key, operation, arguments, context, response_expected,
                typed_body,
            )
        if header == _REPLY_HEADER:
            request_id, status, typed = _ID_STATUS_TYPED_AT(data, 8)
            if typed:
                end = 20 + _ULONG_AT(data, 16)[0]
                if end > len(data):
                    raise MarshalError(_TRUNCATED)
                return ReplyMessage(request_id, status, None, data[20:end])
            return ReplyMessage(request_id, status, read_any(data, 14)[0])
    except (struct.error, IndexError):
        raise MarshalError(_TRUNCATED) from None
    except UnicodeDecodeError as exc:
        raise MarshalError(f"CDR string is not UTF-8: {exc}") from exc
    raise _bad_header(header)
