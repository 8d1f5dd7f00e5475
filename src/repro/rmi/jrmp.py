"""JRMP-like wire protocol: call and return messages over the jser codec.

A call carries the target object id, method name, argument list, a context
dict (the piggyback slot CQoS uses), and a oneway flag.  Returns come in
three kinds: a value, a marshalled application exception (a registered IDL
exception instance), or a system-level failure description.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.serialization.jser import jser_dumps, jser_loads
from repro.serialization.tags import declare_names
from repro.util.errors import MarshalError

_KIND_CALL = "call"
_KIND_RETURN = "return"
_KIND_THROW = "throw"
_KIND_SYSTEM = "system"
declare_names(_KIND_CALL, _KIND_RETURN, _KIND_THROW, _KIND_SYSTEM)


@dataclass
class CallMessage:
    object_id: str
    method: str
    arguments: list
    context: dict = field(default_factory=dict)
    oneway: bool = False


@dataclass
class ReturnMessage:
    value: Any = None
    exception: BaseException | None = None
    system_error: dict | None = None  # {"type": ..., "message": ...}


# Frames are positional tuples, not keyed dicts: JRMP is a lean stream
# protocol, and tuples skip the codec's reference-handle bookkeeping —
# one of the reasons the RMI substrate benchmarks lighter than the ORB,
# matching the paper's RMI-vs-Visibroker observation.


def encode_call(message: CallMessage) -> bytes:
    return jser_dumps(
        (
            _KIND_CALL,
            message.object_id,
            message.method,
            tuple(message.arguments),
            message.context,
            message.oneway,
        )
    )


def encode_return(message: ReturnMessage) -> bytes:
    if message.system_error is not None:
        return jser_dumps((_KIND_SYSTEM, message.system_error))
    if message.exception is not None:
        return jser_dumps((_KIND_THROW, message.exception))
    return jser_dumps((_KIND_RETURN, message.value))


def decode(frame: bytes) -> CallMessage | ReturnMessage:
    """Parse a frame; a malformed one raises :class:`MarshalError`, nothing else."""
    payload = jser_loads(frame)
    if not isinstance(payload, tuple) or not payload:
        raise MarshalError("malformed JRMP frame")
    kind = payload[0]
    if kind == _KIND_CALL:
        if len(payload) != 6:
            raise MarshalError("malformed JRMP call frame")
        arguments, context = payload[3], payload[4]
        if type(arguments) is not tuple or type(context) is not dict:
            raise MarshalError(
                "malformed JRMP call frame: arguments must be a tuple and context "
                f"a dict, got {type(arguments).__name__} and {type(context).__name__}"
            )
        return CallMessage(
            payload[1], payload[2], list(arguments), context, oneway=bool(payload[5])
        )
    if len(payload) != 2:
        raise MarshalError("malformed JRMP return frame")
    if kind == _KIND_RETURN:
        return ReturnMessage(value=payload[1])
    if kind == _KIND_THROW:
        exception = payload[1]
        if not isinstance(exception, BaseException):
            raise MarshalError("JRMP throw frame did not carry an exception")
        return ReturnMessage(exception=exception)
    if kind == _KIND_SYSTEM:
        try:
            return ReturnMessage(system_error=dict(payload[1]))
        except (TypeError, ValueError) as exc:
            raise MarshalError(f"malformed JRMP system frame: {exc}") from exc
    raise MarshalError(f"unknown JRMP message kind: {kind!r}")
