"""Per-value tree walk over the IDL type model: the oracle for ``SignaturePlan``.

:func:`write_typed` / :func:`read_typed` encode one value against an
:class:`~repro.idl.ast.IdlType` by re-running an ``isinstance`` ladder over
the type model for every value and re-resolving named types through the
compiled-IDL tables.  It was the ORB's typed marshaller until per-signature
plans (:mod:`repro.serialization.compiled`) replaced it; the differential
tests in ``tests/unit/test_typed_marshal.py`` hold the plans to its bytes.

Structs marshal as their members in declaration order (no names on the
wire); ``any`` members use the tagged encoding.  Type errors surface as
:class:`~repro.util.errors.MarshalError` at the sender.
"""

from __future__ import annotations

from typing import Any

from repro.idl.ast import BasicType, IdlType, NamedType, SequenceType
from repro.idl.compiler import CompiledIdl
from repro.serialization.cdr import CdrInputStream, CdrOutputStream, read_any, write_any
from repro.util.errors import MarshalError


def write_typed(out: CdrOutputStream, idl_type: IdlType, value: Any, compiled: CompiledIdl) -> None:
    """Write ``value`` as its declared ``idl_type`` (untagged)."""
    if isinstance(idl_type, BasicType):
        kind = idl_type.kind
        if kind == "void":
            if value is not None:
                raise MarshalError(f"void value must be None, got {value!r}")
            return
        if kind == "boolean":
            if not isinstance(value, bool):
                raise MarshalError(f"boolean expected, got {value!r}")
            out.write_bool(value)
        elif kind == "octet":
            _check_int(kind, value, 0, 255)
            out.write_octet(value)
        elif kind == "short":
            _check_int(kind, value, -(2**15), 2**15 - 1)
            out.write_short(value)
        elif kind == "unsigned short":
            _check_int(kind, value, 0, 2**16 - 1)
            out.write_ushort(value)
        elif kind == "long":
            _check_int(kind, value, -(2**31), 2**31 - 1)
            out.write_long(value)
        elif kind == "unsigned long":
            _check_int(kind, value, 0, 2**32 - 1)
            out.write_ulong(value)
        elif kind == "long long":
            _check_int(kind, value, -(2**63), 2**63 - 1)
            out.write_longlong(value)
        elif kind == "unsigned long long":
            _check_int(kind, value, 0, 2**64 - 1)
            # CDR has no unsigned 64 write here; store as two ulongs.
            out.write_ulong(value >> 32)
            out.write_ulong(value & 0xFFFFFFFF)
        elif kind in ("float", "double"):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise MarshalError(f"{kind} expected, got {value!r}")
            out.write_double(float(value))
        elif kind == "string":
            if not isinstance(value, str):
                raise MarshalError(f"string expected, got {value!r}")
            out.write_string(value)
        elif kind == "any":
            write_any(out.buf, value)
        else:  # pragma: no cover - parser limits the kinds
            raise MarshalError(f"unknown basic type {kind!r}")
        return
    if isinstance(idl_type, SequenceType):
        if not isinstance(value, (list, tuple)):
            raise MarshalError(f"sequence expected, got {value!r}")
        out.write_ulong(len(value))
        for item in value:
            write_typed(out, idl_type.element, item, compiled)
        return
    if isinstance(idl_type, NamedType):
        cls = compiled.structs.get(idl_type.name) or compiled.exceptions.get(idl_type.name)
        if cls is None:
            raise MarshalError(f"unresolved named type {idl_type.name!r}")
        if not isinstance(value, cls):
            raise MarshalError(f"{idl_type.name} instance expected, got {value!r}")
        member_types = getattr(cls, "__member_types__", {})
        for member in cls.__members__:
            write_typed(out, member_types[member], getattr(value, member), compiled)
        return
    raise MarshalError(f"unknown IDL type {idl_type!r}")


def read_typed(stream: CdrInputStream, idl_type: IdlType, compiled: CompiledIdl) -> Any:
    """Read a value of declared ``idl_type`` (inverse of :func:`write_typed`)."""
    if isinstance(idl_type, BasicType):
        kind = idl_type.kind
        if kind == "void":
            return None
        if kind == "boolean":
            return stream.read_bool()
        if kind == "octet":
            return stream.read_octet()
        if kind == "short":
            return stream.read_short()
        if kind == "unsigned short":
            return stream.read_ushort()
        if kind == "long":
            return stream.read_long()
        if kind == "unsigned long":
            return stream.read_ulong()
        if kind == "long long":
            return stream.read_longlong()
        if kind == "unsigned long long":
            high = stream.read_ulong()
            return (high << 32) | stream.read_ulong()
        if kind in ("float", "double"):
            return stream.read_double()
        if kind == "string":
            return stream.read_string()
        if kind == "any":
            value, stream.pos = read_any(stream.data, stream.pos)
            return value
        raise MarshalError(f"unknown basic type {kind!r}")  # pragma: no cover
    if isinstance(idl_type, SequenceType):
        count = stream.read_ulong()
        return [read_typed(stream, idl_type.element, compiled) for _ in range(count)]
    if isinstance(idl_type, NamedType):
        cls = compiled.structs.get(idl_type.name) or compiled.exceptions.get(idl_type.name)
        if cls is None:
            raise MarshalError(f"unresolved named type {idl_type.name!r}")
        member_types = getattr(cls, "__member_types__", {})
        values = {
            member: read_typed(stream, member_types[member], compiled)
            for member in cls.__members__
        }
        return cls(**values)
    raise MarshalError(f"unknown IDL type {idl_type!r}")


def _check_int(kind: str, value: Any, low: int, high: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise MarshalError(f"{kind} expected, got {value!r}")
    if not low <= value <= high:
        raise MarshalError(f"{kind} out of range: {value}")
