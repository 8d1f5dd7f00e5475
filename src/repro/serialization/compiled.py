"""Per-signature compiled marshalling plans: the typed CDR encoder.

Real IDL compilers walk the IDL type tree once, at stub generation time, and
emit flat marshalling code, where a naive marshaller re-runs an
``isinstance`` ladder over the type model and re-resolves named types for
every *value*.  This module is that compile step for the Python
reproduction:

- :class:`SignaturePlan` compiles an ordered list of IDL types (an
  operation's parameter list, or its result) into a *flat list of pre-bound
  ops*.  A leading run of fixed-width primitives — alignment resolved
  statically, since a typed CDR body always starts at offset 0 — collapses
  into a single pre-built :class:`struct.Struct` pack/unpack (with explicit
  pad bytes), so a primitives-only signature marshals in one call.
- Types after the first variable-length field (strings, sequences, ``any``,
  structs) are compiled to closures with all name resolution and member
  lists done once and the stream's primitive functions bound directly;
  runtime alignment is handled by the stream.
- ``any`` members use the tagged :func:`~repro.serialization.cdr.write_any`
  encoding, the same one the dynamic DII/DSI route sends.

``unsigned long long`` is two consecutive big-endian ``ulong`` values, which
the fixed prefix packs as one ``Q`` at 4-byte alignment.  A bad value raises
:class:`~repro.util.errors.MarshalError` at the sender with nothing written:
each value passes the IDL's one conformance check
(:func:`~repro.idl.compiler.compile_check`) first, and the writers write
without checking.
``tests/oracles/typed_tree_walk.py`` keeps a per-value tree walk that the
plans are tested against, byte for byte.
"""

from __future__ import annotations

import struct
from typing import Any, Callable

from repro.idl.ast import BasicType, IdlType, NamedType, SequenceType
from repro.idl.compiler import compile_check
from repro.serialization.cdr import CdrInputStream, CdrOutputStream, read_any, write_any
from repro.util.errors import MarshalError

# kind -> (struct code, CDR alignment, size). ``unsigned long long`` is two
# adjacent big-endian ulongs on the wire == one 'Q' at 4-byte alignment;
# IDL float widens to double, as in the tree walk.
_FIXED: dict[str, tuple[str, int, int]] = {
    "boolean": ("?", 1, 1),
    "octet": ("B", 1, 1),
    "short": ("h", 2, 2),
    "unsigned short": ("H", 2, 2),
    "long": ("i", 4, 4),
    "unsigned long": ("I", 4, 4),
    "long long": ("q", 8, 8),
    "unsigned long long": ("Q", 4, 8),
    "float": ("d", 8, 8),
    "double": ("d", 8, 8),
}

# kind -> the stream function that moves one such value after the prefix.
_WRITE = {
    "boolean": CdrOutputStream.write_bool,
    "octet": CdrOutputStream.write_octet,
    "short": CdrOutputStream.write_short,
    "unsigned short": CdrOutputStream.write_ushort,
    "long": CdrOutputStream.write_long,
    "unsigned long": CdrOutputStream.write_ulong,
    "long long": CdrOutputStream.write_longlong,
    "float": CdrOutputStream.write_double,
    "double": CdrOutputStream.write_double,
    "string": CdrOutputStream.write_string,
}
_READ = {
    "boolean": CdrInputStream.read_bool,
    "octet": CdrInputStream.read_octet,
    "short": CdrInputStream.read_short,
    "unsigned short": CdrInputStream.read_ushort,
    "long": CdrInputStream.read_long,
    "unsigned long": CdrInputStream.read_ulong,
    "long long": CdrInputStream.read_longlong,
    "float": CdrInputStream.read_double,
    "double": CdrInputStream.read_double,
    "string": CdrInputStream.read_string,
}

# -- dynamic (closure-compiled) writers and readers ---------------------------


def compile_writer(idl_type: IdlType, compiled) -> Callable[[Any, Any], None]:
    """Compile ``idl_type`` to a ``writer(out, value)`` closure.

    All type-model dispatch, named-type resolution, and member enumeration
    happens here, once; the returned closure only does stream writes, of a
    value :func:`~repro.idl.compiler.compile_check`'s check has passed.
    ``compiled`` is the compiled-IDL table object (duck typed: ``structs``
    / ``exceptions`` dicts).
    """
    if isinstance(idl_type, BasicType):
        kind = idl_type.kind
        if kind == "void":
            return lambda out, value: None
        if kind == "any":
            return lambda out, value: write_any(out.buf, value)
        if kind == "unsigned long long":
            write_ulong = CdrOutputStream.write_ulong

            def write_u64(out: Any, value: Any) -> None:
                write_ulong(out, value >> 32)
                write_ulong(out, value & 0xFFFFFFFF)

            return write_u64
        if kind in _WRITE:
            return _WRITE[kind]
        raise MarshalError(f"unknown basic type {kind!r}")
    if isinstance(idl_type, SequenceType):
        write_element = compile_writer(idl_type.element, compiled)

        def write_sequence(out: Any, value: Any) -> None:
            out.write_ulong(len(value))
            for item in value:
                write_element(out, item)

        return write_sequence
    if isinstance(idl_type, NamedType):
        cls = compiled.structs.get(idl_type.name) or compiled.exceptions.get(idl_type.name)
        if cls is None:
            raise MarshalError(f"unresolved named type {idl_type.name!r}")
        member_types = getattr(cls, "__member_types__", {})
        member_writers = tuple(
            (member, compile_writer(member_types[member], compiled))
            for member in cls.__members__
        )

        def write_struct(out: Any, value: Any) -> None:
            for member, write_member in member_writers:
                write_member(out, getattr(value, member))

        return write_struct
    raise MarshalError(f"unknown IDL type {idl_type!r}")


def compile_reader(idl_type: IdlType, compiled) -> Callable[[Any], Any]:
    """Compile ``idl_type`` to a ``reader(stream)`` closure."""
    if isinstance(idl_type, BasicType):
        kind = idl_type.kind
        if kind == "void":
            return lambda stream: None
        if kind == "any":

            def read_tagged(stream: Any) -> Any:
                value, stream.pos = read_any(stream.data, stream.pos)
                return value

            return read_tagged
        if kind == "unsigned long long":
            read_ulong = CdrInputStream.read_ulong

            def read_u64(stream: Any) -> int:
                high = read_ulong(stream)
                return (high << 32) | read_ulong(stream)

            return read_u64
        if kind in _READ:
            return _READ[kind]
        raise MarshalError(f"unknown basic type {kind!r}")
    if isinstance(idl_type, SequenceType):
        read_element = compile_reader(idl_type.element, compiled)

        def read_sequence(stream: Any) -> list:
            return [read_element(stream) for _ in range(stream.read_ulong())]

        return read_sequence
    if isinstance(idl_type, NamedType):
        cls = compiled.structs.get(idl_type.name) or compiled.exceptions.get(idl_type.name)
        if cls is None:
            raise MarshalError(f"unresolved named type {idl_type.name!r}")
        member_types = getattr(cls, "__member_types__", {})
        member_readers = tuple(
            (member, compile_reader(member_types[member], compiled))
            for member in cls.__members__
        )

        def read_struct(stream: Any) -> Any:
            return cls(**{member: read for member, read in
                          ((m, r(stream)) for m, r in member_readers)})

        return read_struct
    raise MarshalError(f"unknown IDL type {idl_type!r}")


# -- signature plans -----------------------------------------------------------


class SignaturePlan:
    """Compiled marshalling plan for an ordered list of IDL types.

    Splits the signature at the first variable-length type: the fixed-width
    prefix becomes one pre-built :class:`struct.Struct` (``head``), the rest
    become pre-compiled closures (``tail``).  ``void`` entries occupy no
    wire space but keep their position (value must be None).  Each value
    passes its :func:`~repro.idl.compiler.compile_check` check before
    anything is written."""

    __slots__ = (
        "_checks",
        "_head_struct",
        "_head_size",
        "_head_count",
        "_tail_writers",
        "_tail_readers",
        "_arity",
        "_void_positions",
    )

    def __init__(self, types: list[IdlType] | tuple[IdlType, ...], compiled):
        head_fmt: list[str] = []
        void_positions: set[int] = set()
        offset = 0
        index = 0
        for index, idl_type in enumerate(types):
            if isinstance(idl_type, BasicType) and idl_type.kind == "void":
                void_positions.add(index)
                continue
            if not (isinstance(idl_type, BasicType) and idl_type.kind in _FIXED):
                break
            code, align, size = _FIXED[idl_type.kind]
            pad = (-offset) % align
            if pad:
                head_fmt.append(f"{pad}x")
            head_fmt.append(code)
            offset += pad + size
        else:
            index = len(types)

        self._head_struct = (
            struct.Struct(">" + "".join(head_fmt)) if head_fmt else None
        )
        self._head_size = offset
        self._head_count = index
        self._void_positions = frozenset(
            p for p in void_positions if p < index
        )
        tail_types = types[index:]
        self._tail_writers = tuple(
            compile_writer(t, compiled) for t in tail_types
        )
        self._tail_readers = tuple(
            compile_reader(t, compiled) for t in tail_types
        )
        self._checks = tuple(
            compile_check(t, compiled, f"signature value {position}")
            for position, t in enumerate(types)
        )
        self._arity = len(types)

    def marshal(self, values) -> bytes:
        """Encode ``values`` (one per signature type) as a typed CDR body."""
        if len(values) != self._arity:
            raise MarshalError(
                f"signature takes {self._arity} values, got {len(values)}"
            )
        for check, value in zip(self._checks, values):
            check(value)
        head_count = self._head_count
        if self._void_positions:
            head_values = [
                value for position, value in enumerate(values[:head_count])
                if position not in self._void_positions
            ]
        elif head_count == self._arity:
            head_values = values
        else:
            head_values = values[:head_count]
        # pack widens an int to a float/double slot itself.
        packed = b"" if self._head_struct is None else self._head_struct.pack(*head_values)
        if not self._tail_writers:
            return packed
        out = CdrOutputStream()
        out.buf += packed
        for write, value in zip(self._tail_writers, values[head_count:]):
            write(out, value)
        return out.getvalue()

    def unmarshal(self, data) -> list:
        """Decode a typed CDR body back into the signature's value list."""
        if self._head_struct is not None:
            try:
                fixed = self._head_struct.unpack_from(data, 0)
            except struct.error as exc:
                raise MarshalError("CDR stream truncated") from exc
        else:
            fixed = ()
        if self._void_positions:
            values: list[Any] = []
            fixed_iter = iter(fixed)
            for position in range(self._head_count):
                if position in self._void_positions:
                    values.append(None)
                else:
                    values.append(next(fixed_iter))
        else:
            values = list(fixed)
        if self._tail_readers:
            stream = CdrInputStream(data)
            stream.pos = self._head_size
            for read in self._tail_readers:
                values.append(read(stream))
        return values
