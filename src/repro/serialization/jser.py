"""Java-serialization-like tagged codec used by the RMI-like platform.

Java RMI marshals arguments with Java object serialization: a self-describing
stream in which every value carries its type, and previously written objects
are replaced by back-references (handles) so shared and cyclic structure
round-trips.  This codec reproduces those properties:

- every value is tagged,
- ``list`` / ``dict`` / registered value-type instances are written once and
  referenced by handle afterwards (identity-based), so aliasing and cycles
  are preserved,
- registered value types (:mod:`repro.serialization.registry`) play the role
  of ``Serializable`` classes.

Varint-encoded lengths keep small messages compact, which is one of the
reasons the RMI substrate benchmarks faster than the ORB substrate — the
same qualitative gap the paper reports between JDK 1.3 RMI and Visibroker.

:func:`jser_dumps` and :func:`jser_loads` each walk a whole value in one
loop.  The enclosing containers, at most ``MAX_DEPTH`` of them, are a chain
of tuples in a local, each holding the next one out, so a push or a pop is
a tuple built or unpacked and no call; a tag and a length below 128 are one
constant out and two index reads in.  A list or tuple is read into all its
slots at once, after its count is checked against the bytes left.  Inside
a container, a declared wire name
(:func:`repro.serialization.tags.declare_names`) that is an exact ``str`` is
written as its pre-built run and read back as the declared object, with no
``encode`` or ``decode``; the walks never add one.  A ``str`` alone is a
piggyback value or a reply, data rather than a name, and skips the table.
"""

from __future__ import annotations

import struct
from itertools import chain
from typing import Any

from repro.serialization.registry import TypeRegistry, global_registry
from repro.serialization.tags import (
    INT64_MAX, INT64_MIN, LENGTH_PREFIXED, MAX_DEPTH, NAME_RUNS, NAMES_BY_TEXT, TAG_BIGINT,
    TAG_BYTES, TAG_DICT, TAG_FALSE, TAG_FLOAT, TAG_INT, TAG_LIST, TAG_NONE, TAG_OF, TAG_STR,
    TAG_TRUE, TAG_TUPLE, TAG_VALUE, ladder_tag,
)
from repro.util.errors import MarshalError

_TAG_REF = 12  # jser only: a back-reference to the nth list, dict or instance

_TRUNCATED = "jser stream truncated"
_TOO_DEEP = f"jser value nested deeper than {MAX_DEPTH}"

_PACK_FLOAT = struct.Struct(">Bd").pack
_DOUBLE_AT = struct.Struct(">d").unpack_from

# ``_SHORT[tag][n]``: the tag and, after it, ``n`` as a one-byte varint.
_SHORT = tuple(tuple(bytes((tag, n)) for n in range(0x80)) for tag in range(_TAG_REF + 1))


def _head(tag: int, value: int) -> bytes:
    """The tag and, after it, ``value`` as a LEB128 unsigned varint."""
    out = bytearray((tag,))
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def _long_varint(data: bytes, pos: int) -> tuple[int, int]:
    """The varint at ``data[pos:]`` (a multi-byte one) and the offset just past it."""
    result = shift = 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise MarshalError("varint too long")


def jser_dumps(value: Any, registry: TypeRegistry | None = None) -> bytes:
    """Encode a value as a self-describing jser buffer."""
    if registry is None:
        registry = global_registry
    try:
        # A scalar alone is written in one step, without the walk's state.
        kind = type(value)
        if kind is str:
            data = value.encode()
            n = len(data)
            return (_SHORT[TAG_STR][n] if n < 0x80 else _head(TAG_STR, n)) + data
        if kind is float:
            return _PACK_FLOAT(TAG_FLOAT, value)
        if value is None:
            return b"\x00"
        if kind is bool:
            return b"\x01" if value else b"\x02"
        if kind is int and INT64_MIN <= value <= INT64_MAX:
            n = (value << 1) ^ (value >> 63)
            return _SHORT[TAG_INT][n] if n < 0x80 else _head(TAG_INT, n)
        buf = bytearray()
        # id -> (handle, object) for each list, dict and value instance written;
        # holding the object keeps its id from being handed out again.
        handles: dict[int, tuple[int, Any]] = {}
        count = 0  # the next handle
        outer = None  # the enclosing containers' iterators: (innermost, next link out)
        depth = 0
        pending = iter((value,))
        while True:
            for value in pending:
                kind = type(value)
                try:
                    tag = TAG_OF[kind]
                except KeyError:
                    tag = ladder_tag(value)
                if tag == TAG_STR:
                    if kind is str and value in NAME_RUNS:
                        buf += NAME_RUNS[value]
                    else:  # undeclared, or a subclass with its own encode
                        data = value.encode()
                        n = len(data)
                        buf += _SHORT[tag][n] if n < 0x80 else _head(tag, n)
                        buf += data
                elif tag == TAG_INT:
                    if INT64_MIN <= value <= INT64_MAX:
                        n = (value << 1) ^ (value >> 63)  # zigzag: small negatives stay small
                        buf += _SHORT[tag][n] if n < 0x80 else _head(tag, n)
                    else:
                        data = str(value).encode()
                        buf += _head(TAG_BIGINT, len(data))
                        buf += data
                elif tag == TAG_NONE:
                    buf += b"\x00"
                elif tag == TAG_TRUE:
                    buf += b"\x01" if value else b"\x02"
                elif tag == TAG_FLOAT:
                    buf += _PACK_FLOAT(tag, value)
                elif tag == TAG_BYTES:
                    n = len(value)
                    buf += _SHORT[tag][n] if n < 0x80 else _head(tag, n)
                    buf += value
                elif tag == TAG_TUPLE:
                    n = len(value)
                    buf += _SHORT[tag][n] if n < 0x80 else _head(tag, n)
                    children = iter(value)
                    break
                else:
                    key = id(value)
                    if key in handles:
                        n = handles[key][0]
                        buf += _SHORT[_TAG_REF][n] if n < 0x80 else _head(_TAG_REF, n)
                        continue
                    handles[key] = (count, value)
                    count += 1
                    if tag == TAG_LIST:
                        data, n, children = b"", len(value), iter(value)
                    elif tag == TAG_DICT:
                        data, n, children = b"", len(value), chain.from_iterable(value.items())
                    else:
                        type_name, state = registry.encode(value)
                        data = type_name.encode()
                        n, children = len(data), iter((state,))
                    buf += _SHORT[tag][n] if n < 0x80 else _head(tag, n)
                    buf += data
                    break
            else:
                if outer is None:
                    return bytes(buf)
                pending, outer = outer
                depth -= 1
                continue
            # The value just begun has children: they come before the rest.
            if depth >= MAX_DEPTH:
                raise MarshalError(_TOO_DEEP)
            depth += 1
            outer = (pending, outer)
            pending = children
    except ValueError as exc:  # a lone surrogate; an int past the digit limit
        raise MarshalError(f"cannot marshal value: {exc}") from exc


def jser_loads(data: bytes, registry: TypeRegistry | None = None) -> Any:
    """Decode a buffer produced by :func:`jser_dumps`.  Whatever is wrong
    with the bytes, the error is a :class:`MarshalError`."""
    if registry is None:
        registry = global_registry
    if type(data) is not bytes:
        data = bytes(data)
    try:
        # A scalar alone is read in one step, without the walk's state.
        tag = data[0]
        if tag <= TAG_FALSE:
            return None if tag == TAG_NONE else tag == TAG_TRUE
        if tag == TAG_FLOAT:
            return _DOUBLE_AT(data, 1)[0]
        n = data[1] if tag == TAG_INT or tag == TAG_STR else 0x80
        if n < 0x80:
            if tag == TAG_INT:
                return (n >> 1) ^ -(n & 1)
            if n + 2 <= len(data):
                return data[2 : n + 2].decode()
        size = len(data)
        pos = 0
        objects: list = []  # what each handle stands for, in stream order
        # The container being filled: its tag, the object collecting its
        # children, how many are still missing, and one more word -- a dict's
        # key while its value is read, a value type's handle while its state
        # is, a list's or tuple's next slot.
        kind = items = key = None
        missing = 0
        outer = None  # the containers around it: (the same four words, next link out)
        depth = 0
        while True:
            tag = data[pos]
            if tag <= TAG_FALSE:
                pos += 1
                value = None if tag == TAG_NONE else tag == TAG_TRUE
            elif tag == TAG_FLOAT:
                (value,) = _DOUBLE_AT(data, pos + 1)
                pos += 9
            elif tag > _TAG_REF:
                raise MarshalError(f"unknown jser tag: {tag}")
            else:
                n = data[pos + 1]
                pos += 2
                if n > 0x7F:
                    n, pos = _long_varint(data, pos - 1)
                if tag in LENGTH_PREFIXED:
                    end = pos + n
                    if end > size:
                        raise MarshalError(_TRUNCATED)
                    value = data[pos:end]
                    pos = end
                    if tag == TAG_STR:
                        value = NAMES_BY_TEXT[value] if value in NAMES_BY_TEXT else value.decode()
                    elif tag == TAG_BIGINT:
                        value = int(value.decode("ascii"))
                    elif tag == TAG_VALUE:
                        if depth >= MAX_DEPTH:
                            raise MarshalError(_TOO_DEEP)
                        depth += 1
                        outer = (kind, items, missing, key, outer)
                        # The handle is reserved before the state is read, so
                        # that a reference to the instance from inside its own
                        # state resolves (to None, until the instance exists).
                        kind, items, missing, key = tag, value.decode(), 1, len(objects)
                        objects.append(None)
                        continue
                elif tag == TAG_INT:
                    value = (n >> 1) ^ -(n & 1)  # un-zigzag
                elif tag == _TAG_REF:
                    if n >= len(objects):
                        raise MarshalError(f"dangling jser reference: {n}")
                    value = objects[n]
                else:
                    if n:
                        if depth >= MAX_DEPTH:
                            raise MarshalError(_TOO_DEEP)
                        if n > size - pos:  # each child takes an octet at least
                            raise MarshalError(_TRUNCATED)
                    value = [None] * n if tag == TAG_LIST else {} if tag == TAG_DICT else ()
                    if tag != TAG_TUPLE:
                        objects.append(value)
                    if n:
                        depth += 1
                        outer = (kind, items, missing, key, outer)
                        kind, key = tag, 0
                        items = [None] * n if tag == TAG_TUPLE else value
                        missing = n * 2 if tag == TAG_DICT else n
                        continue
            while kind is not None:
                if kind == TAG_DICT:
                    if missing & 1:
                        items[key] = value
                    else:
                        key = value
                elif kind == TAG_VALUE:
                    value = objects[key] = registry.decode(items, value)
                    kind, items, missing, key, outer = outer
                    depth -= 1
                    continue
                else:
                    items[key] = value
                    key += 1
                missing -= 1
                if missing:
                    break
                value = tuple(items) if kind == TAG_TUPLE else items
                kind, items, missing, key, outer = outer
                depth -= 1
            else:
                return value
    except (IndexError, struct.error) as exc:
        raise MarshalError(_TRUNCATED) from exc
    except (ValueError, TypeError) as exc:
        raise MarshalError(f"corrupt jser stream: {exc}") from exc
