"""The ``any`` tree walk ``serialization/cdr.py`` had before the flat codec.

A copy of the stream classes as they were, one method call per tag, pad,
length and ``_take``: :func:`cdr_dumps` here must give the bytes
:func:`repro.serialization.cdr.cdr_dumps` gives, and each must read what the
other wrote (``tests/property/test_codec_properties.py``).  Its error
behaviour on corrupt input is *not* the reference: it leaks
``UnicodeDecodeError``, ``ValueError``, ``TypeError`` and ``RecursionError``
where the codec under test raises :class:`MarshalError`.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.serialization.registry import TypeRegistry, global_registry
from repro.util.errors import MarshalError

# Type tags for the "any" encoding.
_TAG_NONE = 0
_TAG_TRUE = 1
_TAG_FALSE = 2
_TAG_INT64 = 3
_TAG_BIGINT = 4
_TAG_DOUBLE = 5
_TAG_STRING = 6
_TAG_BYTES = 7
_TAG_LIST = 8
_TAG_TUPLE = 9
_TAG_DICT = 10
_TAG_VALUE = 11

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


class CdrOutputStream:
    """Write-side CDR stream with natural alignment."""

    def __init__(self, registry: TypeRegistry | None = None):
        self._buf = bytearray()
        self._registry = registry or global_registry

    def _align(self, n: int) -> None:
        pad = (-len(self._buf)) % n
        if pad:
            self._buf.extend(b"\x00" * pad)

    def write_octet(self, value: int) -> None:
        self._buf.append(value & 0xFF)

    def write_bool(self, value: bool) -> None:
        self._buf.append(1 if value else 0)

    def write_short(self, value: int) -> None:
        self._align(2)
        self._buf.extend(struct.pack(">h", value))

    def write_ushort(self, value: int) -> None:
        self._align(2)
        self._buf.extend(struct.pack(">H", value))

    def write_long(self, value: int) -> None:
        self._align(4)
        self._buf.extend(struct.pack(">i", value))

    def write_ulong(self, value: int) -> None:
        self._align(4)
        self._buf.extend(struct.pack(">I", value))

    def write_longlong(self, value: int) -> None:
        self._align(8)
        self._buf.extend(struct.pack(">q", value))

    def write_double(self, value: float) -> None:
        self._align(8)
        self._buf.extend(struct.pack(">d", value))

    def write_string(self, value: str) -> None:
        data = value.encode("utf-8")
        self.write_ulong(len(data))
        self._buf.extend(data)

    def write_bytes(self, value: bytes) -> None:
        self.write_ulong(len(value))
        self._buf.extend(value)

    def write_any(self, value: Any) -> None:
        """Write a run-time-typed value with a leading type tag."""
        if value is None:
            self.write_octet(_TAG_NONE)
        elif value is True:
            self.write_octet(_TAG_TRUE)
        elif value is False:
            self.write_octet(_TAG_FALSE)
        elif isinstance(value, int):
            if _INT64_MIN <= value <= _INT64_MAX:
                self.write_octet(_TAG_INT64)
                self.write_longlong(value)
            else:
                self.write_octet(_TAG_BIGINT)
                self.write_string(str(value))
        elif isinstance(value, float):
            self.write_octet(_TAG_DOUBLE)
            self.write_double(value)
        elif isinstance(value, str):
            self.write_octet(_TAG_STRING)
            self.write_string(value)
        elif isinstance(value, (bytes, bytearray)):
            self.write_octet(_TAG_BYTES)
            self.write_bytes(bytes(value))
        elif isinstance(value, list):
            self.write_octet(_TAG_LIST)
            self.write_ulong(len(value))
            for item in value:
                self.write_any(item)
        elif isinstance(value, tuple):
            self.write_octet(_TAG_TUPLE)
            self.write_ulong(len(value))
            for item in value:
                self.write_any(item)
        elif isinstance(value, dict):
            self.write_octet(_TAG_DICT)
            self.write_ulong(len(value))
            for key, item in value.items():
                self.write_any(key)
                self.write_any(item)
        else:
            name = self._registry.name_for(value)
            if name is None:
                raise MarshalError(
                    f"cannot marshal {type(value).__name__}; register it as a value type"
                )
            type_name, state = self._registry.encode(value)
            self.write_octet(_TAG_VALUE)
            self.write_string(type_name)
            self.write_any(state)

    def getvalue(self) -> bytes:
        return bytes(self._buf)

    def reset(self) -> None:
        """Clear the stream for reuse, keeping the allocated buffer."""
        self._buf.clear()

    def __len__(self) -> int:
        return len(self._buf)


class CdrInputStream:
    """Read-side CDR stream; raises :class:`MarshalError` on truncation.

    Reads operate on a :class:`memoryview` of the input, so every ``_take``
    is a zero-copy slice; bytes only materialize at string/bytes leaves."""

    def __init__(self, data, registry: TypeRegistry | None = None):
        self._data = data if isinstance(data, memoryview) else memoryview(data)
        self._pos = 0
        self._registry = registry or global_registry

    def _align(self, n: int) -> None:
        self._pos += (-self._pos) % n

    def _take(self, n: int) -> memoryview:
        if self._pos + n > len(self._data):
            raise MarshalError("CDR stream truncated")
        chunk = self._data[self._pos : self._pos + n]
        self._pos += n
        return chunk

    def seek(self, pos: int) -> None:
        """Position the read cursor (used by compiled marshalling plans)."""
        if not 0 <= pos <= len(self._data):
            raise MarshalError("CDR seek out of bounds")
        self._pos = pos

    def read_octet(self) -> int:
        return self._take(1)[0]

    def read_bool(self) -> bool:
        return self._take(1)[0] != 0

    def read_short(self) -> int:
        self._align(2)
        return struct.unpack(">h", self._take(2))[0]

    def read_ushort(self) -> int:
        self._align(2)
        return struct.unpack(">H", self._take(2))[0]

    def read_long(self) -> int:
        self._align(4)
        return struct.unpack(">i", self._take(4))[0]

    def read_ulong(self) -> int:
        self._align(4)
        return struct.unpack(">I", self._take(4))[0]

    def read_longlong(self) -> int:
        self._align(8)
        return struct.unpack(">q", self._take(8))[0]

    def read_double(self) -> float:
        self._align(8)
        return struct.unpack(">d", self._take(8))[0]

    def read_string(self) -> str:
        length = self.read_ulong()
        # str(buffer, encoding) decodes straight from the memoryview slice.
        return str(self._take(length), "utf-8")

    def read_bytes(self) -> bytes:
        length = self.read_ulong()
        return bytes(self._take(length))

    def read_any(self) -> Any:
        tag = self.read_octet()
        if tag == _TAG_NONE:
            return None
        if tag == _TAG_TRUE:
            return True
        if tag == _TAG_FALSE:
            return False
        if tag == _TAG_INT64:
            return self.read_longlong()
        if tag == _TAG_BIGINT:
            return int(self.read_string())
        if tag == _TAG_DOUBLE:
            return self.read_double()
        if tag == _TAG_STRING:
            return self.read_string()
        if tag == _TAG_BYTES:
            return self.read_bytes()
        if tag in (_TAG_LIST, _TAG_TUPLE):
            count = self.read_ulong()
            items = [self.read_any() for _ in range(count)]
            return tuple(items) if tag == _TAG_TUPLE else items
        if tag == _TAG_DICT:
            count = self.read_ulong()
            result = {}
            for _ in range(count):
                key = self.read_any()
                result[key] = self.read_any()
            return result
        if tag == _TAG_VALUE:
            type_name = self.read_string()
            state = self.read_any()
            return self._registry.decode(type_name, state)
        raise MarshalError(f"unknown CDR any tag: {tag}")

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos


def cdr_dumps(value: Any, registry: TypeRegistry | None = None) -> bytes:
    """Encode one run-time-typed value as a standalone CDR buffer."""
    out = CdrOutputStream(registry)
    out.write_any(value)
    return out.getvalue()


def cdr_loads(data: bytes, registry: TypeRegistry | None = None) -> Any:
    """Decode a buffer produced by :func:`cdr_dumps`."""
    stream = CdrInputStream(data, registry)
    value = stream.read_any()
    return value
