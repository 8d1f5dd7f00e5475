"""The jser codec as a recursive tree walk over ``_Encoder``/``_Decoder``
objects: the implementation ``repro.serialization.jser`` had before the flat
one-pass codec replaced it, kept as the differential oracle.  Same wire
bytes, same handle assignment; it recurses, so it has no depth cap, and its
decoder leaks ``UnicodeDecodeError``/``ValueError``/``TypeError`` on corrupt
input where the codec under test raises ``MarshalError``."""

from __future__ import annotations

import struct
from typing import Any

from repro.serialization.registry import TypeRegistry, global_registry
from repro.util.errors import MarshalError

_TAG_NONE = 0
_TAG_TRUE = 1
_TAG_FALSE = 2
_TAG_INT = 3
_TAG_BIGINT = 4
_TAG_FLOAT = 5
_TAG_STR = 6
_TAG_BYTES = 7
_TAG_LIST = 8
_TAG_TUPLE = 9
_TAG_DICT = 10
_TAG_VALUE = 11
_TAG_REF = 12

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


def _write_varint(buf: bytearray, value: int) -> None:
    """LEB128 unsigned varint."""
    if value < 0:
        raise MarshalError("varint must be non-negative")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            buf.append(byte | 0x80)
        else:
            buf.append(byte)
            return


class _Encoder:
    def __init__(self, registry: TypeRegistry):
        self._buf = bytearray()
        self._registry = registry
        self._handles: dict[int, int] = {}  # id(obj) -> handle
        # Keep encoded objects alive so ids stay unique during encoding.
        self._pins: list[Any] = []

    def encode(self, value: Any) -> bytes:
        self._write(value)
        return bytes(self._buf)

    def _assign_handle(self, value: Any) -> int:
        handle = len(self._handles)
        self._handles[id(value)] = handle
        self._pins.append(value)
        return handle

    def _write_ref_or(self, value: Any) -> bool:
        """Write a back-reference if ``value`` was seen; return True if so."""
        handle = self._handles.get(id(value))
        if handle is None:
            return False
        self._buf.append(_TAG_REF)
        _write_varint(self._buf, handle)
        return True

    def _write(self, value: Any) -> None:
        # Ordered by observed frequency in RPC frames (strings and small
        # ints dominate); small lengths skip the varint helper entirely.
        buf = self._buf
        if type(value) is str:
            buf.append(_TAG_STR)
            data = value.encode("utf-8")
            n = len(data)
            if n < 0x80:
                buf.append(n)
            else:
                _write_varint(buf, n)
            buf.extend(data)
        elif value is None:
            buf.append(_TAG_NONE)
        elif value is True:
            buf.append(_TAG_TRUE)
        elif value is False:
            buf.append(_TAG_FALSE)
        elif isinstance(value, int):
            if _INT64_MIN <= value <= _INT64_MAX:
                buf.append(_TAG_INT)
                # zigzag so small negatives stay small
                encoded = ((value << 1) ^ (value >> 63)) & ((1 << 64) - 1)
                if encoded < 0x80:
                    buf.append(encoded)
                else:
                    _write_varint(buf, encoded)
            else:
                buf.append(_TAG_BIGINT)
                text = str(value).encode("ascii")
                _write_varint(buf, len(text))
                buf.extend(text)
        elif isinstance(value, float):
            buf.append(_TAG_FLOAT)
            buf.extend(struct.pack(">d", value))
        elif isinstance(value, str):  # str subclasses take the slow path
            buf.append(_TAG_STR)
            data = value.encode("utf-8")
            _write_varint(buf, len(data))
            buf.extend(data)
        elif isinstance(value, (bytes, bytearray)):
            self._buf.append(_TAG_BYTES)
            _write_varint(self._buf, len(value))
            self._buf.extend(value)
        elif isinstance(value, list):
            if self._write_ref_or(value):
                return
            self._assign_handle(value)
            self._buf.append(_TAG_LIST)
            _write_varint(self._buf, len(value))
            for item in value:
                self._write(item)
        elif isinstance(value, tuple):
            self._buf.append(_TAG_TUPLE)
            _write_varint(self._buf, len(value))
            for item in value:
                self._write(item)
        elif isinstance(value, dict):
            if self._write_ref_or(value):
                return
            self._assign_handle(value)
            self._buf.append(_TAG_DICT)
            _write_varint(self._buf, len(value))
            for key, item in value.items():
                self._write(key)
                self._write(item)
        else:
            if self._write_ref_or(value):
                return
            name = self._registry.name_for(value)
            if name is None:
                raise MarshalError(
                    f"cannot marshal {type(value).__name__}; register it as a value type"
                )
            self._assign_handle(value)
            type_name, state = self._registry.encode(value)
            self._buf.append(_TAG_VALUE)
            data = type_name.encode("utf-8")
            _write_varint(self._buf, len(data))
            self._buf.extend(data)
            self._write(state)


class _Decoder:
    def __init__(self, data: bytes, registry: TypeRegistry):
        self._data = data
        self._pos = 0
        self._registry = registry
        self._objects: list[Any] = []

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise MarshalError("jser stream truncated")
        chunk = self._data[self._pos : self._pos + n]
        self._pos += n
        return chunk

    def _read_varint(self) -> int:
        shift = 0
        result = 0
        while True:
            byte = self._take(1)[0]
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7
            if shift > 70:
                raise MarshalError("varint too long")

    def decode(self) -> Any:
        return self._read()

    def _read(self) -> Any:
        tag = self._take(1)[0]
        if tag == _TAG_NONE:
            return None
        if tag == _TAG_TRUE:
            return True
        if tag == _TAG_FALSE:
            return False
        if tag == _TAG_INT:
            raw = self._read_varint()
            return (raw >> 1) ^ -(raw & 1)  # un-zigzag
        if tag == _TAG_BIGINT:
            length = self._read_varint()
            return int(self._take(length).decode("ascii"))
        if tag == _TAG_FLOAT:
            return struct.unpack(">d", self._take(8))[0]
        if tag == _TAG_STR:
            length = self._read_varint()
            return self._take(length).decode("utf-8")
        if tag == _TAG_BYTES:
            length = self._read_varint()
            return self._take(length)
        if tag == _TAG_LIST:
            count = self._read_varint()
            items: list[Any] = []
            self._objects.append(items)
            for _ in range(count):
                items.append(self._read())
            return items
        if tag == _TAG_TUPLE:
            count = self._read_varint()
            return tuple(self._read() for _ in range(count))
        if tag == _TAG_DICT:
            count = self._read_varint()
            result: dict[Any, Any] = {}
            self._objects.append(result)
            for _ in range(count):
                key = self._read()
                result[key] = self._read()
            return result
        if tag == _TAG_VALUE:
            length = self._read_varint()
            type_name = self._take(length).decode("utf-8")
            # Reserve the handle before reading state so cycles through the
            # instance resolve; patch the placeholder after construction.
            placeholder_index = len(self._objects)
            self._objects.append(None)
            state = self._read()
            obj = self._registry.decode(type_name, state)
            self._objects[placeholder_index] = obj
            return obj
        if tag == _TAG_REF:
            handle = self._read_varint()
            if handle >= len(self._objects):
                raise MarshalError(f"dangling jser reference: {handle}")
            return self._objects[handle]
        raise MarshalError(f"unknown jser tag: {tag}")


def tree_dumps(value: Any, registry: TypeRegistry | None = None) -> bytes:
    """Encode a value as a self-describing jser buffer."""
    return _Encoder(registry or global_registry).encode(value)


def tree_loads(data: bytes, registry: TypeRegistry | None = None) -> Any:
    """Decode a buffer produced by :func:`tree_dumps`."""
    return _Decoder(data, registry or global_registry).decode()
