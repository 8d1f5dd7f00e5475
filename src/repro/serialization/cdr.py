"""CDR-like stream codec used by the CORBA-like ORB.

CORBA's Common Data Representation is a stream of explicitly typed primitive
values: the sender and receiver agree on the sequence of types out of band
(the IDL signature), so the wire carries no per-value type tags for
primitives.  This module reproduces that style:

- big-endian fixed-width integers and IEEE floats,
- natural alignment of primitives (2/4/8-byte values aligned as in CDR),
- length-prefixed UTF-8 strings and byte sequences,
- a tagged ``any`` encoding for values whose type is only known at run time
  (used by the DII/DSI paths where requests are built dynamically).

The ``any`` encoding supports None, bool, int, float, str, bytes, list,
tuple, dict, and registered value types (:mod:`repro.serialization.registry`).

Every write is one pre-built :class:`struct.Struct` whose format already
holds the pad bytes for the buffer's current alignment residue, and every
read is an ``unpack_from`` at an aligned offset.  :func:`write_any` and
:func:`read_any` each walk a whole value in one loop.  The enclosing
containers, at most :data:`MAX_DEPTH` of them, are a chain of tuples in a
local, each holding the next one out, so a push or a pop makes no call; the
reader fills a dict as its keys and values arrive.

A list or tuple of records of one shape is read as one block once the first
is known: when a flat dict (``str`` keys, scalar values) closes inside a list
with siblings still to come, :func:`read_any` learns its layout, one
:class:`struct.Struct` for its start residue whose fields are the values and
the structural runs (tags, pads, lengths, key text) between them.  A later
sibling at that residue is one ``unpack_from`` and one comparison of its runs
with the learned ones; at the layout's first fit, the siblings left are one
``iter_unpack``, one comparison of all their runs and one C-level pass per
field (:func:`_records`).  Any other sibling is read by the generic loop.
The layouts are locals of one walk and go with it.

The writer's converse (:func:`_write_records`) writes a list of flat records
of one shape as templates joined in record order, each numeric column then
laid in with one ``pack``.
"""

from __future__ import annotations

import struct
from collections import deque
from itertools import chain, repeat
from operator import itemgetter, setitem
from typing import Any

from repro.serialization.registry import TypeRegistry, global_registry
from repro.serialization.tags import (
    INT64_MAX, INT64_MIN, LENGTH_PREFIXED, MAX_DEPTH, TAG_BIGINT, TAG_BYTES, TAG_DICT, TAG_FALSE,
    TAG_FLOAT, TAG_INT, TAG_LIST, TAG_NONE, TAG_OF, TAG_STR, TAG_TRUE, TAG_TUPLE, TAG_VALUE,
    ladder_tag,
)
from repro.util.errors import MarshalError

_TRUNCATED = "CDR stream truncated"
_TOO_DEEP = f"CDR any nested deeper than {MAX_DEPTH}"

#: Records one walk of :func:`read_any` may try to learn a layout from; once
#: it has tried them all, the first record that fits no layout of its
#: residue ends reading by layout for the rest of the walk (before any
#: record has fitted one, the second).
_LAYOUTS = 4

#: Templates :func:`_write_records` may write for the records after a
#: block's first: one per combination of their text and bool values.
_TEMPLATES = 4


def _packers(code: str, align: int, tagged: bool = False) -> tuple:
    """``pack`` methods for one primitive, indexed by buffer length modulo
    ``align``: each emits the pad bytes that residue needs and then the
    value, after a leading ``any`` tag octet when ``tagged``."""
    lead = "B" if tagged else ""
    return tuple(
        struct.Struct(f">{lead}{-(residue + tagged) % align}x{code}").pack
        for residue in range(align)
    )


_PACK_ULONG = _packers("I", 4)
_PACK_ANY_ULONG = _packers("I", 4, tagged=True)
_PACK_ANY_LONGLONG = _packers("q", 8, tagged=True)
_PACK_ANY_DOUBLE = _packers("d", 8, tagged=True)

_ULONG_AT = struct.Struct(">I").unpack_from
_LONGLONG_AT = struct.Struct(">q").unpack_from
_DOUBLE_AT = struct.Struct(">d").unpack_from


def _writer(code: str, align: int):
    """The stream method that writes one aligned primitive."""
    packers = _packers(code, align)
    mask = align - 1

    def write(self, value) -> None:
        buf = self.buf
        buf += packers[len(buf) & mask](value)

    return write


def _reader(code: str, size: int):
    """The stream method that reads one aligned primitive."""
    unpack_from = struct.Struct(">" + code).unpack_from
    mask = size - 1

    def read(self):
        pos = self.pos
        pos += -pos & mask
        try:
            (value,) = unpack_from(self.data, pos)
        except struct.error:
            raise MarshalError(_TRUNCATED) from None
        self.pos = pos + size
        return value

    return read


class CdrOutputStream:
    """Write-side CDR stream with natural alignment, appending to :attr:`buf`."""

    def __init__(self) -> None:
        self.buf = bytearray()

    def write_octet(self, value: int) -> None:
        self.buf.append(value & 0xFF)

    def write_bool(self, value: bool) -> None:
        self.buf.append(1 if value else 0)

    write_short = _writer("h", 2)
    write_ushort = _writer("H", 2)
    write_long = _writer("i", 4)
    write_ulong = _writer("I", 4)
    write_longlong = _writer("q", 8)
    write_double = _writer("d", 8)

    def write_string(self, value: str) -> None:
        data = value.encode()
        buf = self.buf
        buf += _PACK_ULONG[len(buf) & 3](len(data))
        buf += data

    def write_bytes(self, value: bytes) -> None:
        buf = self.buf
        buf += _PACK_ULONG[len(buf) & 3](len(value))
        buf += value

    def getvalue(self) -> bytes:
        return bytes(self.buf)


class CdrInputStream:
    """Read-side CDR stream over :attr:`data`, a cursor at :attr:`pos`.

    Raises :class:`MarshalError` on truncation and on strings that are not
    UTF-8."""

    def __init__(self, data) -> None:
        self.data = data if type(data) is bytes else bytes(data)
        self.pos = 0

    def read_octet(self) -> int:
        try:
            value = self.data[self.pos]
        except IndexError:
            raise MarshalError(_TRUNCATED) from None
        self.pos += 1
        return value

    def read_bool(self) -> bool:
        return self.read_octet() != 0

    read_short = _reader("h", 2)
    read_ushort = _reader("H", 2)
    read_long = _reader("i", 4)
    read_ulong = _reader("I", 4)
    read_longlong = _reader("q", 8)
    read_double = _reader("d", 8)

    def read_string(self) -> str:
        try:
            return self.read_bytes().decode()
        except UnicodeDecodeError as exc:
            raise MarshalError(f"CDR string is not UTF-8: {exc}") from exc

    def read_bytes(self) -> bytes:
        data = self.data
        pos = self.pos
        pos += -pos & 3
        try:
            end = pos + 4 + _ULONG_AT(data, pos)[0]
        except struct.error:
            raise MarshalError(_TRUNCATED) from None
        if end > len(data):
            raise MarshalError(_TRUNCATED)
        self.pos = end
        return data[pos + 4 : end]

    @property
    def remaining(self) -> int:
        return len(self.data) - self.pos


# -- the run-time-typed ``any`` ------------------------------------------------

def write_any(buf: bytearray, value: Any, registry: TypeRegistry = global_registry) -> None:
    """Append ``value`` to ``buf`` as a run-time-typed value with a leading tag."""
    outer = None  # the enclosing containers' iterators: (innermost, next link out)
    depth = 0
    pending = iter((value,))
    try:
        while True:
            for value in pending:
                try:
                    tag = TAG_OF[type(value)]
                except KeyError:
                    tag = ladder_tag(value)
                if tag == TAG_STR:
                    data = value.encode()
                    buf += _PACK_ANY_ULONG[len(buf) & 3](tag, len(data))
                    buf += data
                elif tag == TAG_FLOAT:
                    buf += _PACK_ANY_DOUBLE[len(buf) & 7](tag, value)
                elif tag == TAG_DICT:
                    buf += _PACK_ANY_ULONG[len(buf) & 3](tag, len(value))
                    children = chain.from_iterable(value.items())
                    break
                elif tag == TAG_LIST or tag == TAG_TUPLE:
                    count = len(value)
                    buf += _PACK_ANY_ULONG[len(buf) & 3](tag, count)
                    if (
                        count > 2 and type(value) in (list, tuple) and type(value[0]) is dict
                        and depth < MAX_DEPTH - 1 and _write_records(buf, value)
                    ):
                        continue  # flat records of one shape, written as one block
                    children = iter(value)
                    break
                elif tag == TAG_INT:
                    if INT64_MIN <= value <= INT64_MAX:
                        buf += _PACK_ANY_LONGLONG[len(buf) & 7](tag, value)
                    else:
                        data = str(value).encode()
                        buf += _PACK_ANY_ULONG[len(buf) & 3](TAG_BIGINT, len(data))
                        buf += data
                elif tag == TAG_NONE:
                    buf += b"\x00"
                elif tag == TAG_TRUE:
                    buf += b"\x01" if value else b"\x02"
                elif tag == TAG_BYTES:
                    buf += _PACK_ANY_ULONG[len(buf) & 3](tag, len(value))
                    buf += value
                else:
                    type_name, state = registry.encode(value)
                    data = type_name.encode()
                    buf += _PACK_ANY_ULONG[len(buf) & 3](tag, len(data))
                    buf += data
                    children = iter((state,))
                    break
            else:
                if outer is None:
                    return
                pending, outer = outer
                depth -= 1
                continue
            # The value just begun has children: they come before the rest.
            if depth >= MAX_DEPTH:
                raise MarshalError(_TOO_DEEP)
            depth += 1
            outer = (pending, outer)
            pending = children
    except UnicodeEncodeError as exc:
        raise MarshalError(f"cannot marshal string: {exc}") from exc


def _layout(data: bytes, start: int, end: int, record: dict) -> tuple | None:
    """How to read a record shaped like ``record``, the dict just decoded
    from ``data[start:end]``, at another offset with ``start``'s residue
    modulo 8; None unless it is flat (``str`` keys, no repeated key, values
    None, bool, 64-bit int, float or str).

    The layout is the record's width, the ``unpack_from`` of a struct whose
    fields alternate structural run and value, the runs as read here, the
    keys, the keys whose values are text, the keys whose values are
    constants and the offsets of the numeric values from ``start``.  The
    bytes decide what is structural, as they do for :func:`read_any`;
    ``record`` only lends its key objects, which are the same keys in the
    same order when no key repeats.
    """
    pos = start + 1
    pos += -pos & 3
    if _ULONG_AT(data, pos)[0] != len(record):
        return None
    pos += 4
    mark = start  # where the structural run being read began
    fmt = ">"
    keys = tuple(record)
    runs = texts = slots = ()
    consts = {}
    for key in keys:
        if data[pos] != TAG_STR:
            return None
        pos += 1
        pos += -pos & 3
        pos += 4 + _ULONG_AT(data, pos)[0]
        tag = data[pos]
        pos += 1
        if tag == TAG_FLOAT or tag == TAG_INT:
            pos += -pos & 7
            fmt += f"{pos - mark}s{'d' if tag == TAG_FLOAT else 'q'}"
            slots += (pos - start,)
            length = 8
        elif tag == TAG_STR:
            pos += -pos & 3
            length = _ULONG_AT(data, pos)[0]
            pos += 4
            fmt += f"{pos - mark}s{length}s"
            texts += (key,)
        elif tag == TAG_NONE or tag == TAG_TRUE or tag == TAG_FALSE:
            fmt += f"{pos - mark}s0s"
            consts[key] = record[key]
            length = 0
        else:
            return None
        runs += (data[mark:pos],)
        pos += length
        mark = pos
    if pos != end:
        return None
    return end - start, struct.Struct(fmt).unpack_from, runs, keys, texts, consts, slots


def _records(rows: list, keys: tuple, texts: tuple, consts: dict) -> list:
    """A block's records from its layout's rows: a template copied per record,
    each field set in all in one C-level pass, each distinct text decoded once."""
    records = [*map(dict.copy, repeat({**dict.fromkeys(keys), **consts}, len(rows)))]
    for name, column in zip(keys, [*zip(*rows)][1::2]):
        if name in texts:
            distinct = {*column}
            column = map(dict(zip(distinct, map(bytes.decode, distinct))).__getitem__, column)
        elif name in consts:
            continue
        deque(map(setitem, records, repeat(name), column), 0)
    return records


def _write_records(buf: bytearray, records) -> bool:
    """Append ``records``, the three or more elements of a list or tuple
    whose head is in ``buf``, as one block if they are flat records of one
    shape: exact dicts with the same exact-``str`` keys in the same order,
    each key's values of one exact type (None, bool, 64-bit int, float or
    str).  Return whether it did; if not, it wrote nothing, and the generic
    loop writes the list with its own bytes and ``MarshalError``.  Every
    check runs by column, in C-level iteration.
    """
    first = records[0]
    keys = [*first]
    window = records[1 : _TEMPLATES + 2]
    # Exact dicts and, before any key is looked up or compared, exact-str
    # keys: a key of another type could run code of its own.
    if {*map(type, records)} != {dict} or not keys or {
        *map(type, chain(keys, chain.from_iterable(window)))
    } != {str}:
        return False
    # The cheapest way out first: a text column whose values differ in each
    # record of the window has more combinations than templates.
    for key in keys:
        if type(first[key]) is str:
            try:
                column = [*map(itemgetter(key), window)]
            except KeyError:
                return False
            if {*map(type, column)} != {str} or len({*column}) > _TEMPLATES:
                return False
    # The same keys in the same order: as no dict repeats a key, no record
    # can hold more than one turn of the cycle.
    every = [*chain.from_iterable(records)]
    if {*map(type, every)} != {str} or every != keys * len(records):
        return False
    columns = [*zip(*map(dict.values, records))]
    numeric = varying = ()
    for at, column in enumerate(columns):
        kind = type(column[0])
        if {*map(type, column)} != {kind}:
            return False
        if kind is int:
            if min(column) < INT64_MIN or max(column) > INT64_MAX:
                return False
            numeric += ((at, "q"),)
        elif kind is float:
            numeric += ((at, "d"),)
        elif kind is str or kind is bool:
            varying += (column[1:],)
        elif column[0] is not None:
            return False
    # The records after the first, each by its combination of text and bool
    # values, which one template per combination writes (in the order they
    # first appear, so what a list costs does not hang on string hashes).
    rows = [*zip(*varying)] if varying else [()] * (len(records) - 1)
    combinations = dict.fromkeys(rows)
    if len(combinations) > _TEMPLATES:
        return False
    # The generic loop writes the first record at its residue, then one
    # record of each combination at the residue after it, where
    # :func:`_layout` finds the offsets of its numeric values.
    lead = len(buf) & 7
    opening = bytearray(lead)
    write_any(opening, first)
    residue = len(opening) & 7
    templates = {}
    shapes = set()
    for combination in combinations:
        template = bytearray(residue)
        try:
            write_any(template, records[1 + rows.index(combination)])
        except MarshalError:  # the generic loop names the first in write order
            return False
        width = len(template) - residue
        if width & 7:
            return False
        *_, slots = _layout(template, residue, len(template), first)
        templates[combination] = template[residue:]
        shapes.add((width, slots))
    # Templates of one width, a multiple of 8, with the same numeric offsets:
    # joined in record order, each numeric column packed at once and laid in
    # by eight strided slices.
    if len(shapes) > 1:
        return False
    count = len(rows)
    if len(templates) > 1:
        block = bytearray().join(map(templates.__getitem__, rows))
    else:
        block = templates[combination] * count
    for (at, code), slot in zip(numeric, slots):
        packed = struct.pack(f">{count}{code}", *columns[at][1:])
        for octet in range(8):
            block[slot + octet :: width] = packed[octet::8]
    buf += opening[lead:]
    buf += block
    return True


def read_any(data, pos: int, registry: TypeRegistry = global_registry) -> tuple[Any, int]:
    """Decode the tagged value at ``data[pos:]``; return it with the offset
    just past it.  Whatever is wrong with the bytes, the error is a
    :class:`MarshalError`."""
    if type(data) is not bytes:
        data = bytes(data)
    size = len(data)
    # The container being filled: its tag, the object collecting its children
    # (a value type's name instead, until its state is read), how many are
    # still missing, and a dict's key while its value is read.
    kind = items = key = None
    missing = 0
    outer = None  # the containers around it: (the same four words, next link out)
    depth = 0
    # Where the dict being read began, while it is a list's element with no
    # container opened inside it; the residues (a bit each) at which such
    # records began and taught nothing; and the record layouts learned, by residue.
    record_at = layouts = None
    learned = unlearned = 0
    # Whether a record has fit no layout of its residue, and the layouts (a
    # bit each) that have not fitted one yet: -1 while none has.
    missed, unfitted = False, -1
    try:
        while True:
            tag = data[pos]
            pos += 1
            if tag == TAG_FLOAT:
                pos += -pos & 7
                (value,) = _DOUBLE_AT(data, pos)
                pos += 8
            elif tag in LENGTH_PREFIXED:
                pos += -pos & 3
                end = pos + 4 + _ULONG_AT(data, pos)[0]
                if end > size:
                    raise MarshalError(_TRUNCATED)
                value = data[pos + 4 : end]
                pos = end
                if tag == TAG_STR:
                    value = value.decode()
                elif tag == TAG_BIGINT:
                    value = int(value.decode())
                elif tag == TAG_VALUE:
                    if depth >= MAX_DEPTH:
                        raise MarshalError(_TOO_DEEP)
                    depth += 1
                    outer = (kind, items, missing, key, outer)
                    kind, items, missing = tag, value.decode(), 1
                    continue
            elif tag == TAG_LIST or tag == TAG_TUPLE or tag == TAG_DICT:
                begun = pos - 1
                pos += -pos & 3
                (count,) = _ULONG_AT(data, pos)
                pos += 4
                if count:
                    if depth >= MAX_DEPTH:
                        raise MarshalError(_TOO_DEEP)
                    depth += 1
                    outer = (kind, items, missing, key, outer)
                    if tag == TAG_DICT:
                        record_at = begun if kind == TAG_LIST or kind == TAG_TUPLE else None
                        kind, items, missing = tag, {}, count * 2
                    else:
                        record_at = None
                        kind, items, missing = tag, [], count
                    continue
                value = [] if tag == TAG_LIST else () if tag == TAG_TUPLE else {}
            elif tag == TAG_INT:
                pos += -pos & 7
                (value,) = _LONGLONG_AT(data, pos)
                pos += 8
            elif tag == TAG_NONE:
                value = None
            elif tag == TAG_TRUE:
                value = True
            elif tag == TAG_FALSE:
                value = False
            else:
                raise MarshalError(f"unknown CDR any tag: {tag}")
            while kind is not None:
                if kind == TAG_DICT:
                    if missing & 1:
                        items[key] = value
                    else:
                        key = value
                    missing -= 1
                elif kind == TAG_VALUE:
                    value = registry.decode(items, value)
                    kind, items, missing, key, outer = outer
                    depth -= 1
                    continue
                else:
                    items.append(value)
                    missing -= 1
                    if layouts is not None and missing and depth < MAX_DEPTH:
                        # The next sibling a learned layout fits is one record,
                        # or at the layout's first fit the first of a block.
                        while missing:
                            for bit, width, unpack, runs, keys, texts, consts in layouts[pos & 7]:
                                if pos + width <= size:
                                    fields = unpack(data, pos)
                                    if fields[::2] == runs:
                                        break
                            else:
                                # A misfit (a residue with no layout is none) past
                                # _LAYOUTS layouts, or a second one before any fit:
                                # shapes vary more than layouts pay.
                                if layouts[pos & 7]:
                                    if learned == _LAYOUTS or missed and unfitted == -1:
                                        layouts = None
                                    missed = True
                                break
                            if unfitted & bit:
                                # A layout's first fit is its one block try: if its
                                # width keeps each sibling at its residue and the
                                # next fits too, the block is every sibling left,
                                # cut before the first whose runs differ.
                                unfitted ^= bit
                                if (
                                    missing > 1 and not width & 7 and pos + 2 * width <= size
                                    and unpack(data, pos + width)[::2] == runs
                                ):
                                    count = min(missing, (size - pos) // width)
                                    view = memoryview(data)[pos : pos + count * width]
                                    rows = [*unpack.__self__.iter_unpack(view)]
                                    if tuple(chain(*rows))[::2] != runs * count:
                                        count = 2
                                        while rows[count][::2] == runs:
                                            count += 1
                                    try:
                                        items += _records(rows[:count], keys, texts, consts)
                                        pos += count * width
                                        missing -= count
                                        continue
                                    except UnicodeDecodeError:
                                        pass  # one by one, so the first bad text fails first
                            value = dict(zip(keys, fields[1::2]))
                            for name in texts:
                                value[name] = value[name].decode()
                            if consts:
                                value.update(consts)
                            items.append(value)
                            pos += width
                            missing -= 1
                if missing:
                    break
                value = tuple(items) if kind == TAG_TUPLE else items
                kind, items, missing, key, outer = outer
                depth -= 1
                if record_at is not None:
                    # A dict with no container in it closed in a list: if
                    # siblings follow and a later one may start at its
                    # residue (the next one does, or an earlier record
                    # already did), learn its layout; after a misfit, only
                    # once some record has fitted.
                    if missing > 1 and learned < _LAYOUTS and (unfitted != -1 or not missed):
                        residue = 1 << (record_at & 7)
                        if (pos - record_at) & 7 and not unlearned & residue:
                            unlearned |= residue
                        else:
                            learned += 1
                            layout = _layout(data, record_at, pos, value)
                            if layout is not None:
                                if layouts is None:
                                    layouts = [()] * 8
                                layouts[record_at & 7] += ((1 << learned, *layout[:-1]),)
                    record_at = None
            else:
                return value, pos
    except (IndexError, struct.error) as exc:
        raise MarshalError(_TRUNCATED) from exc
    except (ValueError, TypeError) as exc:
        raise MarshalError(f"corrupt CDR any: {exc}") from exc


def cdr_dumps(value: Any, registry: TypeRegistry | None = None) -> bytes:
    """Encode one run-time-typed value as a standalone CDR buffer."""
    buf = bytearray()
    write_any(buf, value, registry or global_registry)
    return bytes(buf)


def cdr_loads(data: bytes, registry: TypeRegistry | None = None) -> Any:
    """Decode a buffer produced by :func:`cdr_dumps`."""
    return read_any(data, 0, registry or global_registry)[0]
