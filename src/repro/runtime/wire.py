"""Compact binary wire codec with a pickle fallback.

The GMW and KVS case studies exchange overwhelmingly small payloads — single
booleans, short lists of share bits, small tuples of integers, one KVS
request or response.  Pickling such values costs 4–20+ bytes each (protocol
header, memo/frame opcodes, STOP), and over 100 for a KVS request, which
dwarfs the information content and dominates the bytes-on-the-wire the
benchmarks report.  This module provides a tag-byte encoding with fast paths
for exactly the payload shapes that dominate that traffic:

===========  =====================================================
tag          encoding
===========  =====================================================
``N``        ``None``
``T`` `F``   ``True`` / ``False`` (one byte total)
``i``        int, zigzag varint (small magnitudes: 2–3 bytes)
``I``        int outside ±2**63: uvarint length + signed big-endian
``f``        float, IEEE-754 big-endian double
``s``        str, uvarint length + UTF-8
``b``        bytes, uvarint length + raw
``t`` ``l``  tuple / list: uvarint count + encoded elements
``d``        dict: uvarint count + encoded key/value pairs
``q`` ``r``  a registered record (KVS ``Request`` / ``Response``): one
             byte for its kind's position, then each field as ``s``/``N``
``P``        anything else: raw :mod:`pickle` bytes
===========  =====================================================

Containers are encoded recursively but only up to a fixed element budget
(:data:`MAX_FAST_ITEMS`; a record charges its kind plus its fields); larger
or exotic payloads fall back to a single pickle of the whole value, so the
Python-level encoder never loses to the C pickler on bulk data.  Exact types
are required (``type(x) is int``, not ``isinstance``) so subclasses such as
enums round-trip through pickle with their class intact.  The module that
defines a record type registers it (:func:`register_record`), so this module
imports nothing above it.

A pickled payload may name only the classes the wire carries: ``set``,
``frozenset``, ``complex``, each record type and its kind enum, a record
subclass from a module already imported, and what a module registers with
:func:`register_pickled`.  Any other name (``os.system``, ``eval``) fails
the decode with :class:`ValueError` before anything runs.

``decode(encode(x)) == x`` for every value pickle accepts whose classes the
wire allows, and the fast-path encodings are strictly smaller than
``pickle.dumps`` for bools and ints — a property test in
``tests/test_property_based.py`` pins both claims down.
"""

from __future__ import annotations

import io
import operator
import pickle
import struct
import sys
from itertools import chain
from typing import Any, Callable, Sequence, Tuple

#: Total number of container elements (recursively) the fast path will encode
#: before handing the whole payload to pickle instead.
MAX_FAST_ITEMS = 128

#: Ints within ±2**63 use the varint fast path; larger ones are length-prefixed.
_VARINT_BOUND = 1 << 63

_FLOAT = struct.Struct("!d")

_TRUNCATED = "malformed wire payload: truncated"
_CONSTANTS = {b"N": None, b"T": True, b"F": False}
_CONTAINER_TAGS = {tuple: 0x74, list: 0x6C, dict: 0x64}
#: Registered records by class (encoders) and by tag byte (decoders).
_RECORD_OF: dict = {}
_RECORD_AT: dict = {}
#: The classes a pickled payload may name, by ``(module, qualified name)``: the
#: builtins that arrive pickled, and the types registered below.
_PICKLED: dict = {("builtins", cls.__name__): cls for cls in (set, frozenset, complex)}


class _Fallback(Exception):
    """Internal signal: this payload is not fast-path encodable."""


def write_uvarint(out: bytearray, value: int) -> None:
    """Append ``value`` as an unsigned varint."""
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)


def read_uvarint(data: bytes, pos: int) -> Tuple[int, int]:
    """Read an unsigned varint at ``pos``; returns ``(value, next_pos)``."""
    result = shift = 0
    while True:
        if pos >= len(data):
            raise ValueError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            # Lengths, counts and instance ids all fit 64 bits; a longer run
            # of continuation bytes is corruption, not a giant length prefix.
            raise ValueError("varint overflow (more than 64 bits)")


# --------------------------------------------------------------------- encoding --


def _encode_items(out: bytearray, items: Any, budget: int) -> int:
    """Append ``items``, one ``type()`` each; returns the element budget left."""
    append = out.append
    for item in items:
        kind = type(item)
        if kind is str:
            raw = item.encode()  # lone surrogates raise: pickle knows how
            size = len(raw)
            append(0x73)
            if size < 0x80:
                append(size)
            else:
                write_uvarint(out, size)
            out += raw
        elif kind is bool:
            append(0x54 if item else 0x46)
        elif kind is int:
            if -0x40 <= item < 0x40:
                append(0x69)
                append(item << 1 if item >= 0 else ~item << 1 | 1)
            elif -_VARINT_BOUND <= item < _VARINT_BOUND:
                append(0x69)
                write_uvarint(out, item << 1 if item >= 0 else ~item << 1 | 1)
            else:
                raw = item.to_bytes(item.bit_length() // 8 + 1, "big", signed=True)
                append(0x49)
                write_uvarint(out, len(raw))
                out += raw
        elif item is None:
            append(0x4E)
        elif kind in _RECORD_OF:
            budget = _RECORD_OF[kind](out, item, budget)
        elif kind in _CONTAINER_TAGS:
            size = len(item)
            budget -= size
            if budget < 0:
                raise _Fallback
            append(_CONTAINER_TAGS[kind])
            if size < 0x80:
                append(size)
            else:
                write_uvarint(out, size)
            budget = _encode_items(
                out, chain.from_iterable(item.items()) if kind is dict else item, budget
            )
        elif kind is float:
            append(0x66)
            out += _FLOAT.pack(item)
        elif kind is bytes:
            append(0x62)
            write_uvarint(out, len(item))
            out += item
        else:
            raise _Fallback
    return budget


def encode(payload: Any) -> bytes:
    """Encode ``payload``, preferring the compact fast path over pickle.

    Raises whatever :func:`pickle.dumps` raises for unserializable payloads.
    """
    if type(payload) is bool:
        return b"T" if payload else b"F"
    if payload is None:
        return b"N"
    out = bytearray()
    try:
        _encode_items(out, (payload,), MAX_FAST_ITEMS)
    except (_Fallback, UnicodeEncodeError):
        # No fast form: an exotic type or record kind, or a lone surrogate.
        return b"P" + pickle.dumps(payload)
    return bytes(out)


# --------------------------------------------------------------------- decoding --


def _span(data: bytes, pos: int) -> Tuple[int, int]:
    """The ``(start, end)`` of the length-prefixed body at ``pos``."""
    size = data[pos]
    if size < 0x80:
        pos += 1
    else:
        size, pos = read_uvarint(data, pos)
    if pos + size > len(data):
        raise ValueError(_TRUNCATED)
    return pos, pos + size


def _decode_items(data: bytes, pos: int, count: int, append: Callable) -> int:
    """Decode ``count`` values from ``pos`` into ``append``; returns the end.
    Reading past the end raises ``IndexError`` or ``struct.error``."""
    if count > len(data) - pos:  # every value takes at least one byte
        raise ValueError(_TRUNCATED)
    for _ in range(count):
        tag = data[pos]
        pos += 1
        if tag == 0x73:
            size = data[pos]
            if size < 0x80:
                start = pos + 1
                pos = start + size
                if pos > len(data):
                    raise ValueError(_TRUNCATED)
            else:
                start, pos = _span(data, pos)
            append(data[start:pos].decode())
        elif tag == 0x54 or tag == 0x46:
            append(tag == 0x54)
        elif tag == 0x69:
            raw = data[pos]
            if raw < 0x80:
                pos += 1
            else:
                raw, pos = read_uvarint(data, pos)
            append(~(raw >> 1) if raw & 1 else raw >> 1)
        elif tag == 0x4E:
            append(None)
        elif tag in _RECORD_AT:
            item, pos = _RECORD_AT[tag](data, pos)
            append(item)
        elif tag == 0x74 or tag == 0x6C or tag == 0x64:
            size = data[pos]
            if size < 0x80:
                pos += 1
            else:
                size, pos = read_uvarint(data, pos)
            items: list = []
            pos = _decode_items(data, pos, 2 * size if tag == 0x64 else size, items.append)
            if tag == 0x64:
                append(dict(zip(items[::2], items[1::2])))
            else:
                append(tuple(items) if tag == 0x74 else items)
        elif tag == 0x66:
            append(_FLOAT.unpack_from(data, pos)[0])
            pos += _FLOAT.size
        elif tag == 0x62 or tag == 0x49:
            start, pos = _span(data, pos)
            raw = data[start:pos]
            append(raw if tag == 0x62 else int.from_bytes(raw, "big", signed=True))
        else:
            raise ValueError(f"unknown wire tag {tag!r}")
    return pos


def decode(data: bytes) -> Any:
    """Inverse of :func:`encode`; raises :class:`ValueError` on a malformed payload."""
    if type(data) is not bytes:
        data = bytes(data)
    if len(data) == 1 and data in _CONSTANTS:
        return _CONSTANTS[data]
    if data[:1] == b"P":
        try:
            return _Unpickler(io.BytesIO(data[1:])).load()
        except Exception as exc:  # arbitrary bytes can make pickle raise anything
            raise ValueError(f"malformed pickled wire payload: {exc!r}") from exc
    try:
        if data[0] in _RECORD_AT:  # the commonest top-level payload: no item loop
            value, pos = _RECORD_AT[data[0]](data, 1)
        else:
            items: list = []
            pos = _decode_items(data, 0, 1, items.append)
            value = items[0]
    except (IndexError, struct.error):
        raise ValueError(_TRUNCATED) from None
    except (TypeError, RecursionError) as exc:
        # An unhashable dict key, or runaway nesting.
        raise ValueError(f"malformed wire payload: {exc}") from exc
    if pos != len(data):
        raise ValueError(f"trailing bytes after wire payload ({len(data) - pos})")
    return value


class _Unpickler(pickle.Unpickler):
    """Unpickles a ``P`` payload, refusing every class the wire does not carry
    before anything runs: a pickle naming ``os.system`` raises instead."""

    def find_class(self, module: str, name: str) -> Any:
        cls = _PICKLED.get((module, name))
        if cls is None:
            # A record subclass (its extra fields take the fallback), from a
            # module already imported: nothing is imported to check it.
            cls = getattr(sys.modules.get(module), name, None)
            if not (isinstance(cls, type) and issubclass(cls, tuple(_RECORD_OF))):
                raise pickle.UnpicklingError(f"a wire payload may not name {module}.{name}")
        return cls


def register_pickled(*classes: type) -> None:
    """Let pickled payloads name ``classes``, wire types without a record form."""
    for cls in classes:
        _PICKLED[cls.__module__, cls.__qualname__] = cls


# ---------------------------------------------------------------------- records --


def register_record(cls: type, tag: str, kinds: Sequence[Any], fields: Sequence[str]) -> None:
    """Give exact instances of ``cls`` the record form ``tag``.

    Its ``kind`` attribute is one of ``kinds`` (sent as its position, one
    byte) and each of ``fields`` is a ``str`` or ``None`` (``s…`` / ``N``);
    anything else takes the pickle fallback.  Decoding fills a new instance's
    ``__dict__`` as pickle does, without ``__init__``.  A record charges
    ``1 + len(fields)`` to the element budget, as a tuple of them would.
    """
    kinds = tuple(kinds)  # found by identity: no Python-level enum __hash__
    register_pickled(cls, type(kinds[0]))  # a record that takes the fallback
    read = operator.attrgetter("kind", *fields)
    width, code = 1 + len(fields), ord(tag)

    def encode_record(out: bytearray, value: Any, budget: int) -> int:
        # One call per record; encode() drops ``out`` on a fallback part-way.
        budget -= width
        values = read(value)
        if budget < 0 or values[0] not in kinds:
            raise _Fallback
        out.append(code)
        out.append(kinds.index(values[0]))
        for field in values[1:]:
            if field is None:
                out.append(0x4E)
            elif type(field) is str:
                raw = field.encode()  # lone surrogates raise: pickle knows how
                out.append(0x73)
                if len(raw) < 0x80:
                    out.append(len(raw))
                else:
                    write_uvarint(out, len(raw))
                out += raw
            else:
                raise _Fallback
        return budget

    def decode_record(data: bytes, pos: int) -> Tuple[Any, int]:
        if data[pos] >= len(kinds):
            raise ValueError(f"record {tag!r}: kind {data[pos]} out of range")
        record = object.__new__(cls)  # built as pickle builds it: no __init__
        state = record.__dict__
        state["kind"] = kinds[data[pos]]
        for name in fields:
            pos += 1
            if data[pos] == 0x4E:
                state[name] = None
                continue
            if data[pos] != 0x73:
                raise ValueError(f"record {tag!r}: field tag {data[pos]} is not s or N")
            start, end = pos + 2, pos + 2 + data[pos + 1]
            if data[pos + 1] >= 0x80 or end > len(data):
                start, end = _span(data, pos + 1)
            state[name] = data[start:end].decode()
            pos = end - 1
        return record, pos + 1

    _RECORD_OF[cls] = encode_record
    _RECORD_AT[code] = decode_record
