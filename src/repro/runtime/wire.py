"""Compact binary wire codec with a pickle fallback.

The GMW and KVS case studies exchange overwhelmingly small payloads — single
booleans, short lists of share bits, small tuples of integers.  Pickling such
values costs 4–20+ bytes each (protocol header, memo/frame opcodes, STOP),
which dwarfs the information content and dominates the bytes-on-the-wire the
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
``P``        anything else: raw :mod:`pickle` bytes
===========  =====================================================

Containers are encoded recursively but only up to a fixed element budget
(:data:`MAX_FAST_ITEMS`); larger or exotic payloads fall back to a single
pickle of the whole value, so the Python-level encoder never loses to the C
pickler on bulk data.  Exact types are required (``type(x) is int``, not
``isinstance``) so subclasses such as enums round-trip through pickle with
their class intact.

``decode(encode(x)) == x`` for every value pickle accepts, and the fast-path
encodings are strictly smaller than ``pickle.dumps`` for bools and ints — a
property test in ``tests/test_property_based.py`` pins both claims down.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, Tuple

#: Total number of container elements (recursively) the fast path will encode
#: before handing the whole payload to pickle instead.
MAX_FAST_ITEMS = 128

#: Ints within ±2**63 use the varint fast path; larger ones are length-prefixed.
_VARINT_BOUND = 1 << 63

_FLOAT = struct.Struct("!d")


class _Fallback(Exception):
    """Internal signal: this payload is not fast-path encodable."""


# ---------------------------------------------------------------------- varints --


def _write_uvarint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_uvarint(data: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
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
            # No legitimate value needs more than ten varint bytes: lengths,
            # counts, and instance ids all fit 64 bits.  Without this bound a
            # corrupt (or adversarial) run of 0x80 continuation bytes decodes
            # into an arbitrarily large integer that downstream framing would
            # use as a length prefix — a giant allocation or a misframe
            # instead of a typed error.
            raise ValueError("varint overflow (more than 64 bits)")


def write_uvarint(out: bytearray, value: int) -> None:
    """Append ``value`` as an unsigned varint (public framing helper)."""
    _write_uvarint(out, value)


def read_uvarint(data: bytes, pos: int) -> Tuple[int, int]:
    """Read an unsigned varint at ``pos``; returns ``(value, next_pos)``."""
    return _read_uvarint(data, pos)


def _zigzag(value: int) -> int:
    return (value << 1) if value >= 0 else ((-value) << 1) - 1


def _unzigzag(value: int) -> int:
    return -((value + 1) >> 1) if value & 1 else value >> 1


# --------------------------------------------------------------------- encoding --


def _encode_into(out: bytearray, payload: Any, budget: list) -> None:
    kind = type(payload)
    if payload is None:
        out.append(ord("N"))
    elif kind is bool:
        out.append(ord("T") if payload else ord("F"))
    elif kind is int:
        if -_VARINT_BOUND <= payload < _VARINT_BOUND:
            out.append(ord("i"))
            _write_uvarint(out, _zigzag(payload))
        else:
            raw = payload.to_bytes(payload.bit_length() // 8 + 1, "big", signed=True)
            out.append(ord("I"))
            _write_uvarint(out, len(raw))
            out += raw
    elif kind is float:
        out.append(ord("f"))
        out += _FLOAT.pack(payload)
    elif kind is str:
        try:
            raw = payload.encode("utf-8")
        except UnicodeEncodeError:  # lone surrogates: pickle knows how
            raise _Fallback
        out.append(ord("s"))
        _write_uvarint(out, len(raw))
        out += raw
    elif kind is bytes:
        out.append(ord("b"))
        _write_uvarint(out, len(payload))
        out += payload
    elif kind is tuple or kind is list:
        budget[0] -= len(payload)
        if budget[0] < 0:
            raise _Fallback
        out.append(ord("t") if kind is tuple else ord("l"))
        _write_uvarint(out, len(payload))
        for element in payload:
            _encode_into(out, element, budget)
    elif kind is dict:
        budget[0] -= len(payload)
        if budget[0] < 0:
            raise _Fallback
        out.append(ord("d"))
        _write_uvarint(out, len(payload))
        for key, value in payload.items():
            _encode_into(out, key, budget)
            _encode_into(out, value, budget)
    else:
        raise _Fallback


def encode(payload: Any) -> bytes:
    """Encode ``payload``, preferring the compact fast path over pickle.

    Raises whatever :func:`pickle.dumps` raises for unserializable payloads.
    """
    out = bytearray()
    try:
        _encode_into(out, payload, [MAX_FAST_ITEMS])
    except _Fallback:
        return b"P" + pickle.dumps(payload)
    return bytes(out)


# --------------------------------------------------------------------- decoding --


def _decode_from(data: bytes, pos: int) -> Tuple[Any, int]:
    if pos >= len(data):
        raise ValueError("truncated wire payload")
    tag = data[pos]
    pos += 1
    if tag == ord("N"):
        return None, pos
    if tag == ord("T"):
        return True, pos
    if tag == ord("F"):
        return False, pos
    if tag == ord("i"):
        raw, pos = _read_uvarint(data, pos)
        return _unzigzag(raw), pos
    if tag == ord("I"):
        length, pos = _read_uvarint(data, pos)
        end = pos + length
        return int.from_bytes(data[pos:end], "big", signed=True), end
    if tag == ord("f"):
        end = pos + _FLOAT.size
        return _FLOAT.unpack_from(data, pos)[0], end
    if tag == ord("s"):
        length, pos = _read_uvarint(data, pos)
        end = pos + length
        return data[pos:end].decode("utf-8"), end
    if tag == ord("b"):
        length, pos = _read_uvarint(data, pos)
        end = pos + length
        return data[pos:end], end
    if tag in (ord("t"), ord("l")):
        count, pos = _read_uvarint(data, pos)
        elements = []
        for _ in range(count):
            element, pos = _decode_from(data, pos)
            elements.append(element)
        return (tuple(elements) if tag == ord("t") else elements), pos
    if tag == ord("d"):
        count, pos = _read_uvarint(data, pos)
        result = {}
        for _ in range(count):
            key, pos = _decode_from(data, pos)
            value, pos = _decode_from(data, pos)
            result[key] = value
        return result, pos
    raise ValueError(f"unknown wire tag {tag!r}")


def decode(data: bytes) -> Any:
    """Inverse of :func:`encode`; raises :class:`ValueError` on a malformed payload."""
    if not data:
        raise ValueError("empty wire payload")
    if data[0] == ord("P"):
        return pickle.loads(data[1:])
    try:
        value, pos = _decode_from(bytes(data), 0)
    except (struct.error, TypeError, RecursionError) as exc:
        # A truncated float, an unhashable dict key, or runaway nesting.
        raise ValueError(f"malformed wire payload: {exc}") from exc
    if pos != len(data):
        raise ValueError(f"trailing bytes after wire payload ({len(data) - pos})")
    return value
