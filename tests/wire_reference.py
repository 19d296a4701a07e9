"""The wire encoder as it was before records and the rewritten fast path.

Frozen on purpose: ``tests/test_wire.py`` checks that ``repro.runtime.wire``
still emits exactly these bytes for every payload it does not record-encode.
Do not edit it to follow the codec; a byte that moves on purpose is a new
record form, and the oracle test says which payloads take it.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any

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


def _zigzag(value: int) -> int:
    return (value << 1) if value >= 0 else ((-value) << 1) - 1


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
