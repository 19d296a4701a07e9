"""The gateway's RESP codec as it was before a bulk run was parsed in one loop.

Frozen on purpose: ``tests/test_gateway_protocol.py`` checks that
``repro.gateway.protocol`` still writes exactly these bytes and parses every
input to the same value, position or error.  Do not edit it to follow the
codec.  The reply and command types, the limits and the error classes are
the live ones, so results compare with ``==``.

One difference is deliberate: this parser marked a null bulk in-band with the
string ``"\\0__NULL__"``, so a payload of exactly that text read as a null
(a command holding it was refused).  The live parser keeps it as text.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from repro.gateway.protocol import (
    ERR_TOOBIG,
    MAX_ARGS,
    MAX_BULK,
    MAX_INLINE,
    MAX_REPLY_DEPTH,
    ArrayReply,
    BulkReply,
    Command,
    CommandError,
    ErrorReply,
    ProtocolError,
    Reply,
    SimpleReply,
)
from repro.protocols.kvs import Request

# ------------------------------------------------------------------ commands --


def _sub_requests(verb: str, args: Sequence[str]) -> Tuple[Request, ...]:
    writes_only = verb == "MULTI"
    if writes_only:
        if args[-1].upper() != "EXEC":
            raise CommandError("MULTI must end with EXEC")
        args = args[:-1]
    requests: List[Request] = []
    index = 0
    while index < len(args):
        sub = args[index].upper()
        if sub == "PUT":
            if index + 2 >= len(args):
                raise CommandError(f"{verb} PUT needs a key and a value")
            requests.append(Request.put(args[index + 1], args[index + 2]))
            index += 3
        elif writes_only and sub in ("GET", "SCAN"):
            raise CommandError(f"MULTI is write-only; {sub} is not allowed")
        elif sub in ("GET", "DEL"):
            if index + 1 >= len(args):
                raise CommandError(f"{verb} {sub} needs a key")
            make = Request.get if sub == "GET" else Request.delete
            requests.append(make(args[index + 1]))
            index += 2
        else:
            raise CommandError(f"unknown {verb} sub-command: {args[index]!r}")
    return tuple(requests)


_VERBS: Dict[str, Tuple[int, Optional[int], bool]] = {
    "PING": (0, 1, False),
    "GET": (1, 1, True),
    "PUT": (2, 2, True),
    "DEL": (1, 1, True),
    "SCAN": (0, 1, True),
    "BATCH": (2, None, True),
    "MULTI": (3, None, True),
    "HEALTH": (0, 0, False),
    "STATS": (0, 0, False),
}


def command_from_args(args: Sequence[str]) -> Command:
    if not args:
        raise CommandError("empty command")
    verb = args[0].upper()
    if verb not in _VERBS:
        raise CommandError(f"unknown command: {args[0]!r}")
    low, high, _ = _VERBS[verb]
    rest = tuple(args[1:])
    if len(rest) < low or (high is not None and len(rest) > high):
        expected = f"{low}" if high == low else f"{low}..{'*' if high is None else high}"
        raise CommandError(
            f"{verb} takes {expected} argument(s), got {len(rest)}"
        )
    if verb in ("BATCH", "MULTI"):
        return Command(verb, rest, _sub_requests(verb, rest))
    return Command(verb, rest)


# ------------------------------------------------------------------ encoding --


def _bulk(payload: bytes) -> bytes:
    return b"$%d\r\n%s\r\n" % (len(payload), payload)


def encode_command(args: Sequence[str]) -> bytes:
    if not args:
        raise ProtocolError("cannot encode an empty command")
    parts = [b"*%d\r\n" % len(args)]
    parts.extend(_bulk(arg.encode("utf-8")) for arg in args)
    return b"".join(parts)


def encode_reply(reply: Reply) -> bytes:
    if isinstance(reply, SimpleReply):
        return b"+%s\r\n" % reply.text.encode("utf-8")
    if isinstance(reply, BulkReply):
        if reply.value is None:
            return b"$-1\r\n"
        return _bulk(reply.value.encode("utf-8"))
    if isinstance(reply, ArrayReply):
        parts = [b"*%d\r\n" % len(reply.items)]
        parts.extend(encode_reply(item) for item in reply.items)
        return b"".join(parts)
    if isinstance(reply, ErrorReply):
        payload = json.dumps(
            {"code": reply.code, "message": reply.message, "detail": dict(reply.detail)},
            separators=(",", ":"),
        )
        return b"-%s\r\n" % payload.encode("utf-8")
    raise ProtocolError(f"cannot encode reply: {reply!r}")


# ------------------------------------------------------------------- parsing --


def _find_line(buffer: bytes, start: int, limit: int) -> Tuple[Optional[bytes], int]:
    end = buffer.find(b"\n", start)
    if end == -1:
        if len(buffer) - start > limit:
            raise ProtocolError(
                f"line exceeds {limit} bytes without a terminator",
                code=ERR_TOOBIG,
            )
        return None, start
    if end - start > limit:
        raise ProtocolError(f"line exceeds {limit} bytes", code=ERR_TOOBIG)
    line = buffer[start:end]
    if line.endswith(b"\r"):
        line = line[:-1]
    return line, end + 1


def _parse_int(token: bytes, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ProtocolError(f"bad {what}: {token!r}") from None


_NULL_SENTINEL = "\0__NULL__"


def _parse_bulk(buffer: bytes, start: int) -> Tuple[Optional[str], int]:
    header, pos = _find_line(buffer, start, MAX_INLINE)
    if header is None:
        return None, start
    if not header.startswith(b"$"):
        raise ProtocolError(f"expected bulk header, got {header!r}")
    length = _parse_int(header[1:], "bulk length")
    if length == -1:
        return _NULL_SENTINEL, pos
    if length < 0 or length > MAX_BULK:
        raise ProtocolError(f"bulk length {length} out of range", code=ERR_TOOBIG)
    if len(buffer) - pos < length + 1:  # payload + at least the LF
        return None, start
    payload = buffer[pos : pos + length]
    tail = buffer[pos + length : pos + length + 2]
    if tail.startswith(b"\r\n"):
        consumed = pos + length + 2
    elif tail.startswith(b"\n"):
        consumed = pos + length + 1
    elif tail == b"\r":  # terminator only half-arrived: wait for the LF
        return None, start
    else:
        raise ProtocolError("bulk payload not followed by CRLF")
    try:
        return payload.decode("utf-8"), consumed
    except UnicodeDecodeError:
        raise ProtocolError("bulk payload is not valid UTF-8") from None


def parse_command(buffer: bytes, start: int = 0) -> Tuple[Optional[List[str]], int]:
    while True:
        if start >= len(buffer):
            return None, start
        if buffer[start : start + 1] != b"*":
            line, pos = _find_line(buffer, start, MAX_INLINE)
            if line is None:
                return None, start
            try:
                text = line.decode("utf-8")
            except UnicodeDecodeError:
                raise ProtocolError("inline command is not valid UTF-8") from None
            args = text.split()
            if not args:  # blank line: tolerate and keep scanning
                start = pos
                continue
            return args, pos
        header, pos = _find_line(buffer, start, MAX_INLINE)
        if header is None:
            return None, start
        count = _parse_int(header[1:], "argument count")
        if count <= 0 or count > MAX_ARGS:
            raise ProtocolError(f"argument count {count} out of range", code=ERR_TOOBIG)
        args = []
        for _ in range(count):
            arg, pos = _parse_bulk(buffer, pos)
            if arg is None:
                return None, start
            if arg == _NULL_SENTINEL:
                raise ProtocolError("null bulk not allowed in commands")
            args.append(arg)
        return args, pos


def parse_reply(buffer: bytes, start: int = 0) -> Tuple[Optional[Reply], int]:
    return _parse_reply(buffer, start, MAX_REPLY_DEPTH)


def _parse_reply(buffer: bytes, start: int, depth: int) -> Tuple[Optional[Reply], int]:
    if start >= len(buffer):
        return None, start
    kind = buffer[start : start + 1]
    if kind == b"$":
        value, pos = _parse_bulk(buffer, start)
        if value is None:
            return None, start
        if value == _NULL_SENTINEL:
            return BulkReply(None), pos
        return BulkReply(value), pos
    line, pos = _find_line(buffer, start, MAX_INLINE)
    if line is None:
        return None, start
    if kind == b"+":
        try:
            return SimpleReply(line[1:].decode("utf-8")), pos
        except UnicodeDecodeError:
            raise ProtocolError(f"simple reply is not UTF-8: {line!r}") from None
    if kind == b"-":
        try:
            payload = json.loads(line[1:].decode("utf-8"))
            return (
                ErrorReply(
                    code=str(payload["code"]),
                    message=str(payload["message"]),
                    detail=dict(payload.get("detail", {})),
                ),
                pos,
            )
        except (ValueError, KeyError, TypeError, RecursionError):  # deep JSON recurses
            raise ProtocolError(f"malformed error payload: {line!r}") from None
    if kind == b"*":
        count = _parse_int(line[1:], "array length")
        if count < 0 or count > MAX_ARGS:
            raise ProtocolError(f"array length {count} out of range")
        if depth == 0:
            raise ProtocolError(f"arrays nest deeper than {MAX_REPLY_DEPTH}")
        items: List[Reply] = []
        for _ in range(count):
            item, pos = _parse_reply(buffer, pos, depth - 1)
            if item is None:
                return None, start
            items.append(item)
        return ArrayReply(tuple(items)), pos
    raise ProtocolError(f"unknown reply type byte: {kind!r}")
