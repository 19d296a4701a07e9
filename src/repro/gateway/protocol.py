"""The gateway's RESP-like wire protocol: framing, commands, replies, errors.

The gateway speaks a deliberately small, Redis-flavoured text protocol over
TCP.  Everything on the wire is a *frame* terminated by CRLF (a bare LF is
tolerated on input, never emitted):

**Requests** arrive in either of two encodings:

* *array form* (what :class:`~repro.gateway.client.GatewayClient` always
  sends) — an argument-count header followed by one length-prefixed bulk
  string per argument::

      *3\r\n$3\r\nPUT\r\n$4\r\nuser\r\n$3\r\nada\r\n

* *inline form* (for humans with ``nc``) — one whitespace-separated line::

      PUT user ada\r\n

**Replies** are typed by their first byte:

===========  =======================================  =====================
first byte   frame                                    meaning
===========  =======================================  =====================
``+``        ``+OK\r\n``                              simple string
``$``        ``$3\r\nada\r\n`` / ``$-1\r\n``          bulk string / null
``*``        ``*2\r\n`` + two reply frames            array (nested)
``-``        ``-{"code": ..., "message": ...}\r\n``   structured error
===========  =======================================  =====================

Errors are *machine readable*: the payload after ``-`` is a single-line JSON
object ``{"code": ..., "message": ..., "detail": {...}}`` whose ``code`` is
one of the stable ``ERR_*`` constants below and whose ``detail`` always
carries a boolean ``retryable`` telling the client whether backing off and
resending the same command can succeed.  :func:`reply_for_exception` maps the
cluster's typed failures (:class:`~repro.core.errors.ChoreoTimeout`,
:class:`~repro.cluster.ClusterClosed`,
:class:`~repro.cluster.ClusterRebalancing`, ...) onto those codes so a
network client sees the same structured failure taxonomy an in-process
:class:`~repro.cluster.ClusterClient` caller does.

Parsing is **incremental**: :func:`parse_command` and :func:`parse_reply`
take ``(buffer, start)`` and return ``(parsed, new_start)`` — or ``None``
and where to resume (``start``, or past the blank inline lines a command
skipped) when the buffer does not yet hold a complete frame — so the socket
loops can append received bytes and re-try without ever blocking mid-frame.
Malformed input raises :class:`ProtocolError`, which means
"this connection's stream is unparseable, hang up" (bad framing, oversize
frames); its subclass :exc:`CommandError` means "this command was wrong,
answer ``BADREQUEST`` and keep reading" (bad arity, unknown verb).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.errors import ChoreographyRuntimeError, ChoreoTimeout
from ..cluster.engine import ClusterClosed, ClusterRebalancing
from ..cluster.txn import TxnAborted, TxnConflict
from ..faults import CrashFault
from ..protocols.kvs import Request, RequestKind, Response, ResponseKind, StaleEpoch

CRLF = b"\r\n"
_CR = b"\r"

# Frame limits.  A stream that exceeds them is hostile or corrupt; the
# parser raises a ProtocolError and the server hangs up.
MAX_BULK = 1 << 20  #: largest single argument / bulk payload, in bytes
MAX_ARGS = 1024  #: most arguments in one array-form command
MAX_REPLY_DEPTH = 8  #: deepest array-in-array reply (the server nests 2)
MAX_INLINE = 1 << 16  #: longest inline-form line, in bytes

# --------------------------------------------------------------- error codes --

ERR_BADREQUEST = "BADREQUEST"  #: malformed command (unknown verb, bad arity)
ERR_TOOBIG = "TOOBIG"  #: a frame limit was exceeded (connection is closed)
ERR_BUSY = "BUSY"  #: admission control shed the command; back off and retry
ERR_MAXCONN = "MAXCONN"  #: connection limit reached; the gateway hangs up
ERR_DRAINING = "DRAINING"  #: gateway is shutting down; retry elsewhere/later
ERR_TIMEOUT = "TIMEOUT"  #: the shard run timed out (ChoreoTimeout root cause)
ERR_UNAVAILABLE = "UNAVAILABLE"  #: the cluster is closed
ERR_REBALANCING = "REBALANCING"  #: control-plane op owns the cluster; retry
ERR_FAILOVER = "FAILOVER"  #: a replica crashed / epoch moved; the shard is failing over
ERR_FAILED = "FAILED"  #: the shard choreography failed (replica loss, no successor)
ERR_ABORTED = "ABORTED"  #: a MULTI..EXEC transaction aborted; nothing was applied
ERR_INTERNAL = "INTERNAL"  #: unexpected gateway-side exception

#: Codes for which resending the same command later can succeed.  ``ABORTED``
#: is retryable in the 2PC sense: the transaction applied *nothing*, so
#: re-submitting the same write set as a fresh transaction is always safe
#: (though a client holding ``expects``-style guards should re-read first).
RETRYABLE_CODES = frozenset(
    {
        ERR_BUSY,
        ERR_MAXCONN,
        ERR_DRAINING,
        ERR_TIMEOUT,
        ERR_REBALANCING,
        ERR_FAILOVER,
        ERR_ABORTED,
    }
)


class ProtocolError(Exception):
    """The byte stream violated the wire protocol.

    The *stream* can no longer be parsed (framing damage, oversize frame),
    so the connection must close; :exc:`CommandError` is the subclass for a
    bad command on an intact stream.

    Args:
        message: What was malformed.
        code: The ``ERR_*`` code the server answers with before hanging up.
    """

    def __init__(self, message: str, *, code: str = ERR_BADREQUEST):
        super().__init__(message)
        self.code = code


class CommandError(ProtocolError):
    """A well-framed command that cannot be executed.

    Carries the ``ERR_*`` code the server should answer with; the connection
    stays open.
    """


# ------------------------------------------------------------------ commands --

@dataclass(frozen=True)
class Command:
    """A parsed gateway command: a verb plus its (already validated) args.

    ``requests`` is the KVS :class:`Request` list a ``BATCH`` or ``MULTI``
    carries, built once by :func:`command_from_args`.
    """

    verb: str
    args: Tuple[str, ...] = ()
    requests: Tuple[Request, ...] = ()

    @property
    def is_data_plane(self) -> bool:
        """Whether this command consumes cluster capacity (vs. control)."""
        return _VERBS[self.verb][2]



def _sub_requests(verb: str, args: Sequence[str]) -> Tuple[Request, ...]:
    """The KVS :class:`Request` list a ``BATCH`` or ``MULTI`` command encodes.

    Both are a flat sequence of sub-commands; ``MULTI`` takes the
    write-only subset, closed by a literal ``EXEC``::

        BATCH (PUT key value | GET key | DEL key)+
        MULTI (PUT key value | DEL key)+ EXEC

    A ``MULTI`` arrives as one frame (there is no open transaction state
    on the connection); the gateway maps it onto one cross-shard two-phase
    commit (:meth:`~repro.cluster.ClusterEngine.submit_txn`) — every write
    applies atomically, or the client gets a retryable ``ABORTED`` error
    frame and nothing was applied.  ``_VERBS`` has already made the body
    non-empty, and every sub-command either adds a request or raises.

    Raises:
        CommandError: A malformed tail; for ``MULTI`` also a read
            sub-command or a missing ``EXEC`` terminator.
    """
    writes_only = verb == "MULTI"
    if writes_only:
        if args[-1].upper() != "EXEC":
            raise CommandError("MULTI must end with EXEC")
        args = args[:-1]
    requests: List[Request] = []
    index, size = 0, len(args)
    while index < size:
        sub = args[index]
        if sub not in _SUB_KINDS:
            sub = sub.upper()
        if sub == "PUT":
            if index + 2 >= size:
                raise CommandError(f"{verb} PUT needs a key and a value")
            key, value = args[index + 1], args[index + 2]
            index += 3
        elif writes_only and sub in ("GET", "SCAN"):
            raise CommandError(f"MULTI is write-only; {sub} is not allowed")
        elif sub in ("GET", "DEL"):
            if index + 1 >= size:
                raise CommandError(f"{verb} {sub} needs a key")
            key, value = args[index + 1], None
            index += 2
        else:
            raise CommandError(f"unknown {verb} sub-command: {args[index]!r}")
        # Built as the wire decoder builds it, without the frozen __init__.
        request = object.__new__(Request)
        state = request.__dict__
        state["kind"], state["key"], state["value"] = _SUB_KINDS[sub], key, value
        requests.append(request)
    return tuple(requests)


#: The sub-command verb of each request kind a ``BATCH`` carries, and back.
_SUB_VERBS = {RequestKind.PUT: "PUT", RequestKind.GET: "GET", RequestKind.DELETE: "DEL"}
_SUB_KINDS = {sub: kind for kind, sub in _SUB_VERBS.items()}


def encode_sub_requests(verb: str, requests: Sequence[Request]) -> List[str]:
    """The ``(PUT k v | GET k | DEL k)+`` tail of a ``BATCH`` or ``MULTI``.

    The inverse of :func:`_sub_requests`: the client sends ``verb``, this
    tail and, for ``MULTI``, a closing ``EXEC``.

    Raises:
        ValueError: A request kind ``verb`` cannot carry (``STOP``, or a
            ``GET`` in the write-only ``MULTI``).
    """
    args: List[str] = []
    for request in requests:
        sub = _SUB_VERBS.get(request.kind)
        if sub is None or (sub == "GET" and verb == "MULTI"):
            raise ValueError(f"cannot send {request.kind!r} through {verb}")
        args += (sub, request.key)
        if sub == "PUT":
            args.append(request.value or "")
    return args


#: verb -> (min_args, max_args, data_plane); max None = unbounded.  Data-plane
#: verbs are subject to admission control; control-plane verbs are always
#: admitted (health checks must work under load).
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
    """Validate a decoded argument vector into a :class:`Command`.

    Raises:
        CommandError: Empty vector, unknown verb, or wrong arity (answer
            ``BADREQUEST``, keep the connection).
    """
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


# ------------------------------------------------------------------- replies --


@dataclass(frozen=True)
class SimpleReply:
    """``+text`` — a short status string (``+OK``, ``+PONG``)."""

    text: str


@dataclass(frozen=True)
class BulkReply:
    """``$len`` — one value, or the null bulk (``$-1``) for an absent one."""

    value: Optional[str]


@dataclass(frozen=True)
class ArrayReply:
    """``*n`` — a sequence of nested replies."""

    items: Tuple["Reply", ...]


@dataclass(frozen=True)
class ErrorReply:
    """``-{json}`` — a structured error.

    ``detail`` always includes ``retryable`` (bool); see
    :data:`RETRYABLE_CODES`.
    """

    code: str
    message: str
    detail: Mapping[str, object] = field(default_factory=dict)

    @property
    def retryable(self) -> bool:
        return bool(self.detail.get("retryable", False))


Reply = Union[SimpleReply, BulkReply, ArrayReply, ErrorReply]

OK = SimpleReply("OK")
PONG = SimpleReply("PONG")


def error_reply(code: str, message: str, **detail: object) -> ErrorReply:
    """Build an :class:`ErrorReply`, stamping ``retryable`` into the detail."""
    detail.setdefault("retryable", code in RETRYABLE_CODES)
    return ErrorReply(code=code, message=message, detail=detail)


def reply_for_exception(exc: BaseException) -> ErrorReply:
    """Map a cluster/gateway exception onto the stable error-code schema.

    The taxonomy the gateway promises its clients:

    * :class:`~repro.cluster.ClusterClosed` → ``UNAVAILABLE``
    * :class:`~repro.cluster.ClusterRebalancing` → ``REBALANCING``
    * :class:`~repro.core.errors.ChoreoTimeout` (bare or as the root cause
      of a :class:`~repro.core.errors.ChoreographyRuntimeError`) →
      ``TIMEOUT`` with ``waiter``/``peer``/``seconds`` in the detail
    * a :class:`ChoreographyRuntimeError` rooted in a
      :class:`~repro.protocols.kvs.StaleEpoch` fence or a replica
      :class:`~repro.faults.CrashFault` → retryable ``FAILOVER`` (the shard
      is promoting a new head; resending after backoff lands on it)
    * any other :class:`ChoreographyRuntimeError` → ``FAILED`` with the
      blamed ``location`` and original error type
    * :class:`~repro.cluster.TxnConflict` / :class:`~repro.cluster.TxnAborted`
      → retryable ``ABORTED`` with the transaction id (and the conflicting
      ``keys``, for a conflict) in the detail; nothing was applied, so a
      fresh attempt is safe
    * :class:`CommandError` → its own code (``BADREQUEST`` by default)
    * anything else → ``INTERNAL``
    """
    if isinstance(exc, TxnConflict):
        return error_reply(
            ERR_ABORTED, str(exc), txn_id=exc.txn_id, keys=list(exc.keys)
        )
    if isinstance(exc, TxnAborted):
        return error_reply(ERR_ABORTED, str(exc), txn_id=exc.txn_id)
    if isinstance(exc, ClusterClosed):
        return error_reply(ERR_UNAVAILABLE, str(exc))
    if isinstance(exc, ClusterRebalancing):
        return error_reply(ERR_REBALANCING, str(exc))
    if isinstance(exc, ChoreoTimeout):
        return error_reply(
            ERR_TIMEOUT, str(exc), waiter=exc.waiter, peer=exc.peer, seconds=exc.seconds
        )
    if isinstance(exc, ChoreographyRuntimeError):
        root = exc.original
        failures = getattr(exc, "failures", None) or {exc.location: root}
        for location, failure in failures.items():
            if isinstance(failure, StaleEpoch):
                return error_reply(
                    ERR_FAILOVER,
                    str(failure),
                    location=location,
                    bound_epoch=failure.bound_epoch,
                    current_epoch=failure.current_epoch,
                )
        for location, failure in failures.items():
            if isinstance(failure, CrashFault):
                return error_reply(
                    ERR_FAILOVER,
                    f"replica {location!r} crashed; the shard is failing over",
                    location=location,
                    error=type(failure).__name__,
                )
        if isinstance(root, ChoreoTimeout):
            return error_reply(
                ERR_TIMEOUT,
                str(root),
                location=exc.location,
                waiter=root.waiter,
                peer=root.peer,
                seconds=root.seconds,
            )
        return error_reply(
            ERR_FAILED,
            str(root) or type(root).__name__,
            location=exc.location,
            error=type(root).__name__,
        )
    if isinstance(exc, CommandError):
        return error_reply(exc.code, str(exc))
    return error_reply(ERR_INTERNAL, str(exc) or type(exc).__name__, error=type(exc).__name__)


def reply_for_response(response: Response) -> Reply:
    """Render a KVS :class:`Response` as a wire reply.

    ``Found`` → bulk value; ``NotFound`` → null bulk; anything else (the
    batch sentinel ``Stopped``) → its kind as a simple string.
    """
    if response.kind is ResponseKind.FOUND:
        return BulkReply(response.value)
    if response.kind is ResponseKind.NOT_FOUND:
        return BulkReply(None)
    return SimpleReply(response.kind.value.upper())


_FOUND, _NOT_FOUND = ResponseKind.FOUND, ResponseKind.NOT_FOUND


# ------------------------------------------------------------------ encoding --


def encode_command(args: Sequence[str]) -> bytes:
    """Encode an argument vector in array form (what the client sends)."""
    if not args:
        raise ProtocolError("cannot encode an empty command")
    parts = [b"*%d\r\n" % len(args)]
    for arg in args:
        raw = arg.encode("utf-8")
        parts.append(b"$%d\r\n%s\r\n" % (len(raw), raw))
    return b"".join(parts)


def encode_answers(responses: Sequence[Response]) -> bytes:
    """A ``BATCH`` reply frame, written straight from its :class:`Response` list.

    The same bytes as ``encode_reply(ArrayReply(tuple(map(reply_for_response,
    responses))))``, without a reply object or a Python call per answer.
    """
    parts = [b"*%d\r\n" % len(responses)]
    for response in responses:
        kind, value = response.kind, response.value
        if kind is _FOUND and value is not None:
            raw = value.encode("utf-8")
            parts.append(b"$%d\r\n%s\r\n" % (len(raw), raw))
        elif kind is _FOUND or kind is _NOT_FOUND:
            parts.append(b"$-1\r\n")
        else:
            parts.append(b"+%s\r\n" % kind.value.upper().encode("utf-8"))
    return b"".join(parts)


def encode_reply(reply: Reply) -> bytes:
    """Encode any :class:`Reply` variant as its wire frame."""
    if isinstance(reply, SimpleReply):
        return b"+%s\r\n" % reply.text.encode("utf-8")
    if isinstance(reply, BulkReply):
        if reply.value is None:
            return b"$-1\r\n"
        raw = reply.value.encode("utf-8")
        return b"$%d\r\n%s\r\n" % (len(raw), raw)
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
    """One LF-terminated line from ``buffer[start:]``, sans terminator.

    Returns ``(None, start)`` when no full line has arrived yet; raises
    :class:`ProtocolError` when the unterminated prefix already
    exceeds ``limit``.
    """
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


def _parse_bulks(buffer: bytes, pos: int, count: int, out: list, replies: bool) -> int:
    """Append up to ``count`` ``$``-bulks from ``buffer[pos:]`` to ``out``.

    One loop, no Python call per bulk.  A command's bulks (``replies``
    false) must all be non-null and append their text; a reply's run stops
    at the first item of another type and appends a :class:`BulkReply` per
    bulk, built as the wire decoder builds records (no frozen ``__init__``).
    Returns the position after the run, or ``-1`` when the buffer ends
    inside a bulk.  Raises what walking the bulks one at a time raises.
    """
    find, startswith, size = buffer.find, buffer.startswith, len(buffer)
    append, new = out.append, object.__new__
    for _ in range(count):
        if replies and (pos >= size or buffer[pos] != 0x24):  # not a "$": end of run
            return -1 if pos >= size else pos
        end = find(b"\n", pos)
        if end == -1 or end - pos > MAX_INLINE:
            _find_line(buffer, pos, MAX_INLINE)  # TOOBIG, or the header is arriving
            return -1
        if buffer[pos] != 0x24:
            header = buffer[pos:end].removesuffix(_CR)
            raise ProtocolError(f"expected bulk header, got {header!r}")
        try:
            length = int(buffer[pos + 1 : end])  # int() ignores the "\r"
        except ValueError:
            token = buffer[pos + 1 : end].removesuffix(_CR)
            raise ProtocolError(f"bad bulk length: {token!r}") from None
        pos = end + 1
        tail = pos + length
        if 0 <= length <= MAX_BULK and startswith(CRLF, tail):
            after = tail + 2
        elif length == -1:
            if not replies:
                raise ProtocolError("null bulk not allowed in commands")
            after = None
        elif length < 0 or length > MAX_BULK:
            raise ProtocolError(f"bulk length {length} out of range", code=ERR_TOOBIG)
        elif tail >= size or (tail + 1 == size and buffer[tail] == 0x0D):
            return -1  # the payload, or its terminator, is still arriving
        elif buffer[tail] == 0x0A:
            after = tail + 1
        else:
            raise ProtocolError("bulk payload not followed by CRLF")
        if after is None:
            text = None
        else:
            try:
                text = buffer[pos:tail].decode("utf-8")
            except UnicodeDecodeError:
                raise ProtocolError("bulk payload is not valid UTF-8") from None
            pos = after
        if replies:
            reply = new(BulkReply)
            reply.__dict__["value"] = text
            append(reply)
        else:
            append(text)
    return pos


def parse_command(buffer: bytes, start: int = 0) -> Tuple[Optional[List[str]], int]:
    """One command's argument vector from ``buffer[start:]``, incrementally.

    Accepts both array form (``*``-prefixed) and inline form (anything
    else).  Returns ``(args, new_start)``, or ``(None, resume)`` when the
    buffer holds no complete command yet.  Blank inline lines are skipped
    and consumed: ``resume`` is ``start`` moved past every whole blank line
    before the incomplete command, so ``parse_command(b"\\n")`` is
    ``(None, 1)``.  Handing the skipped lines back would leave them in the
    reader's unparsed tail, which a client could grow without bound.

    Raises:
        ProtocolError: Framing damage (bad headers, oversize frames,
            non-UTF-8 payloads).
    """
    while True:
        if start >= len(buffer):
            return None, start
        if buffer[start] != 0x2A:  # not "*": inline form
            line, pos = _find_line(buffer, start, MAX_INLINE)
            if line is None:
                return None, start
            try:
                text = line.decode("utf-8")
            except UnicodeDecodeError:
                raise ProtocolError("inline command is not valid UTF-8") from None
            args = text.split()
            if not args:  # blank line: consume it and keep scanning
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
        pos = _parse_bulks(buffer, pos, count, args, False)
        if pos < 0:
            return None, start
        return args, pos


def parse_reply(buffer: bytes, start: int = 0) -> Tuple[Optional[Reply], int]:
    """One reply frame from ``buffer[start:]``, incrementally.

    Returns ``(reply, new_start)`` or ``(None, start)`` when incomplete.

    Raises:
        ProtocolError: Framing damage.
    """
    return _parse_reply(buffer, start, MAX_REPLY_DEPTH)


def _parse_reply(buffer: bytes, start: int, depth: int) -> Tuple[Optional[Reply], int]:
    if start >= len(buffer):
        return None, start
    kind = buffer[start : start + 1]
    if kind == b"$":
        items: List[Reply] = []
        pos = _parse_bulks(buffer, start, 1, items, True)
        return (None, start) if pos < 0 else (items[0], pos)
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
        items = []
        while len(items) < count:
            pos = _parse_bulks(buffer, pos, count - len(items), items, True)
            if pos < 0:
                return None, start
            if len(items) < count:  # the run stopped at an item of another type
                item, pos = _parse_reply(buffer, pos, depth - 1)
                if item is None:
                    return None, start
                items.append(item)
        return ArrayReply(tuple(items)), pos
    raise ProtocolError(f"unknown reply type byte: {kind!r}")
