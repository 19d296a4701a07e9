"""A small blocking client for the gateway's wire protocol.

:class:`GatewayClient` is what the tests and the load-generator benchmark
speak through: it owns one TCP connection, encodes commands in array form,
and parses reply frames incrementally.  The surface mirrors
:class:`~repro.cluster.ClusterClient` where it can (``put``/``get``/
``delete``/``scan``/``batch``) plus the gateway-only control commands
(``ping``/``health``/``stats``).

Two calling styles:

* **blocking** — each method sends one command and waits for its reply;
  a structured error frame raises :class:`GatewayError` carrying the
  stable ``code`` and ``retryable`` flag.  With ``retries=n`` the client
  resends a command up to ``n`` extra times when the frame says
  ``retryable`` (``BUSY``, ``REBALANCING``, ``TIMEOUT``, ``FAILOVER``,
  ...), sleeping a bounded, jittered backoff between attempts — enough to
  ride out an admission-control shed or a shard's failover window without
  caller-side loops.
* **pipelined** — ``send(...)`` fires a command without waiting and
  ``drain(n)`` collects ``n`` raw replies in order.  The benchmark uses
  this to keep many commands in flight per connection, which is exactly
  the shape the server's per-connection in-flight budget paces.  Raw
  pipelining bypasses the retry layer: error frames stay frames.
"""

from __future__ import annotations

import mmap
import random
import socket
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..protocols.kvs import Request
from .protocol import (
    ArrayReply,
    BulkReply,
    ErrorReply,
    ProtocolError,
    Reply,
    SimpleReply,
    encode_command,
    encode_sub_requests,
    parse_reply,
)

_RECV_SIZE = 65536

#: Retry backoff shape: base * 2**attempt seconds, capped, times a jitter
#: factor in [0.5, 1.5) — small enough to keep tests fast, spread enough to
#: avoid thundering-herd resends against a recovering shard.
_BACKOFF_BASE = 0.02
_BACKOFF_CAP = 0.25


class GatewayError(Exception):
    """A structured error frame, re-raised client-side.

    Attributes:
        code: The stable ``ERR_*`` code (``BUSY``, ``TIMEOUT``, ...).
        detail: The machine-readable detail mapping from the frame.
    """

    def __init__(self, reply: ErrorReply):
        super().__init__(f"[{reply.code}] {reply.message}")
        self.code = reply.code
        self.message = reply.message
        self.detail: Dict[str, Any] = dict(reply.detail)

    @property
    def retryable(self) -> bool:
        """Whether resending the same command later can succeed."""
        return bool(self.detail.get("retryable", False))


class GatewayClient:
    """One TCP connection to a :class:`~repro.gateway.server.GatewayServer`.

    Args:
        host: Gateway host.
        port: Gateway port.
        timeout: Socket timeout in seconds for connect and receive; ``None``
            blocks forever.
        retries: Extra attempts for a blocking command answered with a
            *retryable* error frame (see :data:`~repro.gateway.protocol.
            RETRYABLE_CODES`).  ``0`` — the default — surfaces the first
            error; non-retryable frames always surface immediately.

    Usable as a context manager; ``close()`` is idempotent.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: Optional[float] = 10.0,
        retries: int = 0,
    ):
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries!r}")
        self.retries = retries
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._data = b""  # walked by cursor; recv_into one reused, lazy chunk
        self._start = 0
        self._chunk = mmap.mmap(-1, _RECV_SIZE)
        self._view = memoryview(self._chunk)
        self._closed = False
        self._rng = random.Random()

    # ------------------------------------------------------------ raw pipeline --

    def send(self, *args: str) -> None:
        """Fire one command (array form) without waiting for its reply."""
        self.sock.sendall(encode_command(args))

    def recv_reply(self) -> Reply:
        """Block until the next reply frame arrives, and return it raw."""
        while True:
            reply, self._start = parse_reply(self._data, self._start)
            if reply is not None:
                return reply
            count = self.sock.recv_into(self._chunk)
            if not count:
                raise ConnectionError("gateway closed the connection")
            self._data = self._data[self._start:] + self._view[:count]
            self._start = 0

    def drain(self, count: int) -> List[Reply]:
        """Collect ``count`` raw replies, in order.  Errors stay frames."""
        return [self.recv_reply() for _ in range(count)]

    def call(self, *args: str) -> Reply:
        """Send one command and wait for its reply, raising on error frames.

        Retryable error frames are resent up to ``self.retries`` extra
        times with jittered exponential backoff; the last error raises.
        """
        attempt = 0
        while True:
            self.send(*args)
            reply = self.recv_reply()
            if not isinstance(reply, ErrorReply):
                return reply
            error = GatewayError(reply)
            if not error.retryable or attempt >= self.retries:
                raise error
            pause = min(_BACKOFF_CAP, _BACKOFF_BASE * (2**attempt))
            time.sleep(pause * (0.5 + self._rng.random()))
            attempt += 1

    # --------------------------------------------------------- blocking surface --

    def ping(self, token: Optional[str] = None) -> str:
        """Round-trip liveness check; echoes ``token`` when given."""
        reply = self.call("PING", token) if token is not None else self.call("PING")
        if isinstance(reply, SimpleReply):
            return reply.text
        if isinstance(reply, BulkReply) and reply.value is not None:
            return reply.value
        raise ProtocolError(f"unexpected PING reply: {reply!r}")

    def put(self, key: str, value: str) -> Optional[str]:
        """Store ``value`` under ``key``; return the previous value, if any."""
        return self._bulk(self.call("PUT", key, value))

    def get(self, key: str) -> Optional[str]:
        """Read ``key``; ``None`` when unbound."""
        return self._bulk(self.call("GET", key))

    def delete(self, key: str) -> Optional[str]:
        """Unbind ``key``; return the value it held, if any."""
        return self._bulk(self.call("DEL", key))

    def scan(self, prefix: str = "") -> List[Tuple[str, str]]:
        """All bindings under ``prefix``, sorted by key."""
        reply = self.call("SCAN", prefix) if prefix else self.call("SCAN")
        if not isinstance(reply, ArrayReply):
            raise ProtocolError(f"unexpected SCAN reply: {reply!r}")
        items: List[Tuple[str, str]] = []
        for pair in reply.items:
            if (
                not isinstance(pair, ArrayReply)
                or len(pair.items) != 2
                or not all(isinstance(part, BulkReply) for part in pair.items)
            ):
                raise ProtocolError(f"unexpected SCAN item: {pair!r}")
            key_part, value_part = pair.items
            items.append((key_part.value or "", value_part.value or ""))
        return items

    def batch(self, requests: Sequence[Request]) -> List[Optional[str]]:
        """Serve a mixed Put/Get/Del batch; one value-or-None per request."""
        reply = self.call("BATCH", *encode_sub_requests("BATCH", requests))
        if not isinstance(reply, ArrayReply):
            raise ProtocolError(f"unexpected BATCH reply: {reply!r}")
        return [self._bulk(item) for item in reply.items]

    def txn(self, requests: Sequence[Request]) -> str:
        """Commit a write-only set atomically across shards; return its txn id.

        Encodes ``requests`` as one ``MULTI (PUT k v | DEL k)+ EXEC`` frame;
        the gateway maps it onto a cross-shard two-phase commit.  Either
        every write applies or the server answers a retryable ``ABORTED``
        error frame and nothing was applied — in which case :meth:`call`'s
        ``retries=`` backoff (if enabled) resubmits the whole write set as a
        fresh transaction, which is safe precisely because an abort leaves
        no state behind.

        Raises:
            GatewayError: With ``code == "ABORTED"`` when the transaction
                lost a conflict (or a participant failed) on the final
                attempt.
            ValueError: On a read request — ``MULTI`` is write-only.
        """
        reply = self.call("MULTI", *encode_sub_requests("MULTI", requests), "EXEC")
        txn_id = self._bulk(reply)
        if txn_id is None:
            raise ProtocolError(f"unexpected MULTI reply: {reply!r}")
        return txn_id

    def health(self) -> Dict[str, Any]:
        """The gateway's per-shard health snapshot, decoded from JSON."""
        return self._json(self.call("HEALTH"))

    def stats(self) -> Dict[str, Any]:
        """Gateway counters plus cluster load, decoded from JSON."""
        return self._json(self.call("STATS"))

    # ------------------------------------------------------------------ plumbing --

    @staticmethod
    def _bulk(reply: Reply) -> Optional[str]:
        if isinstance(reply, BulkReply):
            return reply.value
        if isinstance(reply, SimpleReply):
            return reply.text
        raise ProtocolError(f"expected a bulk reply, got {reply!r}")

    @staticmethod
    def _json(reply: Reply) -> Dict[str, Any]:
        import json

        if not isinstance(reply, BulkReply) or reply.value is None:
            raise ProtocolError(f"expected a JSON bulk reply, got {reply!r}")
        return json.loads(reply.value)

    def close(self) -> None:
        """Idempotently close the connection."""
        if self._closed:
            return
        self._closed = True
        try:
            self.sock.close()
        except OSError:
            pass

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()
