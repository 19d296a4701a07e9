"""The gateway server: TCP front door over a :class:`ClusterClient`.

:class:`GatewayServer` turns the in-process cluster API into a network
service.  One daemon thread, ``gw-selector``, does all of its socket work,
a Reactor like the transports' selector thread: it blocks in one
:func:`selectors.DefaultSelector`, accepts connections (or answers
``MAXCONN`` and hangs up past ``max_connections``), reads each readable one
with ``recv_into`` into one reused ``mmap``, walks each chunk's commands
with a cursor over one buffer, and *submits* each to the cluster without
waiting, so a pipelining client keeps every shard busy from a single
connection.  No thread belongs to a connection.

Replies leave in request order.  Each command takes the next slot of its
connection's ring.  A cluster Future's done-callback fills its slot, and
the thread that fills the head slot writes the ring's filled prefix with
one non-blocking ``send``, under the connection's lock; bytes the kernel
refuses wait in the connection's ``out`` buffer, and the selector flushes
them once the socket is writable.  Registrations belong to the selector
thread alone, so another thread posts to it only to change one: after a
partial write, when a paused connection's ring has room again, and when a
connection that hung up has drained or its socket failed.

Two distinct overload defenses, deliberately separated:

* **Backpressure** (per connection): the selector stops reading a
  connection while its ring holds ``max_inflight_per_conn`` replies
  (control-plane and error replies count too) or while ``out`` holds
  unsent bytes.  The kernel's receive window fills, and TCP pushes back
  on the sender.  No error, no drop; the client is just paced, and one
  that stops reading costs the gateway at most that many replies.
* **Admission control** (cluster-wide): when the cluster's total in-flight
  load (:attr:`ClusterEngine.pending`) climbs above
  ``admission_high_water``, new data-plane commands are answered with a
  retryable ``BUSY`` error *immediately*, without touching the cluster —
  and shedding is *sticky*: it continues until load falls back to the
  ``low_water`` mark, a hysteresis band that keeps the gateway from
  flapping between admit and shed when load hovers at the threshold.
  Past saturation the gateway sheds load fast instead of queueing without
  bound; control-plane commands (``PING``/``HEALTH``/``STATS``) are always
  admitted so operators can still see in.

``close()`` is a graceful drain: stop accepting, answer ``DRAINING`` to
new data-plane commands, wait up to ``drain_timeout`` seconds for
in-flight replies to reach the kernel, then stop the selector thread,
which closes every socket.
"""

from __future__ import annotations

import json
import mmap
import selectors
import socket
import threading
import time
from collections import deque
from functools import partial
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from ..cluster.client import ClusterClient
from .protocol import (
    ERR_BUSY,
    ERR_DRAINING,
    ERR_MAXCONN,
    PONG,
    ArrayReply,
    BulkReply,
    Command,
    CommandError,
    ProtocolError,
    Reply,
    command_from_args,
    encode_answers,
    encode_reply,
    error_reply,
    parse_command,
    reply_for_exception,
    reply_for_response,
)
from .settings import GatewaySettings

_RECV_SIZE = 65536
#: ``listen()`` backlog for the accept socket.
_ACCEPT_BACKLOG = 128
#: Single-request verbs and the ClusterEngine method each submits through.
_SINGLE_VERBS = {"GET": "submit_get", "PUT": "submit_put", "DEL": "submit_delete"}
_READ, _WRITE = selectors.EVENT_READ, selectors.EVENT_WRITE
#: What ``close()`` posts to the selector thread, in this order.
_STOP_ACCEPTING, _STOP = "stop accepting", "stop"


def _encode_response(response: Any) -> bytes:
    return encode_reply(reply_for_response(response))


def _encode_txn(result: Any) -> bytes:
    return encode_reply(BulkReply(result.txn_id))


def _encode_items(items: List[Tuple[str, str]]) -> bytes:
    return encode_reply(ArrayReply(tuple(
        ArrayReply((BulkReply(key), BulkReply(value))) for key, value in items)))


class _Connection:
    """One client socket and the ordered ring of its replies.

    The selector thread alone parses, registers and closes it.  ``lock``
    guards what completing threads touch too: the ring's slots, ``out``,
    ``dead`` and ``events``.
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        #: ``[reply bytes or None, 1 if its command is in flight]`` per command.
        self.ring: Deque[List[Any]] = deque()
        self.out = b""  # bytes the kernel refused; owed before the ring
        self.out_held = 0  # in-flight commands whose replies are in ``out``
        self.lock = threading.Lock()
        self.data, self.start = b"", 0  # the unparsed buffer and the cursor in it
        self.events = _READ  # what the selector waits for; 0 is unregistered
        self.hung_up = False  # EOF or framing damage: read no more
        self.dead = False  # the socket failed: replies are dropped, not sent


class GatewayServer:
    """A TCP gateway in front of a :class:`ClusterClient`.

    The server *borrows* the client — ``close()`` never touches the
    cluster, so one cluster can sit behind a gateway and still serve
    in-process callers and tests.

    Args:
        client: The cluster facade every data-plane command goes through.
        settings: Operational knobs; :class:`GatewaySettings` defaults
            (loopback, ephemeral port) when omitted.

    Example::

        with ClusterClient(shards=2, replication=2) as kvs:
            with GatewayServer(kvs) as server:
                host, port = server.address
                ...  # point GatewayClient (or nc) at host:port
    """

    def __init__(
        self, client: ClusterClient, settings: Optional[GatewaySettings] = None
    ):
        self.client = client
        self.settings = settings if settings is not None else GatewaySettings()
        self._listener: Optional[socket.socket] = None
        self._thread: Optional[threading.Thread] = None
        #: Changed by the selector thread only, as are the counters.
        self._connections: Set[_Connection] = set()
        self._posted: Deque[Any] = deque()  # for the selector: connections, stops
        self._counters: Dict[str, int] = {
            "accepted": 0,
            "commands": 0,
            "shed_busy": 0,
            "rejected_maxconn": 0,
            "rejected_draining": 0,
            "protocol_errors": 0,
        }
        self._inflight = 0  # data-plane commands whose reply the kernel lacks
        self._idle = threading.Condition()  # guards _inflight; close() drains on it
        self._shedding = False
        self._draining = threading.Event()
        self._closed = False

    # ----------------------------------------------------------------- lifecycle --

    def start(self) -> "GatewayServer":
        """Bind, listen, and spawn the selector thread.  Idempotent."""
        if self._thread is not None:
            return self
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.settings.host, self.settings.port))
        listener.listen(_ACCEPT_BACKLOG)
        listener.setblocking(False)
        self._listener = listener
        self._selector = selectors.DefaultSelector()
        self._wake_read, self._wake_write = socket.socketpair()  # for _post
        self._wake_write.setblocking(False)
        self._selector.register(listener, _READ, listener)
        self._selector.register(self._wake_read, _READ, None)
        self._thread = threading.Thread(target=self._serve, name="gw-selector", daemon=True)
        self._thread.start()
        return self

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — useful with ``port=0``."""
        if self._listener is None:
            raise RuntimeError("server is not started")
        return self._listener.getsockname()[:2]

    def close(self) -> None:
        """Gracefully drain and stop.  Idempotent.

        Stops accepting, answers ``DRAINING`` to new data-plane commands,
        waits up to ``drain_timeout`` seconds for already-submitted
        commands' replies to reach the kernel, then stops the selector
        thread, which closes every connection.
        """
        if self._closed:
            return
        self._closed = True
        self._draining.set()
        if self._thread is None:
            return
        self._post(_STOP_ACCEPTING)
        deadline = time.monotonic() + self.settings.drain_timeout
        with self._idle:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._idle.wait(remaining)
        self._post(_STOP)
        self._thread.join(timeout=1.0)

    def __enter__(self) -> "GatewayServer":
        return self.start()

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------ selector thread --

    def _serve(self) -> None:
        try:
            self._select_loop()
        finally:
            for conn in list(self._connections):
                with conn.lock:
                    self._close(conn)
            for key in list(self._selector.get_map().values()):
                key.fileobj.close()
            self._selector.close()
            self._wake_write.close()

    def _select_loop(self) -> None:
        select, posted = self._selector.select, self._posted
        buffer = mmap.mmap(-1, _RECV_SIZE)  # reused; pages commit as bytes land
        view = memoryview(buffer)
        while True:
            for key, events in select():
                conn = key.data
                if type(conn) is _Connection:
                    events &= conn.events  # a late event of a changed registration
                    if events & _READ:
                        self._read(conn, buffer, view)
                    elif events:
                        self._pump(conn)
                elif conn is None:  # posts from other threads
                    self._wake_read.recv(4096)
                    while posted:
                        item = posted.popleft()
                        if item is _STOP:
                            return
                        if item is _STOP_ACCEPTING:
                            self._selector.unregister(self._listener)
                            self._listener.close()  # type: ignore[union-attr]
                        else:
                            self._pump(item)
                else:
                    self._accept(conn)

    def _accept(self, listener: socket.socket) -> None:
        try:
            sock, _addr = listener.accept()
        except OSError:  # reset before accept
            return
        if len(self._connections) >= self.settings.max_connections:
            self._counters["rejected_maxconn"] += 1
            try:
                sock.send(encode_reply(error_reply(
                    ERR_MAXCONN, "connection limit reached",
                    max_connections=self.settings.max_connections)))
            except OSError:
                pass
            sock.close()
            return
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _Connection(sock)
        self._connections.add(conn)
        self._counters["accepted"] += 1
        self._selector.register(sock, _READ, conn)

    def _read(self, conn: _Connection, buffer: mmap.mmap, view: memoryview) -> None:
        try:
            count = conn.sock.recv_into(buffer)
        except BlockingIOError:
            return
        except OSError:  # reset: nothing more will be sent either
            count, conn.dead = 0, True
        if count:
            # One immutable buffer per received chunk, walked by cursor: a
            # chunk of N pipelined commands is copied once, not N times.
            conn.data = conn.data[conn.start:] + view[:count]
            conn.start = 0
        else:
            conn.hung_up = True
        self._pump(conn)

    def _pump(self, conn: _Connection) -> None:
        """Parse the commands the ring has room for, write what is ready, and
        wait for what is left: more bytes, room, a writable socket."""
        if conn not in self._connections:
            return  # a post that arrived after the close
        budget, ring = self.settings.max_inflight_per_conn, conn.ring
        while True:
            data, start, more = conn.data, conn.start, True
            while more and len(ring) < budget and not conn.out and not conn.hung_up:
                try:
                    args, start = parse_command(data, start)
                except ProtocolError as exc:
                    # Framing damage is always fatal: answer with the typed
                    # error, then hang up (the stream cursor is
                    # unrecoverable).  Per-command problems surface as
                    # CommandError inside _dispatch instead.
                    self._counters["protocol_errors"] += 1
                    ring.append([encode_reply(error_reply(exc.code, str(exc))), 0])
                    conn.hung_up = True
                    break
                if args is None:
                    more = False
                else:
                    self._dispatch(conn, args)
            if start == len(data):  # all parsed: keep no chunk alive
                conn.data, start = b"", 0
            conn.start = start
            with conn.lock:
                self._write(conn)
                events = self._wanted(conn)
                if events < 0:
                    self._close(conn)
                    return
                if not (events & _READ and more):  # else the ring has room again
                    self._register(conn, events)
                    return

    def _register(self, conn: _Connection, events: int) -> None:
        """Wait for ``events`` on ``conn`` (selector thread, lock held)."""
        if events != conn.events:
            if not conn.events:
                self._selector.register(conn.sock, events, conn)
            elif events:
                self._selector.modify(conn.sock, events, conn)
            else:
                self._selector.unregister(conn.sock)
            conn.events = events

    def _close(self, conn: _Connection) -> None:
        """Drop ``conn`` and what it still owes (selector thread, lock held)."""
        conn.dead = True
        self._write(conn)
        self._register(conn, 0)
        self._connections.discard(conn)
        try:
            conn.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        conn.sock.close()

    def _dispatch(self, conn: _Connection, args: List[str]) -> None:
        """Validate, admit and submit one command; its reply takes the next slot."""
        self._counters["commands"] += 1
        try:
            command = command_from_args(args)
            if not command.is_data_plane:
                reply = self._control(command)
            elif self._draining.is_set():
                self._counters["rejected_draining"] += 1
                reply = error_reply(ERR_DRAINING, "gateway is shutting down")
            elif not self._admit(pending := self.client.cluster.pending):
                self._counters["shed_busy"] += 1
                reply = error_reply(
                    ERR_BUSY,
                    "cluster is saturated, retry with backoff",
                    pending=pending,
                    high_water=self.settings.admission_high_water,
                    low_water=self.settings.low_water,
                )
            else:
                future, encode = self._submit(command)
                slot = [None, 1]
                conn.ring.append(slot)
                with self._idle:
                    self._inflight += 1
                future.add_done_callback(partial(self._done, conn, slot, encode))
                return
        except Exception as exc:  # noqa: BLE001 - a typed frame instead
            if isinstance(exc, CommandError):
                self._counters["protocol_errors"] += 1
            reply = reply_for_exception(exc)
        conn.ring.append([encode_reply(reply), 0])

    # ------------------------------------------------------------ reply writing --

    def _done(self, conn: _Connection, slot: List[Any],
              encode: Callable[[Any], bytes], future: Any) -> None:
        """A cluster Future's done-callback: fill its slot, and write the ring's
        filled prefix if the slot heads it."""
        try:
            reply = encode(future.result())
        except Exception as exc:  # noqa: BLE001 - a typed frame instead
            reply = encode_reply(reply_for_exception(exc))
        with conn.lock:
            slot[0] = reply
            if conn.ring[0] is not slot:
                return  # an earlier reply is still pending; its filler writes
            self._write(conn)
            post = self._wanted(conn) != conn.events and conn in self._connections
        if post:
            self._post(conn)

    def _write(self, conn: _Connection) -> None:
        """Send ``out`` and then the ring's filled prefix, without blocking
        (lock held).  A command stays in flight until the kernel has taken
        its reply's bytes, or the connection has failed."""
        data, held, ring = conn.out, conn.out_held, conn.ring
        while ring and ring[0][0] is not None:
            reply, holds = ring.popleft()
            data += reply
            held += holds
        if not data:
            return
        sent = 0
        if not conn.dead:
            try:
                sent = conn.sock.send(data)
            except BlockingIOError:
                pass
            except OSError:  # reset or broken: drop what it is owed
                conn.dead = True
        if conn.dead or sent == len(data):
            conn.out, conn.out_held = b"", 0
            if held:
                with self._idle:
                    self._inflight -= held
                    if self._inflight <= 0:
                        self._idle.notify_all()
        else:
            conn.out, conn.out_held = data[sent:], held

    def _wanted(self, conn: _Connection) -> int:
        """What the selector should wait for on ``conn``, or -1 when it is done
        with it (lock held).  Reading pauses while the ring is full or ``out``
        is owed, so a connection holds at most ``max_inflight_per_conn``
        replies, whether or not its client reads them."""
        if conn.dead or conn.hung_up and not conn.ring and not conn.out:
            return -1
        paused = conn.hung_up or conn.out or len(conn.ring) >= self.settings.max_inflight_per_conn
        return (0 if paused else _READ) | (_WRITE if conn.out else 0)

    def _post(self, item: Any) -> None:
        """Hand ``item`` to the selector thread and wake it."""
        self._posted.append(item)
        try:
            self._wake_write.send(b"\0")
        except OSError:  # full: a wake-up is pending; closed: the thread is gone
            pass

    # ------------------------------------------------------------------ execution --

    def _submit(self, command: Command) -> Tuple[Any, Callable[[Any], bytes]]:
        """Submit a data-plane command now: its cluster Future, and the encoder
        of the Future's result into the reply's bytes.

        Submission happens on the selector thread, so the commands of a
        connection are submitted in arrival order.
        """
        cluster = self.client.cluster
        single = _SINGLE_VERBS.get(command.verb)
        if single is not None:
            return getattr(cluster, single)(*command.args), _encode_response
        if command.verb == "BATCH":
            return cluster.submit_batch_answers(command.requests), encode_answers
        if command.verb == "MULTI":
            # One cross-shard 2PC; the Future raises TxnConflict/TxnAborted
            # on abort, which reply_for_exception maps to a retryable
            # ABORTED frame (the done-callback catches it).
            return cluster.submit_txn(command.requests), _encode_txn
        if command.verb == "SCAN":
            prefix = command.args[0] if command.args else ""
            return cluster.submit_scan_items(prefix), _encode_items
        raise CommandError(f"unroutable command: {command.verb}")

    def _control(self, command: Command) -> Reply:
        """Answer a control-plane command inline (never touches a shard)."""
        if command.verb == "PING":
            return BulkReply(command.args[0]) if command.args else PONG
        if command.verb == "HEALTH":
            health = {
                shard_id: {
                    "primary": h.primary,
                    "replicas": dict(h.replicas),
                    "down": list(h.down),
                    "degraded": h.degraded,
                    "pending": h.pending,
                    "epoch": h.epoch,
                    "roles": dict(h.roles),
                }
                for shard_id, h in self.client.health().items()
            }
            return BulkReply(json.dumps(health, sort_keys=True))
        if command.verb == "STATS":
            return BulkReply(json.dumps(self.metrics(), sort_keys=True))
        raise CommandError(f"unroutable control command: {command.verb}")

    # ------------------------------------------------------------------- plumbing --

    def _admit(self, pending: int) -> bool:
        """Admission-control decision for one data-plane command.

        Sticky hysteresis: start shedding when ``pending`` climbs past the
        high-water mark, keep shedding until it falls back to the low-water
        mark.  The band prevents admit/shed flapping around the threshold.
        """
        if self._shedding:
            if pending <= self.settings.low_water:
                self._shedding = False
        elif pending > self.settings.admission_high_water:
            self._shedding = True
        return not self._shedding

    def metrics(self) -> Dict[str, Any]:
        """A JSON-ready snapshot of gateway counters and cluster load."""
        counters = dict(self._counters)
        stats = self.client.stats
        counters.update(
            connections=len(self._connections),
            inflight=self._inflight,
            shedding=self._shedding,
            cluster_pending=self.client.cluster.pending,
            cluster_messages=stats.total_messages,
            cluster_bytes=stats.total_bytes,
            draining=self._draining.is_set(),
        )
        return counters
