"""The gateway server: TCP front door over a :class:`ClusterClient`.

:class:`GatewayServer` turns the in-process cluster API into a network
service.  The threading model mirrors the cluster's own pipelined shape:

* one **accept thread** admits connections (or answers ``MAXCONN`` and
  hangs up past ``max_connections``);
* per connection, one **reader thread** parses commands incrementally off
  the socket and *submits* them to the cluster without waiting — a
  pipelining client keeps every shard busy from a single connection;
* per connection, one **writer thread** drains a FIFO queue of pending
  replies, waiting each cluster Future in submission order, so replies are
  delivered in request order no matter how shard runs interleave.  Each
  queued reply yields its frame's bytes, so the writer only sends.

Two distinct overload defenses, deliberately separated:

* **Backpressure** (per connection): the reader acquires a slot from a
  semaphore of ``max_inflight_per_conn`` before each data-plane submit.
  When a client pipelines past its budget the reader blocks — it stops
  draining the socket, the kernel's receive window fills, and TCP pushes
  back on the sender.  No error, no drop; the client is just paced.
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
in-flight replies to flush, then tear the sockets down.
"""

from __future__ import annotations

import json
import mmap
import socket
import threading
import time
from queue import Empty, SimpleQueue
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

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
#: Writer-queue poll interval; bounds how long shutdown waits on an idle queue.
_QUEUE_POLL = 0.1
#: Single-request verbs and the ClusterEngine method each submits through.
_SINGLE_VERBS = {"GET": "submit_get", "PUT": "submit_put", "DEL": "submit_delete"}

#: A queued reply: a thunk of its frame's bytes (ready now, or once the writer
#: waits on cluster Futures), plus whether it holds an in-flight slot to release.
_QueueItem = Tuple[Callable[[], bytes], bool]


class _Connection:
    """One accepted client socket plus its reader/writer thread pair."""

    def __init__(self, server: "GatewayServer", sock: socket.socket, peer: str):
        self.server = server
        self.sock = sock
        self.peer = peer
        self.queue: "SimpleQueue[Optional[_QueueItem]]" = SimpleQueue()
        self.inflight = threading.Semaphore(server.settings.max_inflight_per_conn)
        self.closed = threading.Event()
        self.reader = threading.Thread(
            target=self._read_loop, name=f"gw-read-{peer}", daemon=True
        )
        self.writer = threading.Thread(
            target=self._write_loop, name=f"gw-write-{peer}", daemon=True
        )

    def start(self) -> None:
        self.reader.start()
        self.writer.start()

    # ---------------------------------------------------------------- reader --

    def _read_loop(self) -> None:
        pending = b""  # the unparsed tail of the stream so far
        received = mmap.mmap(-1, _RECV_SIZE)  # reused; pages commit as bytes land
        view = memoryview(received)
        try:
            while not self.closed.is_set():
                try:
                    count = self.sock.recv_into(received)
                except OSError:
                    break
                if not count:
                    break
                # One immutable buffer per received chunk, walked by cursor:
                # a chunk of N pipelined commands is copied once, not N times.
                data = pending + view[:count]
                start = 0
                while not self.closed.is_set():
                    try:
                        args, start = parse_command(data, start)
                    except ProtocolError as exc:
                        # Framing damage is always fatal: answer with the
                        # typed error, then hang up (the stream cursor is
                        # unrecoverable).  Per-command problems surface as
                        # CommandError inside _dispatch instead.
                        self.server._count("protocol_errors")
                        self._enqueue_ready(error_reply(exc.code, str(exc)))
                        return
                    if args is None:
                        break
                    self._dispatch(args)
                pending = data[start:]
        finally:
            self._finish_queue()

    def _dispatch(self, args: List[str]) -> None:
        """Validate, admit, submit, and enqueue the reply for one command."""
        self.server._count("commands")
        try:
            command = command_from_args(args)
        except CommandError as exc:
            self.server._count("protocol_errors")
            self._enqueue_ready(reply_for_exception(exc))
            return
        if command.is_data_plane:
            if self.server._draining.is_set():
                self.server._count("rejected_draining")
                self._enqueue_ready(
                    error_reply(ERR_DRAINING, "gateway is shutting down")
                )
                return
            pending = self.server.client.cluster.pending
            if not self.server._admit(pending):
                self.server._count("shed_busy")
                self._enqueue_ready(
                    error_reply(
                        ERR_BUSY,
                        "cluster is saturated, retry with backoff",
                        pending=pending,
                        high_water=self.server.settings.admission_high_water,
                        low_water=self.server.settings.low_water,
                    )
                )
                return
            # Backpressure: block the reader until an in-flight slot frees.
            self.inflight.acquire()
            if self.closed.is_set():
                # The writer has stopped: nothing would answer this command.
                self.inflight.release()
                return
            try:
                producer = self.server._submit(command)
            except BaseException as exc:  # noqa: BLE001 - typed reply instead
                self.inflight.release()
                self._enqueue_ready(reply_for_exception(exc))
                return
            self.server._inflight_started()
            self.queue.put((producer, True))
        else:
            self._enqueue_ready(self.server._control(command))

    def _enqueue_ready(self, reply: Reply) -> None:
        data = encode_reply(reply)
        self.queue.put(((lambda: data), False))

    def _finish_queue(self) -> None:
        self.queue.put(None)

    # ---------------------------------------------------------------- writer --

    def _write_loop(self) -> None:
        try:
            while True:
                try:
                    item = self.queue.get(timeout=_QUEUE_POLL)
                except Empty:
                    if self.closed.is_set():
                        break
                    continue
                if item is None:
                    return
                producer, holds_slot = item
                broken = False
                try:
                    try:
                        data = producer()
                    except BaseException as exc:  # noqa: BLE001 - a frame
                        data = encode_reply(reply_for_exception(exc))
                    try:
                        self.sock.sendall(data)
                    except OSError:
                        broken = True
                finally:
                    # Release only after the reply bytes are on the socket:
                    # the drain in close() waits on this count, and waking
                    # it before the send lets the shutdown race the flush.
                    if holds_slot:
                        self.inflight.release()
                        self.server._inflight_done()
                if broken:
                    break
            # Stopped before the reader's end marker: replies still queued (or
            # about to be) will never be sent, but their slots must come back,
            # or the reader blocks on one forever and close() waits out its
            # drain for them.
            self.close()
            while (item := self.queue.get()) is not None:
                if item[1]:
                    self.inflight.release()
                    self.server._inflight_done()
        finally:
            self.close()
            self.server._forget(self)

    def close(self) -> None:
        """Idempotently tear the socket down and wake both loops."""
        if self.closed.is_set():
            return
        self.closed.set()
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


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
        self._accept_thread: Optional[threading.Thread] = None
        self._connections: Set[_Connection] = set()
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {
            "accepted": 0,
            "commands": 0,
            "shed_busy": 0,
            "rejected_maxconn": 0,
            "rejected_draining": 0,
            "protocol_errors": 0,
        }
        self._inflight = 0
        self._shedding = False
        self._idle = threading.Condition(self._lock)
        self._draining = threading.Event()
        self._closed = threading.Event()
        self._started = False

    # ----------------------------------------------------------------- lifecycle --

    def start(self) -> "GatewayServer":
        """Bind, listen, and spawn the accept thread.  Idempotent."""
        if self._started:
            return self
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.settings.host, self.settings.port))
        listener.listen(_ACCEPT_BACKLOG)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="gw-accept", daemon=True
        )
        self._started = True
        self._accept_thread.start()
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
        commands to be answered, then closes every connection.
        """
        if self._closed.is_set():
            return
        self._draining.set()
        if self._listener is not None:
            # Closing a listening socket does not wake a thread blocked in
            # accept() on Linux; shutting it down does.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        deadline = time.monotonic() + self.settings.drain_timeout
        with self._idle:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._idle.wait(remaining)
        self._closed.set()
        with self._lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=1.0)

    def __enter__(self) -> "GatewayServer":
        return self.start()

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    # -------------------------------------------------------------------- accept --

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._closed.is_set():
            try:
                sock, addr = self._listener.accept()
            except OSError:
                return  # listener closed: shutting down
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            peer = f"{addr[0]}:{addr[1]}"
            with self._lock:
                over_cap = len(self._connections) >= self.settings.max_connections
                if not over_cap:
                    connection = _Connection(self, sock, peer)
                    self._connections.add(connection)
                    self._counters["accepted"] += 1
            if over_cap:
                self._count("rejected_maxconn")
                try:
                    sock.sendall(
                        encode_reply(
                            error_reply(
                                ERR_MAXCONN,
                                "connection limit reached",
                                max_connections=self.settings.max_connections,
                            )
                        )
                    )
                except OSError:
                    pass
                try:
                    sock.close()
                except OSError:
                    pass
                continue
            connection.start()

    def _forget(self, connection: _Connection) -> None:
        with self._lock:
            self._connections.discard(connection)

    # ------------------------------------------------------------------ execution --

    def _submit(self, command: Command) -> Callable[[], bytes]:
        """Submit a data-plane command now; return the thunk of its reply bytes.

        Submission happens on the reader thread (so ordering across a
        connection's commands matches arrival order); the returned thunk is
        resolved by the writer thread, which is where Future waiting —
        potentially slow — belongs.
        """
        client = self.client
        single = _SINGLE_VERBS.get(command.verb)
        if single is not None:
            future = getattr(client.cluster, single)(*command.args)
            return lambda: encode_reply(reply_for_response(future.result()))
        if command.verb == "BATCH":
            answers = client.cluster.submit_batch_answers(command.requests)
            return lambda: encode_answers(answers.result())
        if command.verb == "MULTI":
            # One cross-shard 2PC; the Future raises TxnConflict/TxnAborted
            # on abort, which reply_for_exception maps to a retryable
            # ABORTED frame (the writer thread wraps the thunk).
            txn_future = client.cluster.submit_txn(command.requests)
            return lambda: encode_reply(BulkReply(txn_future.result().txn_id))
        if command.verb == "SCAN":
            prefix = command.args[0] if command.args else ""
            shard_futures = client.cluster.submit_scan(prefix)

            def scan_reply() -> bytes:
                items: List[Tuple[str, str]] = []
                for future in shard_futures.values():
                    items.extend(client.cluster.response_of(future.result()))
                return encode_reply(ArrayReply(
                    tuple(
                        ArrayReply((BulkReply(key), BulkReply(value)))
                        for key, value in sorted(items)
                    )
                ))

            return scan_reply
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

    def _count(self, counter: str) -> None:
        with self._lock:
            self._counters[counter] += 1

    def _admit(self, pending: int) -> bool:
        """Admission-control decision for one data-plane command.

        Sticky hysteresis: start shedding when ``pending`` climbs past the
        high-water mark, keep shedding until it falls back to the low-water
        mark.  The band prevents admit/shed flapping around the threshold.
        """
        with self._lock:
            if self._shedding:
                if pending <= self.settings.low_water:
                    self._shedding = False
            elif pending > self.settings.admission_high_water:
                self._shedding = True
            return not self._shedding

    def _inflight_started(self) -> None:
        with self._lock:
            self._inflight += 1

    def _inflight_done(self) -> None:
        with self._idle:
            self._inflight -= 1
            if self._inflight <= 0:
                self._idle.notify_all()

    def metrics(self) -> Dict[str, Any]:
        """A JSON-ready snapshot of gateway counters and cluster load."""
        with self._lock:
            counters = dict(self._counters)
            connections = len(self._connections)
            inflight = self._inflight
            shedding = self._shedding
        stats = self.client.stats
        counters.update(
            connections=connections,
            inflight=inflight,
            shedding=shedding,
            cluster_pending=self.client.cluster.pending,
            cluster_messages=stats.total_messages,
            cluster_bytes=stats.total_bytes,
            draining=self._draining.is_set(),
        )
        return counters
