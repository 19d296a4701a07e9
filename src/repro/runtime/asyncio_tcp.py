"""Asyncio-native TCP transport: every location's I/O on one event loop.

The threaded TCP backend (:mod:`repro.runtime.tcp`) spends OS threads freely:
one accept thread per location plus one reader thread per live connection —
for a census of *n* fully-connected locations that is ``n + n·(n−1)`` threads
of pure I/O multiplexing before the engine's own workers.  On a small
container that thread tax caps how many warm choreography sessions (shard
replicas, gateway connections, clients) one process can hold open.

This backend replaces all of it with a **single event loop** in one daemon
thread per transport:

* every location's listening socket is an ``asyncio`` server on the loop;
* every connection's reads arrive through an :class:`asyncio.Protocol` whose
  ``data_received`` feeds the shared incremental frame parser
  (:class:`~repro.runtime.framing.FrameParser`) and delivers parsed frames
  into per-sender inboxes — no reader threads;
* the coalescing contract is unchanged on the send side (deferred sends,
  :data:`~repro.runtime.transport.FLUSH_WATERMARK` auto-drains, the
  flush-before-block rule) and a drained batch is handed to the loop as one
  ``transport.writelines(batch)`` — asyncio's vectorized write.  A
  ``flush()`` wakes the loop **once** however many receivers it drained to
  (a scatter, broadcast or gather round flushes to ``n − 1`` peers at a
  time), not once per receiver.  The
  ``drain()`` half of the contract maps onto asyncio's flow control: when
  the loop reports ``pause_writing`` (the kernel send buffer is full), the
  *sending worker thread* blocks until ``resume_writing`` before posting the
  next batch, so a fast producer cannot buffer unboundedly.

The wire format is byte-for-byte the threaded backend's
(:mod:`repro.runtime.framing` is the single definition), so the two backends
interoperate on the same socket and record identical
:class:`~repro.runtime.stats.ChannelStats` — the backend-equivalence property
the repo enforces across local/tcp/simulated/central extends to this backend
unchanged (``tests/test_transport_coalescing.py``).

Choreography code still runs in the engine's one-worker-thread-per-location
(projected programs are ordinary blocking Python); what moves onto the loop
is every socket.  That is the scaling story: a warm 4-party asyncio session
costs 1 loop thread of I/O instead of the threaded backend's 16+, so the
number of concurrent warm sessions at a fixed memory/thread budget grows
accordingly (``test_warm_session_density_is_at_least_four_times_threaded``
in ``tests/test_asyncio_tcp.py``).

``faults=`` takes a :class:`repro.faults.FaultPlan` exactly like the
threaded backend; injected delays are realized as **event-loop timers**
(``loop.call_later`` wakes the blocked worker) rather than bare
``time.sleep``, so a delayed sender never wedges the shared loop.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from concurrent.futures import TimeoutError as _FutureTimeout
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..core.errors import TransportError
from ..core.locations import Location, LocationsLike
from .framing import FrameCorruption, FramedCoalescingEndpoint, FrameParser
from .transport import DEFAULT_TIMEOUT, Transport, TransportEndpoint


class _ReaderProtocol(asyncio.Protocol):
    """Inbound connection: parse frames on the loop, deliver to inboxes.

    ``queue.SimpleQueue.put`` never blocks, so delivering from the loop
    thread is safe; receivers block in their own worker threads.
    """

    def __init__(self, endpoint: "_AsyncioEndpoint"):
        self._endpoint = endpoint
        self._parser = FrameParser()
        self._transport: Optional[asyncio.Transport] = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport  # type: ignore[assignment]

    def data_received(self, data: bytes) -> None:
        try:
            frames = self._parser.feed(data)
        except FrameCorruption as exc:
            # Same contract as the threaded reader: poison every inbox with
            # the typed error and drop the connection — a stream that stops
            # parsing must fail receivers loudly, not let them time out.
            self._endpoint._poison_inboxes(exc)
            if self._transport is not None:
                self._transport.close()
            return
        inboxes = self._endpoint._inboxes
        for sender, instance, payload in frames:
            inbox = inboxes.get(sender)
            if inbox is not None:
                inbox.put((instance, payload))


class _WriterProtocol(asyncio.Protocol):
    """Outbound connection: exposes asyncio's flow control to worker threads.

    ``writable`` is the thread-side face of ``drain()``: set while the
    loop's write buffer is under its high-water mark, cleared on
    ``pause_writing``.  A sending worker waits on it before posting another
    batch, which bounds per-connection buffering to roughly one batch past
    the kernel's appetite.
    """

    def __init__(self) -> None:
        self.writable = threading.Event()
        self.writable.set()
        self.lost: Optional[BaseException] = None

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self.lost = exc if exc is not None else ConnectionResetError("connection closed")
        self.writable.set()  # never strand a waiting sender

    def pause_writing(self) -> None:
        self.writable.clear()

    def resume_writing(self) -> None:
        self.writable.set()


class _AsyncioEndpoint(FramedCoalescingEndpoint):
    """One location's server and outgoing connections, all owned by the loop.

    The endpoint object itself lives on the engine's worker-thread side: its
    blocking ``send``/``recv``/``flush`` surface is identical to every other
    endpoint's, and it bridges to the loop with ``call_soon_threadsafe`` /
    ``run_coroutine_threadsafe`` only where a socket is touched.
    """

    def __init__(self, location: Location, transport: "AsyncioTCPTransport"):
        super().__init__(location, transport)
        self._loop = transport._loop
        self._closed = False
        # Cached outgoing connections: ``receiver -> (asyncio transport,
        # writer protocol)``.  ``_out_lock`` (from the coalescing base)
        # guards only the cache dict, never connection setup.
        self._out: Dict[Location, Tuple[asyncio.Transport, _WriterProtocol]] = {}
        # Drained batches on their way to the loop, in drain order.  Appended
        # under the receiver's drain lock, emptied by ``_write_outbox`` on the
        # loop, so per-pair FIFO holds whoever posts the wake-up.
        self._outbox: Deque[Tuple[asyncio.Transport, _WriterProtocol, List[bytes]]] = deque()
        # The thread inside ``flush()``: its deliveries ride the one wake-up
        # the flush posts at its end instead of one each.
        self._flusher: Optional[int] = None
        server = self._call_on_loop(
            self._loop.create_server(
                lambda: _ReaderProtocol(self), "127.0.0.1", 0
            ),
            "start server",
        )
        self._server: asyncio.AbstractServer = server
        self.port = server.sockets[0].getsockname()[1]

    # -- loop plumbing -------------------------------------------------------------

    def _call_on_loop(self, coroutine, what: str):
        """Run ``coroutine`` on the transport's loop; surface typed failures."""
        if self._transport._loop_closed:
            coroutine.close()  # un-awaited coroutine: silence the warning
            raise TransportError(f"asyncio transport is closed ({what})")
        future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        try:
            return future.result(timeout=self._timeout)
        except (TimeoutError, _FutureTimeout):
            future.cancel()
            raise TransportError(
                f"{self.location!r}: {what} did not complete within {self._timeout}s"
            ) from None
        except OSError as exc:
            raise TransportError(f"{self.location!r}: {what} failed: {exc}") from exc

    # -- outgoing ------------------------------------------------------------------

    def _connection_to(self, receiver: Location) -> Tuple[asyncio.Transport, _WriterProtocol]:
        with self._out_lock:
            pair = self._out.get(receiver)
        if pair is not None:
            return pair
        port = self._transport.port_of(receiver)
        conn, proto = self._call_on_loop(
            self._loop.create_connection(_WriterProtocol, "127.0.0.1", port),
            f"connect to {receiver!r}",
        )
        with self._out_lock:
            raced = self._out.get(receiver)
            if raced is not None:  # pragma: no cover - depends on thread timing
                self._loop.call_soon_threadsafe(conn.close)
                return raced
            self._out[receiver] = (conn, proto)
        return conn, proto

    def _deliver(self, receiver: Location, batch: List[bytes]) -> None:
        """A drained batch becomes one ``writelines`` on the event loop.

        The drain() mapping: before handing the loop another batch, wait for
        the connection to be writable (asyncio's ``resume_writing``), so the
        loop's write buffer — not this thread — is the only place bytes
        queue, and it stays bounded by the loop's high-water mark.

        The batch joins the outbox; a watermark drain wakes the loop for it
        at once, a drain inside :meth:`flush` leaves that to the flush.
        """
        conn, proto = self._connection_to(receiver)
        if proto.lost is not None:
            raise TransportError(
                f"{self.location!r} failed to send to {receiver!r}: {proto.lost}"
            )
        if not proto.writable.wait(self._timeout):
            raise TransportError(
                f"{self.location!r}: send buffer to {receiver!r} stayed full for "
                f"{self._timeout}s (peer not draining)"
            )
        self._outbox.append((conn, proto, batch))
        if self._flusher != threading.get_ident():
            self._loop.call_soon_threadsafe(self._write_outbox)

    def flush(self) -> None:
        """Drain every pending buffer; one loop wake-up for all receivers."""
        if not self._has_pending:
            return
        self._flusher = threading.get_ident()
        try:
            super().flush()
        finally:
            self._flusher = None
            if self._outbox:  # also what was drained before a failing receiver
                self._loop.call_soon_threadsafe(self._write_outbox)

    def _write_outbox(self) -> None:
        # Runs on the loop.  A connection torn down between the thread-side
        # check and this callback must not crash the shared loop; the loss is
        # surfaced to the sender on its next batch via ``proto.lost``.
        outbox = self._outbox
        while outbox:
            conn, proto, batch = outbox.popleft()
            if proto.lost is None and not conn.is_closing():
                conn.writelines(batch)

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._discard_buffers()
        loop = self._loop
        if self._transport._loop_closed:
            return

        def _shutdown() -> None:
            self._server.close()
            for conn, _proto in self._out.values():
                conn.close()

        done = threading.Event()

        def _shutdown_and_signal() -> None:
            try:
                _shutdown()
            finally:
                done.set()

        loop.call_soon_threadsafe(_shutdown_and_signal)
        done.wait(self._timeout)
        with self._out_lock:
            self._out.clear()


class AsyncioTCPTransport(Transport):
    """Loopback TCP transport multiplexing every socket onto one event loop.

    Wire-compatible with :class:`~repro.runtime.tcp.TCPTransport` (the frame
    format is shared, see :mod:`repro.runtime.framing`) and drop-in
    equivalent for engines: endpoints expose the same blocking surface, and
    a choreography records byte-identical
    :class:`~repro.runtime.stats.ChannelStats` on either backend.

    As with the threaded backend, all endpoints must be created (via
    :meth:`endpoint`) before any of them sends, so every listener's port is
    known; the engine does this automatically.

    ``faults`` takes a :class:`repro.faults.FaultPlan`: every endpoint is
    wrapped in a :class:`repro.faults.FaultyEndpoint` injecting the plan's
    delays, reorders, crashes, and connect flakes.  Delays are realized as
    event-loop timers (``loop.call_later`` sets an event the blocked worker
    waits on), so an injected delay occupies no loop time and blocks only
    the faulted sender.  The live session is exposed as :attr:`faults`.
    """

    def __init__(
        self,
        census: LocationsLike,
        timeout: float = DEFAULT_TIMEOUT,
        *,
        faults: "Any | None" = None,
    ):
        super().__init__(census, timeout)
        self.faults = faults.session() if faults is not None else None
        self._loop = asyncio.new_event_loop()
        self._loop_closed = False
        self._loop_thread = threading.Thread(
            target=self._run_loop, name="asyncio-tcp-loop", daemon=True
        )
        self._loop_thread.start()

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_forever()
        finally:
            self._loop.close()

    def _timer_delay(self, seconds: float) -> None:
        """Realize an injected delay as a loop timer the worker waits on."""
        woken = threading.Event()
        if self._loop_closed:
            return
        self._loop.call_soon_threadsafe(self._loop.call_later, seconds, woken.set)
        woken.wait(seconds + self.timeout)

    def _make_endpoint(self, location: Location) -> TransportEndpoint:
        if self._loop_closed:
            raise TransportError("asyncio transport is closed")
        endpoint: TransportEndpoint = _AsyncioEndpoint(location, self)
        if self.faults is not None:
            endpoint = self.faults.wrap(endpoint, delay_fn=self._timer_delay)
        return endpoint

    def port_of(self, location: Location) -> int:
        """The loopback port ``location``'s server listens on."""
        endpoint = self.endpoint(location)
        return endpoint.port  # type: ignore[attr-defined]

    def close(self) -> None:
        if self._loop_closed:
            return
        for endpoint in self._endpoints.values():
            endpoint.close()  # type: ignore[attr-defined]
        self._loop_closed = True
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._loop_thread.join(timeout=self.timeout)
