"""TCP transport: endpoints exchange length-prefixed messages over localhost.

The paper's libraries run the same choreography unchanged over HTTP(S) between
machines or over channels between threads.  This transport provides the
socket-based half of that story without requiring a network: every location
listens on a loopback port and each endpoint demultiplexes incoming frames
into per-sender FIFO queues so the ``recv(sender)`` discipline matches the
abstract transport exactly.

Frames are laid out as
``[u32 length][u16 sender-length][sender][uvarint instance][payload]`` where
``sender`` is the wire-encoded sender location, ``instance`` is the
choreography-instance id (0 for one-shot sends; used by the persistent
engine to demultiplex pipelined instances), and ``payload`` is the
:func:`~repro.runtime.transport.serialize`-d message — so the payload is
serialized exactly once per send (shared across all receivers of a
``send_many``), the instance tag rides in the frame header like the sender
does, and the byte count recorded in
:class:`~repro.runtime.stats.ChannelStats` is the exact payload byte count on
the wire.  The format and the whole write path live in
:mod:`repro.runtime.framing`, shared with the ``"asyncio"`` backend
(:mod:`repro.runtime.asyncio_tcp`), so the two socket backends interoperate
byte for byte on the same wire and differ only in how they read: threads
here, one selector thread there.

Both directions of the hot path are *coalesced* so that syscall count, not
byte count, stops being the bottleneck for small-message storms:

* **Writes are deferred.**  Every ``send``/``send_many`` appends
  pre-framed bytes (a precomputed per-endpoint sender prefix; no header
  rebuild per send) to a per-receiver write buffer.  A buffer drains on an
  explicit :meth:`~repro.runtime.transport.TransportEndpoint.flush`, once its
  pending bytes pass :data:`~repro.runtime.transport.FLUSH_WATERMARK`, and
  always before this endpoint blocks in a receive (the flush-before-block
  rule that keeps coalescing deadlock-free).  A drain writes *many frames in
  one* ``sendmsg`` writev per live connection, from the draining worker
  thread, instead of one syscall per ``(receiver, message)``.
* **Reads are buffered.**  The per-connection reader thread reads up to
  64 KiB per ``recv_into`` and parses every complete frame in it in place
  through one ``memoryview`` (zero-copy slicing; one ``bytes`` copy per
  payload as it enters the inbox, and one of a trailing partial frame),
  instead of two-plus ``recv`` syscalls per frame.

Sockets run with ``TCP_NODELAY``, so an explicit flush hits the wire
immediately; reader threads drain the kernel buffers independently of the
application's ``recv`` discipline, so a flush (or watermark drain) can never
distributed-deadlock against a peer's un-flushed buffer.
"""

from __future__ import annotations

import mmap
import socket
import threading
from typing import Any

from ..core.locations import Location, LocationsLike
from .framing import FramedCoalescingEndpoint, FrameParser
from .transport import DEFAULT_TIMEOUT, Transport, TransportEndpoint

#: Bytes asked of the kernel per reader-loop ``recv``.
_READ_CHUNK = 64 * 1024


class _TCPEndpoint(FramedCoalescingEndpoint):
    """One location's listening socket and its reader threads.

    The framed base (:mod:`repro.runtime.framing`) supplies the inboxes, the
    frame primitives and every outgoing connection.
    """

    def __init__(self, location: Location, transport: "TCPTransport"):
        super().__init__(location, transport)
        self._server = socket.create_server(
            ("127.0.0.1", 0), backlog=len(transport.census) + 4)
        self.port = self._server.getsockname()[1]
        self._closed = threading.Event()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"tcp-accept-{location}", daemon=True
        )
        self._accept_thread.start()

    # -- incoming ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                conn, _addr = self._server.accept()
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(
                target=self._reader_loop, args=(conn,), daemon=True,
                name=f"tcp-read-{self.location}",
            ).start()

    def _reader_loop(self, conn: socket.socket) -> None:
        """Buffered frame reader: one ``recv`` yields every frame it contains.

        Reads up to :data:`_READ_CHUNK` bytes per syscall into one reused
        anonymous ``mmap`` (``recv_into``: no 64 KiB ``bytes`` per read for the
        C heap to keep; a page costs memory once bytes land in it) for the
        shared :class:`~repro.runtime.framing.FrameParser` (memoryview slicing,
        one ``bytes`` copy per payload, a trailing partial frame kept for the
        next chunk).  A stream that stops parsing poisons the inboxes (see
        ``_feed``) and drops the connection.
        """
        parser = FrameParser()
        received = mmap.mmap(-1, _READ_CHUNK)
        view = memoryview(received)
        with conn:
            while not self._closed.is_set():
                try:
                    count = conn.recv_into(received)
                except OSError:
                    return
                if not count:
                    return
                if self._feed(parser, view[:count]) is None:
                    return

    def close(self) -> None:
        self._closed.set()
        try:
            self._server.close()
        except OSError:  # pragma: no cover - defensive
            pass
        super().close()


class TCPTransport(Transport):
    """Socket-based transport over the loopback interface.

    All endpoints must be created (via :meth:`endpoint`) before any of them
    sends, so that every listener's port is known;
    :class:`~repro.runtime.engine.ChoreoEngine` does this at session start.

    ``faults`` takes a :class:`repro.faults.FaultPlan`: every endpoint is
    then wrapped in a :class:`repro.faults.FaultyEndpoint` injecting the
    plan's delays, reorders, crashes, and connect flakes (real ``time.sleep``
    delays on this backend).  The live :class:`repro.faults.FaultSession` is
    exposed as :attr:`faults`.
    """

    _endpoint_class = _TCPEndpoint

    def __init__(
        self,
        census: LocationsLike,
        timeout: float = DEFAULT_TIMEOUT,
        *,
        faults: "Any | None" = None,
    ):
        super().__init__(census, timeout)
        self.faults = faults.session() if faults is not None else None

    def _make_endpoint(self, location: Location) -> TransportEndpoint:
        endpoint: TransportEndpoint = self._endpoint_class(location, self)
        if self.faults is not None:
            endpoint = self.faults.wrap(endpoint)
        return endpoint

    def port_of(self, location: Location) -> int:
        """The loopback port ``location`` listens on."""
        endpoint = self.endpoint(location)
        return endpoint.port  # type: ignore[attr-defined]

    def close(self) -> None:
        for endpoint in self._endpoints.values():
            endpoint.close()  # type: ignore[attr-defined]
