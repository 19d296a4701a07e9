"""TCP transport: endpoints exchange length-prefixed messages over localhost.

The paper's libraries run the same choreography unchanged over HTTP(S) between
machines or over channels between threads.  This transport provides the
socket-based half of that story without requiring a network: every location
listens on a loopback port and each endpoint demultiplexes incoming frames
into per-sender FIFO queues so the ``recv(sender)`` discipline matches the
abstract transport exactly.  The backend names ``"tcp"`` and ``"asyncio"``
both run it.

The wire format and the whole write path live in
:mod:`repro.runtime.framing`: every ``send``/``send_many`` appends a
pre-framed payload to a per-receiver buffer, and a buffer drains (on
``flush``, past :data:`~repro.runtime.transport.FLUSH_WATERMARK`, and before
the endpoint blocks in a receive) as ``sendmsg`` writev calls on a blocking
socket from the draining thread.  The byte count recorded in
:class:`~repro.runtime.stats.ChannelStats` is the exact payload byte count on
the wire.

All inbound bytes of a transport are read on **one selector thread**
(``tcp-selector``), a Reactor in Schmidt's sense: it blocks in one
:func:`selectors.DefaultSelector` with no timeout, accepts on every
location's non-blocking listener and registers the new connection itself,
and reads each readable connection with ``recv_into`` into one reused 64 KiB
``mmap`` for the shared read step (``FramedCoalescingEndpoint._feed``: every
complete frame of a chunk parsed in place, one ``bytes`` copy per payload).
A listener is registered by the thread that creates its endpoint (epoll and
kqueue see a registration made while they wait), so ``close()`` is the
thread's only wake-up and sending never touches the selector.  A census of
*n* thus costs one I/O thread, however many connections it opens.  The selector drains kernel buffers whatever the
application's ``recv`` discipline, so a blocking write always makes
progress and no flush can distributed-deadlock against a peer's.

One shared reader is no shared point of failure: a connection whose bytes
stop parsing poisons only its own endpoint's inboxes with
:class:`~repro.runtime.framing.FrameCorruption`, a reset one is dropped, and
the selector serves the rest.  An unexpected exception in the loop is logged
and poisons every inbox of the transport with a typed
:class:`~repro.core.errors.TransportError`, so no receiver waits out its
timeout.
"""

from __future__ import annotations

import logging
import mmap
import selectors
import socket
import threading
from typing import Any, List

from ..core.errors import TransportError
from ..core.locations import Location, LocationsLike
from .framing import FramedCoalescingEndpoint, FrameParser
from .transport import DEFAULT_TIMEOUT, Transport, TransportEndpoint

logger = logging.getLogger("repro.runtime.tcp")

#: Bytes asked of the kernel per selector ``recv_into``.
_READ_CHUNK = 64 * 1024


class _SelectorEndpoint(FramedCoalescingEndpoint):
    """One location's listener; it and its connections belong to the selector.

    The framed base (:mod:`repro.runtime.framing`) supplies the inboxes, the
    read step and every outgoing connection.
    """

    def __init__(self, location: Location, transport: "TCPTransport"):
        if transport._closed:
            raise TransportError(f"TCP transport is closed ({location!r})")
        super().__init__(location, transport)
        server = socket.create_server(("127.0.0.1", 0), backlog=len(transport.census) + 4)
        server.setblocking(False)
        self.port = server.getsockname()[1]
        transport._readers.append(self)
        transport._selector.register(server, selectors.EVENT_READ, self)


class TCPTransport(Transport):
    """Socket-based transport over the loopback interface, read on one thread.

    All endpoints must be created (via :meth:`endpoint`) before any of them
    sends, so that every listener's port is known;
    :class:`~repro.runtime.engine.ChoreoEngine` does this at session start.

    ``faults`` takes a :class:`repro.faults.FaultPlan`: every endpoint is
    then wrapped in a :class:`repro.faults.FaultyEndpoint` injecting the
    plan's delays, reorders, crashes, and connect flakes (real ``time.sleep``
    delays on this backend).  The live :class:`repro.faults.FaultSession` is
    exposed as :attr:`faults`.
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
        self._closed = False
        self._readers: List[_SelectorEndpoint] = []
        self._selector = selectors.DefaultSelector()
        self._wake_read, self._wake_write = socket.socketpair()  # close()'s
        self._selector.register(self._wake_read, selectors.EVENT_READ, None)
        self._thread = threading.Thread(target=self._serve, name="tcp-selector", daemon=True)
        self._thread.start()

    def _make_endpoint(self, location: Location) -> TransportEndpoint:
        endpoint: TransportEndpoint = _SelectorEndpoint(location, self)
        if self.faults is not None:
            endpoint = self.faults.wrap(endpoint)
        return endpoint

    def port_of(self, location: Location) -> int:
        """The loopback port ``location`` listens on."""
        endpoint = self.endpoint(location)
        return endpoint.port  # type: ignore[attr-defined]

    def _serve(self) -> None:
        try:
            self._select_loop()
        except Exception as exc:  # noqa: BLE001 - no receiver may wait out its timeout
            logger.exception("selector thread failed; poisoning every inbox")
            error = TransportError(f"selector thread failed: {exc!r}")
            for endpoint in self._readers:
                endpoint._poison_inboxes(error)
        finally:
            for key in list(self._selector.get_map().values()):
                key.fileobj.close()
            self._selector.close()
            self._wake_write.close()

    def _select_loop(self) -> None:
        select, register = self._selector.select, self._selector.register
        unregister = self._selector.unregister
        buffer = mmap.mmap(-1, _READ_CHUNK)
        view = memoryview(buffer)
        while True:
            for key, _events in select():
                sock, reader = key.fileobj, key.data
                if type(reader) is tuple:  # a connection: (endpoint, parser)
                    endpoint, parser = reader
                    try:
                        count = sock.recv_into(buffer)
                        while count and endpoint._feed(parser, view[:count]) is not None:
                            if count < _READ_CHUNK:
                                break  # one read per wake-up, unless it filled the buffer
                            count = sock.recv_into(buffer)
                        else:  # EOF, or the bytes poisoned this endpoint's inboxes
                            unregister(sock)
                            sock.close()
                    except BlockingIOError:
                        pass
                    except OSError:  # reset: drop this connection only
                        unregister(sock)
                        sock.close()
                elif reader is None:  # close() woke us
                    return
                else:  # a listener: accept and register on this thread
                    try:
                        conn, _addr = sock.accept()
                    except OSError:  # reset before accept
                        continue
                    conn.setblocking(False)
                    register(conn, selectors.EVENT_READ, (reader, FrameParser()))

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            for endpoint in self._endpoints.values():
                endpoint.close()  # type: ignore[attr-defined]
        finally:  # a wedged selector must not keep its thread alive
            try:
                self._wake_write.send(b"\x00")
            except OSError:  # pragma: no cover - the thread already exited
                pass
            self._thread.join(timeout=self.timeout)
