"""Selector TCP transport: every location's inbound reads on one thread.

The threaded TCP backend (:mod:`repro.runtime.tcp`) spends an accept thread
per location and a reader thread per live connection on reading:
``n + n·(n−1)`` threads for a fully-connected census of *n*, which caps how
many warm sessions one process can hold open.  This backend spends **one
selector thread** per transport, a Reactor in Schmidt's sense: it blocks in
one :func:`selectors.DefaultSelector` with no timeout, accepts on every
location's non-blocking listener and registers the new connection itself,
and reads each readable connection with ``recv_into`` into one reused
``mmap`` for the shared read step (``FramedCoalescingEndpoint._feed``).  A
listener is registered by the thread that creates its endpoint (epoll and
kqueue see a registration made while they wait), so ``close()`` is the
thread's only wake-up.  There is no event loop and no ``asyncio`` import;
the backend keeps the name ``"asyncio"`` for its callers.

Writes never touch the selector: the write path and the wire format are
:mod:`repro.runtime.framing`'s, shared with the threaded backend, so the
two interoperate on one socket and record identical
:class:`~repro.runtime.stats.ChannelStats`, and ``faults=`` works alike.

One shared reader is no shared point of failure: a connection whose bytes
stop parsing poisons only its own endpoint's inboxes with
:class:`~repro.runtime.framing.FrameCorruption`, a reset one is dropped,
and the selector serves the rest.  An unexpected exception in the loop is
logged and poisons every inbox of the transport with a typed
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
from .tcp import _READ_CHUNK, TCPTransport
from .transport import DEFAULT_TIMEOUT

logger = logging.getLogger("repro.runtime.asyncio_tcp")


class _SelectorEndpoint(FramedCoalescingEndpoint):
    """One location's listener; it and its connections belong to the selector."""

    def __init__(self, location: Location, transport: "AsyncioTCPTransport"):
        if transport._closed:
            raise TransportError(f"selector transport is closed ({location!r})")
        super().__init__(location, transport)
        server = socket.create_server(("127.0.0.1", 0), backlog=len(transport.census) + 4)
        server.setblocking(False)
        self.port = server.getsockname()[1]
        transport._readers.append(self)
        transport._selector.register(server, selectors.EVENT_READ, self)


class AsyncioTCPTransport(TCPTransport):
    """Loopback TCP transport reading every socket on one selector thread."""

    _endpoint_class = _SelectorEndpoint

    def __init__(
        self,
        census: LocationsLike,
        timeout: float = DEFAULT_TIMEOUT,
        *,
        faults: "Any | None" = None,
    ):
        super().__init__(census, timeout, faults=faults)
        self._closed = False
        self._readers: List[_SelectorEndpoint] = []
        self._selector = selectors.DefaultSelector()
        self._wake_read, self._wake_write = socket.socketpair()  # close()'s
        self._selector.register(self._wake_read, selectors.EVENT_READ, None)
        self._thread = threading.Thread(target=self._serve, name="tcp-selector", daemon=True)
        self._thread.start()

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
            super().close()
        finally:  # a wedged selector must not keep its thread alive
            try:
                self._wake_write.send(b"\x00")
            except OSError:  # pragma: no cover - the thread already exited
                pass
            self._thread.join(timeout=self.timeout)
