"""Asyncio TCP transport: every location's inbound reads on one event loop.

The threaded TCP backend (:mod:`repro.runtime.tcp`) spends OS threads on
reading: one accept thread per location plus one reader thread per live
connection — for a census of *n* fully-connected locations that is
``n + n·(n−1)`` threads before the engine's own workers.  On a small
container that thread tax caps how many warm choreography sessions (shard
replicas, gateway connections, clients) one process can hold open.

This backend replaces all of them with a **single event loop** in one daemon
thread per transport: every location's listening socket is an ``asyncio``
server on the loop, and every inbound connection's bytes arrive through an
:class:`asyncio.BufferedProtocol` whose ``buffer_updated`` hands them to the
shared read step (``FramedCoalescingEndpoint._feed`` in
:mod:`repro.runtime.framing`) — no reader threads.

Writes never touch the loop.  The write path is the threaded backend's, both
inherited from :mod:`repro.runtime.framing`: a drained batch goes out as
``sendmsg`` writev calls on a blocking socket from the sending worker thread,
and a full kernel send buffer blocks that worker until the peer's loop reads
— the kernel is the backpressure, and a send posts nothing to the loop.  The
two backends therefore differ only in how inbound bytes reach the inboxes:
they interoperate on the same socket and record identical
:class:`~repro.runtime.stats.ChannelStats` (``tests/test_transport_coalescing.py``).

The loop's price is its read path: an asyncio hop costs about twice a
threaded one (``runtime.asyncio_tcp.hop_us`` against ``runtime.tcp.hop_us``,
``docs/performance.md``).  What it buys is session density: a warm 4-party
asyncio session costs 1 I/O thread instead of the threaded backend's 16
(``test_warm_session_density_is_at_least_four_times_threaded`` in
``tests/test_asyncio_tcp.py``).

``faults=`` takes a :class:`repro.faults.FaultPlan` exactly like the
threaded backend, and an injected delay is the same ``time.sleep`` on the
sending worker: with no write on the loop, a delayed sender cannot stall it.
"""

from __future__ import annotations

import asyncio
import mmap
import threading
from concurrent.futures import TimeoutError as _FutureTimeout
from typing import Any, Optional, Set

from ..core.errors import TransportError
from ..core.locations import Location, LocationsLike
from .framing import FramedCoalescingEndpoint, FrameParser
from .tcp import _READ_CHUNK, TCPTransport
from .transport import DEFAULT_TIMEOUT


class _ReaderProtocol(asyncio.BufferedProtocol):
    """Inbound connection: its bytes take the shared read step on the loop.

    The loop reads with ``recv_into`` into one reused anonymous ``mmap`` per
    connection, as the threaded readers do, instead of a fresh 256 KiB
    ``recv`` per read event.  ``queue.SimpleQueue.put`` never blocks, so
    delivering from the loop thread is safe; receivers block in their own
    worker threads.
    """

    def __init__(self, endpoint: "_AsyncioEndpoint"):
        self._endpoint = endpoint
        self._parser = FrameParser()
        self._view = memoryview(mmap.mmap(-1, _READ_CHUNK))
        self._transport: Optional[asyncio.Transport] = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport  # type: ignore[assignment]
        self._endpoint._readers.add(self._transport)

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self._endpoint._readers.discard(self._transport)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._view

    def buffer_updated(self, nbytes: int) -> None:
        if self._endpoint._feed(self._parser, self._view[:nbytes]) is None:
            self._transport.close()  # corrupt stream: inboxes already poisoned


class _AsyncioEndpoint(FramedCoalescingEndpoint):
    """One location's server and inbound connections, owned by the loop.

    Outgoing connections are the framed base's blocking sockets, written
    from the sending thread; only setup and teardown post to the loop.
    """

    def __init__(self, location: Location, transport: "AsyncioTCPTransport"):
        super().__init__(location, transport)
        self._loop = transport._loop
        # Accepted connections, touched only on the loop: closing the server
        # stops accepting but leaves these open.
        self._readers: Set[asyncio.Transport] = set()
        self._server = self._call_on_loop(
            self._loop.create_server(lambda: _ReaderProtocol(self), "127.0.0.1", 0),
            "start server",
        )
        self.port = self._server.sockets[0].getsockname()[1]

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

    async def _stop_reading(self) -> None:
        self._server.close()
        for reader in list(self._readers):
            reader.close()
        await asyncio.sleep(0)  # the closes' callbacks release the sockets first

    def close(self) -> None:
        super().close()
        if not self._transport._loop_closed:
            self._call_on_loop(self._stop_reading(), "close")


class AsyncioTCPTransport(TCPTransport):
    """Loopback TCP transport reading every socket on one event loop.

    A :class:`~repro.runtime.tcp.TCPTransport` whose endpoints read on the
    loop instead of on reader threads; the wire format, the write path, the
    endpoint surface and the ``faults=`` option are the threaded backend's,
    so a choreography records byte-identical
    :class:`~repro.runtime.stats.ChannelStats` on either backend.
    """

    _endpoint_class = _AsyncioEndpoint

    def __init__(
        self,
        census: LocationsLike,
        timeout: float = DEFAULT_TIMEOUT,
        *,
        faults: "Any | None" = None,
    ):
        super().__init__(census, timeout, faults=faults)
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

    def close(self) -> None:
        if self._loop_closed:
            return
        try:
            super().close()
        finally:  # a wedged loop must not keep its thread alive
            self._loop_closed = True
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._loop_thread.join(timeout=self.timeout)
