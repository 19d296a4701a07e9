"""The socket wire format and the write path shared by both TCP backends.

Both TCP transports (:mod:`repro.runtime.tcp`, reader threads;
:mod:`repro.runtime.asyncio_tcp`, one selector thread) frame messages as::

    [u32 length][u16 sender-length][sender][uvarint instance][payload]

where ``sender`` is the wire-encoded sender location, ``instance`` is the
choreography-instance id (0 for one-shot sends), and ``payload`` is the
:func:`~repro.runtime.transport.serialize`-d message.  This module is the
single definition of that layout — a header builder, an incremental parser,
and the two frame primitives both endpoints share — so the two
backends stay interoperable *byte for byte* on the same socket: a frame
written by either backend parses identically on the other, and the payload
byte counts recorded in :class:`~repro.runtime.stats.ChannelStats` are the
exact payload bytes on the wire on both.

It is also the one write path: :class:`FramedCoalescingEndpoint` caches a
blocking outgoing socket per receiver and writes each drained batch from the
draining worker thread as ``sendmsg`` writev calls.  The backends differ only
in how inbound bytes reach the inboxes — a reader thread per connection or
one selector thread per transport — and both hand them to
:meth:`FramedCoalescingEndpoint._feed`.  Inbound bytes drain independently of
the application's ``recv`` discipline on both, so a write blocked on a full
kernel buffer always makes progress: the kernel bounds what a sender
buffers, and no write can distributed-deadlock against a peer's.

Corruption is typed: a frame whose varints run away (see
``wire.read_uvarint``'s 64-bit bound) or whose sender does not decode to a
location raises :class:`FrameCorruption`, a
:class:`~repro.core.errors.TransportError` subclass, instead of misframing
the stream.  Readers poison the endpoint's
inboxes with it so blocked receivers surface the corruption promptly as the
typed transport error, not as an eventual timeout.
"""

from __future__ import annotations

import queue
import socket
import struct
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.errors import ChoreoTimeout, TransportError
from ..core.locations import Location
from . import wire
from .transport import CoalescingEndpoint

LENGTH = struct.Struct("!I")
SENDER_LENGTH = struct.Struct("!H")

#: One parsed frame: ``(sender, instance, payload bytes)``.
Frame = Tuple[Location, int, bytes]

#: Buffers handed to one ``sendmsg``; comfortably under any platform IOV_MAX
#: (Linux: 1024) while still coalescing hundreds of frames per syscall.
_IOV_BATCH = 512


def _send_buffers(sock: socket.socket, buffers: List[bytes]) -> None:
    """Write ``buffers`` to ``sock`` as writev batches, finishing short writes."""
    for start in range(0, len(buffers), _IOV_BATCH):
        batch = buffers[start:start + _IOV_BATCH]
        total = sum(len(buffer) for buffer in batch)
        sent = sock.sendmsg(batch)
        if sent < total:  # pragma: no cover - kernel-buffer dependent
            sock.sendall(b"".join(batch)[sent:])


class FrameCorruption(TransportError):
    """The byte stream on a connection does not parse as frames."""


class FrameWriter:
    """Builds frame headers for one sending endpoint.

    The ``[u16 sender-length][sender]`` prefix never changes for an endpoint,
    so it is precomputed; the ``prefix + uvarint(instance)`` tail is memoized
    because within one engine instance every send shares it.
    """

    __slots__ = ("sender_prefix", "_tail")

    def __init__(self, location: Location):
        sender_tag = wire.encode(location)
        self.sender_prefix = SENDER_LENGTH.pack(len(sender_tag)) + sender_tag
        self._tail: Tuple[int, bytes] = (0, self.sender_prefix + b"\x00")

    def header(self, payload_length: int, instance: int) -> bytes:
        """The ``[length][sender-length][sender][instance]`` prefix for a payload."""
        memo_instance, tail = self._tail
        if instance != memo_instance:
            varint = bytearray()
            wire.write_uvarint(varint, instance)
            tail = self.sender_prefix + bytes(varint)
            self._tail = (instance, tail)
        return LENGTH.pack(len(tail) + payload_length) + tail


class FrameParser:
    """Incremental frame parser: feed chunks, collect complete frames.

    Holds a trailing partial frame across :meth:`feed` calls; a chunk fed
    while none is held is parsed in place, so only its tail is copied.
    Parsing is zero-copy via ``memoryview`` slicing with exactly one
    ``bytes`` copy per payload, and the decode of each connection's
    wire-encoded sender is cached — frames on one connection come from one
    peer endpoint.

    Raises:
        FrameCorruption: When a frame's sender does not decode to a location
            or its instance varint does not decode (including the
            runaway-continuation-byte case the 64-bit varint bound turns into
            a typed error).
    """

    __slots__ = ("_buffer", "_sender_cache")

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._sender_cache: Dict[bytes, Location] = {}

    def feed(self, chunk: bytes) -> List[Frame]:
        held = self._buffer
        if held:  # a partial frame waits: parse it with the chunk appended
            held += chunk
        buffer = held or chunk  # else parse in place: only a tail is copied
        frames: List[Frame] = []
        pos = 0
        size = len(buffer)
        view = memoryview(buffer)
        try:
            while size - pos >= LENGTH.size:
                (length,) = LENGTH.unpack_from(buffer, pos)
                frame_start = pos + LENGTH.size
                frame_end = frame_start + length
                if size < frame_end:
                    break
                try:
                    (sender_length,) = SENDER_LENGTH.unpack_from(buffer, frame_start)
                    sender_start = frame_start + SENDER_LENGTH.size
                    sender_end = sender_start + sender_length
                    sender_raw = bytes(view[sender_start:sender_end])
                    sender = self._sender_cache.get(sender_raw)
                    if sender is None:
                        sender = wire.decode(sender_raw)
                        if type(sender) is not str:
                            raise ValueError(f"sender {sender!r} is not a location")
                        self._sender_cache[sender_raw] = sender
                    instance, body_start = wire.read_uvarint(buffer, sender_end)
                    if body_start > frame_end:
                        raise ValueError("frame header overruns the frame")
                except (ValueError, struct.error) as exc:
                    raise FrameCorruption(
                        f"corrupt frame on the wire: {exc}"
                    ) from exc
                frames.append((sender, instance, bytes(view[body_start:frame_end])))
                pos = frame_end
        finally:
            view.release()
        if held:
            del held[:pos]
        elif pos < size:
            held += buffer[pos:]
        return frames


class FramedCoalescingEndpoint(CoalescingEndpoint):
    """Everything the threaded and selector TCP endpoints share but the reader.

    Owns the per-peer inboxes (items are ``(instance, payload bytes)`` pairs,
    or a typed ``TransportError`` poison), the frame-header builder, the read
    step every reader calls (:meth:`_feed`), and the whole write path: the
    cache of blocking outgoing sockets and ``_deliver``, which writes a
    drained batch from the draining thread.  Subclasses listen, accept, and
    feed each inbound connection's bytes to :meth:`_feed`.
    """

    def __init__(self, location, transport):
        super().__init__(location, transport)
        self._inboxes: Dict[Location, "queue.SimpleQueue"] = {
            peer: queue.SimpleQueue() for peer in transport.census if peer != location
        }
        self._frame_writer = FrameWriter(location)
        # ``_out_lock`` (from the coalescing base) also guards this socket
        # cache — but never connection setup: a slow connect must not
        # serialize sends.
        self._out_sockets: Dict[Location, socket.socket] = {}

    # -- incoming ------------------------------------------------------------------

    def _feed(self, parser: FrameParser, chunk: bytes) -> Optional[List[Frame]]:
        """Parse one inbound ``chunk``, put its frames into the inboxes, return them.

        Returns ``None`` when the stream stops parsing — a runaway varint, a
        sender that is not a location: every inbox is then poisoned with the
        typed :class:`FrameCorruption` and the caller drops the connection,
        so blocked receivers fail loudly rather than timing out.
        """
        try:
            frames = parser.feed(chunk)
        except FrameCorruption as exc:
            self._poison_inboxes(exc)
            return None
        inboxes = self._inboxes
        for sender, instance, payload in frames:
            inbox = inboxes.get(sender)
            if inbox is not None:
                inbox.put((instance, payload))
        return frames

    def _poison_inboxes(self, error: TransportError) -> None:
        """Wake every blocked receiver with a typed transport error.

        Called by the reader when a connection's byte stream stops parsing
        (the frames after the damage cannot be attributed to a sender) and
        by a selector thread that fails: every peer's inbox gets the poison
        and the next ``recv`` on any channel raises it instead of timing out.
        """
        for inbox in self._inboxes.values():
            inbox.put(error)

    def _recv_frame(self, sender: Location) -> Tuple[int, bytes]:
        # Flush-before-block: our own deferred sends must be in flight before
        # we wait on a peer, or two coalescing endpoints could starve each
        # other with full buffers and empty inboxes.
        self.flush()
        try:
            item = self._inboxes[sender].get(timeout=self._timeout)
        except queue.Empty:
            raise ChoreoTimeout(self.location, sender, self._timeout) from None
        if isinstance(item, TransportError):
            raise item
        return item

    # -- outgoing ------------------------------------------------------------------

    def _send_frame(self, receivers: Sequence[Location], data: bytes, instance: int) -> None:
        header = self._frame_writer.header(len(data), instance)  # one header for all
        nbytes = len(header) + len(data)
        for receiver in receivers:
            self._enqueue(receiver, (header, data), nbytes)

    def _connection_to(self, receiver: Location) -> socket.socket:
        """The (cached) outgoing connection to ``receiver``.

        Only the cache dict is touched under ``_out_lock``; the connect
        itself happens outside it, so one slow peer cannot serialize sends
        (or flushes) to every other receiver behind a global lock.
        """
        with self._out_lock:
            sock = self._out_sockets.get(receiver)
        if sock is not None:
            return sock
        port = self._transport.port_of(receiver)
        sock = socket.create_connection(("127.0.0.1", port), timeout=self._timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self._out_lock:
            raced = self._out_sockets.get(receiver)
            if raced is not None:  # pragma: no cover - depends on thread timing
                try:
                    sock.close()
                except OSError:
                    pass
                return raced
            self._out_sockets[receiver] = sock
        return sock

    def _deliver(self, receiver: Location, batch: List[bytes]) -> None:
        """A drained batch goes out as writev calls from the draining thread.

        The socket blocks (up to the receive timeout) while the kernel's
        send buffer is full, which is the only backpressure there is: the
        peer's reader drains it whatever its application is doing.
        """
        try:
            _send_buffers(self._connection_to(receiver), batch)
        except OSError as exc:
            raise TransportError(
                f"{self.location!r} failed to send to {receiver!r}: {exc}"
            ) from exc

    def close(self) -> None:
        """Drop pending writes and close the outgoing sockets."""
        self._discard_buffers()
        with self._out_lock:
            for sock in self._out_sockets.values():
                try:
                    sock.close()
                except OSError:  # pragma: no cover - defensive
                    pass
            self._out_sockets.clear()
