"""The socket wire format shared by the threaded and asyncio TCP backends.

Both TCP transports (:mod:`repro.runtime.tcp`, threaded;
:mod:`repro.runtime.asyncio_tcp`, event-loop) frame messages as::

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

Corruption is typed: a frame whose varints run away (see
``wire._read_uvarint``'s 64-bit bound) or whose sender does not decode raises
:class:`FrameCorruption`, a :class:`~repro.core.errors.TransportError`
subclass, instead of misframing the stream.  Readers poison the endpoint's
inboxes with it so blocked receivers surface the corruption promptly as the
typed transport error, not as an eventual timeout.
"""

from __future__ import annotations

import queue
import struct
from typing import Dict, List, Sequence, Tuple

from ..core.errors import ChoreoTimeout, TransportError
from ..core.locations import Location
from . import wire
from .transport import CoalescingEndpoint

LENGTH = struct.Struct("!I")
SENDER_LENGTH = struct.Struct("!H")

#: One parsed frame: ``(sender, instance, payload bytes)``.
Frame = Tuple[Location, int, bytes]


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

    Holds a trailing partial frame across :meth:`feed` calls.  Parsing is
    zero-copy via ``memoryview`` slicing with exactly one ``bytes`` copy per
    payload (as it leaves the reused buffer), and the decode of each
    connection's wire-encoded sender is cached — frames on one connection
    come from one peer endpoint.

    Raises:
        FrameCorruption: When a frame's sender or instance varint does not
            decode (including the runaway-continuation-byte case the 64-bit
            varint bound turns into a typed error).
    """

    __slots__ = ("_buffer", "_sender_cache")

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._sender_cache: Dict[bytes, Location] = {}

    def feed(self, chunk: bytes) -> List[Frame]:
        self._buffer += chunk
        buffer = self._buffer
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
        if pos:
            del buffer[:pos]
        return frames


class FramedCoalescingEndpoint(CoalescingEndpoint):
    """Frame primitives shared by the threaded and asyncio TCP endpoints.

    Owns the per-peer inboxes (items are ``(instance, payload bytes)`` pairs,
    or a :class:`FrameCorruption` poison) and the frame-header builder;
    subclasses provide connection management and ``_deliver`` (how a drained
    batch of pre-framed buffers reaches a receiver's socket).
    """

    def __init__(self, location, transport):
        super().__init__(location, transport)
        self._inboxes: Dict[Location, "queue.SimpleQueue"] = {
            peer: queue.SimpleQueue() for peer in transport.census if peer != location
        }
        self._frame_writer = FrameWriter(location)

    def _send_frame(self, receivers: Sequence[Location], data: bytes, instance: int) -> None:
        header = self._frame_writer.header(len(data), instance)  # one header for all
        nbytes = len(header) + len(data)
        for receiver in receivers:
            self._enqueue(receiver, (header, data), nbytes)

    def _poison_inboxes(self, error: FrameCorruption) -> None:
        """Wake every blocked receiver with the typed corruption error.

        Called by the reader when a connection's byte stream stops parsing:
        the frames after the damage cannot be attributed to a sender, so
        every peer's inbox gets the poison and the next ``recv`` on any
        channel raises it instead of timing out.
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
        if isinstance(item, FrameCorruption):
            raise item
        return item
