"""In-process transport: one FIFO queue per directed channel.

This is the "threads on a single machine communicating through channels"
execution mode every library in the paper supports.  Only serialised bytes
cross a channel (:class:`~repro.runtime.transport.TransportEndpoint` encodes
on send and decodes on receive), so endpoints cannot accidentally share
mutable state and message sizes are accounted accurately.

Channels are created lazily on first use: a census of *n* locations has n²−n
directed pairs, but most choreographies only ever touch a few of them, so
eager allocation would make large-census benchmarks pay a quadratic setup tax
before the first message moves.

Sends are *coalesced* like the TCP transport's: each frame is appended as an
``(instance, payload bytes)`` item to a per-receiver write buffer (a
broadcast shares one item among its receivers), and a drain puts the whole
batch on the channel queue as **one item** — one queue rendezvous (lock +
wakeup) for many frames instead of one per message.  Buffers drain on an
explicit ``flush()``, past
:data:`~repro.runtime.transport.FLUSH_WATERMARK` pending payload bytes, and
always before a blocking receive (the flush-before-block rule; see
:class:`~repro.runtime.transport.TransportEndpoint`).  The receive side pops
one batch from the queue and serves subsequent ``recv`` calls from a local
deque, preserving per-pair FIFO order exactly.
"""

from __future__ import annotations

import queue
import threading
from collections import deque
from typing import Deque, Dict, List, Sequence, Tuple

from ..core.errors import ChoreoTimeout
from ..core.locations import Location, LocationsLike
from .transport import DEFAULT_TIMEOUT, CoalescingEndpoint, Transport, TransportEndpoint

#: One frame: ``(instance, serialized payload)``.
_Item = Tuple[int, bytes]

#: One queue element: a batch of frames flushed together.
_Batch = List[_Item]


class _QueueEndpoint(CoalescingEndpoint):
    """Endpoint backed by shared per-channel queues."""

    def __init__(self, location: Location, transport: "LocalTransport"):
        super().__init__(location, transport)
        # Frames already popped from a channel queue but not yet recv'd.
        self._pending_in: Dict[Location, Deque[_Item]] = {}

    def _deliver(self, receiver: Location, batch: _Batch) -> None:
        # One queue put carries the whole drained batch of frames.
        self._transport.channel(self.location, receiver).put(batch)

    def _send_frame(self, receivers: Sequence[Location], data: bytes, instance: int) -> None:
        item = (instance, data)  # one item shared by all receivers
        for receiver in receivers:
            self._enqueue(receiver, (item,), len(data))

    def _recv_frame(self, sender: Location) -> _Item:
        pending = self._pending_in.get(sender)
        if pending:
            return pending.popleft()
        # Flush-before-block: our own deferred sends must be on their queues
        # before we wait, or mutually-sending endpoints would starve.
        self.flush()
        try:
            batch = self._transport.channel(sender, self.location).get(timeout=self._timeout)
        except queue.Empty:
            raise ChoreoTimeout(self.location, sender, self._timeout) from None
        if len(batch) == 1:
            return batch[0]
        items = self._pending_in.setdefault(sender, deque())
        items.extend(batch)
        return items.popleft()


class LocalTransport(Transport):
    """Thread-friendly transport where every directed pair has its own FIFO queue."""

    def __init__(self, census: LocationsLike, timeout: float = DEFAULT_TIMEOUT):
        super().__init__(census, timeout)
        self._channels: Dict[Tuple[Location, Location], "queue.SimpleQueue[_Batch]"] = {}
        self._channels_lock = threading.Lock()

    def channel(self, sender: Location, receiver: Location) -> "queue.SimpleQueue[_Batch]":
        """The FIFO queue for the directed pair, created on first use.

        Queue elements are *batches*: lists of ``(instance, payload bytes)``
        frames flushed together by the sending endpoint.
        """
        key = (sender, receiver)
        existing = self._channels.get(key)
        if existing is not None:
            return existing
        with self._channels_lock:
            return self._channels.setdefault(key, queue.SimpleQueue())

    def _make_endpoint(self, location: Location) -> TransportEndpoint:
        return _QueueEndpoint(location, self)
