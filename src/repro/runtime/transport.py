"""Transport abstraction.

HasChor, MultiChor, ChoRus and ChoreoTS all project a single choreography onto
multiple interchangeable transport mechanisms (threads + channels on one
machine, HTTP between machines, or user-written adapters).  This module
defines the same seam for the Python library: a :class:`Transport` hands out
one :class:`TransportEndpoint` per location; an endpoint can ``send`` to and
``recv`` from peers; every payload is serialised so that message sizes are
meaningful and endpoints never share mutable state.
"""

from __future__ import annotations

import abc
import threading
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

from ..core.errors import TransportError
from ..core.locations import Census, Location, LocationsLike, as_census
from . import wire
from .stats import ChannelStats

#: Default number of seconds an endpoint waits for a message before concluding
#: that the network of projected programs has deadlocked or crashed.
DEFAULT_TIMEOUT = 30.0

#: Pending-byte high-watermark at which a coalescing endpoint drains a peer's
#: write buffer on its own, without waiting for an explicit :meth:`flush` or a
#: blocking receive.  64 KiB keeps buffered latency bounded while still
#: amortizing one syscall (TCP) or one queue rendezvous (local) over thousands
#: of small frames.
FLUSH_WATERMARK = 64 * 1024


def serialize(payload: Any) -> bytes:
    """Serialize a payload for transmission.

    Uses the compact codec of :mod:`repro.runtime.wire` (pickle for payload
    shapes outside its fast paths), which plays the role of MultiChor's
    ``Show``/``Read`` constraints: only values that survive a round-trip may
    be communicated.

    Args:
        payload: The value to encode.

    Returns:
        The wire bytes; their length is what :class:`ChannelStats` records.

    Raises:
        TransportError: If the payload cannot be encoded (e.g. an unpicklable
            object on the fallback path).
    """
    try:
        return wire.encode(payload)
    except Exception as exc:
        raise TransportError(f"payload {payload!r} is not serializable: {exc}") from exc


def deserialize(data: bytes) -> Any:
    """Inverse of :func:`serialize`.

    Args:
        data: Bytes produced by :func:`serialize`.

    Returns:
        The decoded value.

    Raises:
        TransportError: If the bytes do not decode.
    """
    try:
        return wire.decode(data)
    except Exception as exc:
        raise TransportError(f"could not deserialize message: {exc}") from exc


class TransportEndpoint(abc.ABC):
    """One location's view of the transport: its own sends and receives.

    This class is the one place a payload becomes a tagged, counted frame:
    :meth:`send`, :meth:`send_many`, :meth:`recv` and :meth:`recv_tagged`
    check the peer, :func:`serialize` / :func:`deserialize`, and record each
    message in :class:`~repro.runtime.stats.ChannelStats` exactly once.  **A
    new transport implements two methods** that move opaque bytes —
    :meth:`_send_frame` and :meth:`_recv_frame` — plus :meth:`flush` if it
    defers delivery; a wrapper (virtual-clock stamping, fault injection)
    intercepts the same two.

    Every frame carries a choreography-*instance* tag next to its payload
    bytes, never inside them: a persistent engine pipelines many instances
    over one transport and demultiplexes on the tag, while the recorded byte
    count stays exactly the payload's serialization.  One-shot sends use
    tag 0.

    Coalescing contract
    -------------------
    Sends are *deferred*: an endpoint may append pre-framed bytes to a
    per-receiver write buffer instead of delivering immediately.  Buffers
    drain

    * on an explicit :meth:`flush`,
    * on their own once a receiver's pending bytes pass
      :data:`FLUSH_WATERMARK`, and
    * **always before this endpoint blocks in a receive** — the
      *flush-before-block* rule.

    The flush-before-block rule is what makes coalescing deadlock-free: in
    any cycle of endpoints waiting on each other, every endpoint has flushed
    its own outgoing buffers before blocking, so the messages that break the
    cycle are already in flight.  Per-pair FIFO order is preserved because a
    buffer drains in append order and later sends append after any drain.
    Choreographic semantics only require per-pair FIFO delivery and treat
    sends as non-blocking, so deferral never changes what a projected
    program computes — though it can delay *when* a small message reaches a
    peer until the sender next flushes, blocks in a receive, or finishes its
    instance (a sender doing long local computation right after a send keeps
    that send buffered for the duration).  Code driving endpoints *directly*
    must call :meth:`flush` after its final send (the engine does this at
    instance boundaries).
    """

    def __init__(self, location: Location, transport: "Transport"):
        self.location = location
        self._transport = transport
        self._stats = transport.stats
        self._timeout = transport.timeout

    # -- the two primitives a transport implements ----------------------------------

    @abc.abstractmethod
    def _send_frame(self, receivers: Sequence[Location], data: bytes, instance: int) -> None:
        """Accept one pre-encoded frame for every receiver; never blocks indefinitely.

        ``receivers`` are already checked peers; a broadcast passes several so
        the transport can share one queue item or one frame header among them.
        Delivery may be deferred until the next :meth:`flush`.  Raising means
        the frame was *not* accepted, and it is then not counted.
        """

    @abc.abstractmethod
    def _recv_frame(self, sender: Location) -> Tuple[int, bytes]:
        """Return the next ``(instance, payload bytes)`` from ``sender``.

        Per-pair FIFO.  Implementations flush this endpoint's own write
        buffers before blocking (the flush-before-block rule) and raise
        :class:`~repro.core.errors.ChoreoTimeout` when the receive timeout
        elapses with no frame.
        """

    def flush(self) -> None:
        """Drain every pending write buffer to its receiver.

        The base implementation is a no-op for transports that deliver
        eagerly; coalescing transports override it.  Idempotent and cheap
        when nothing is pending.
        """

    # -- the message surface, defined once ------------------------------------------

    def _require_peer(self, peer: Location, role: str) -> None:
        if peer == self.location or peer not in self._transport.census:
            raise TransportError(
                f"unknown {role} {peer!r} at {self.location!r}: a peer must be "
                "another member of this transport's census"
            )

    def send(self, receiver: Location, payload: Any, instance: int = 0) -> None:
        """Deliver ``payload`` to ``receiver``, tagged with ``instance``.

        Args:
            receiver: The destination: a census member other than this
                endpoint's own location.
            payload: Any :func:`serialize`-able value.
            instance: The choreography-instance tag carried beside the payload.

        Raises:
            TransportError: If ``receiver`` is not a peer or the payload does
                not serialize (nothing is buffered or recorded), or the
                transport is shut down.
        """
        self._require_peer(receiver, "receiver")
        data = serialize(payload)
        self._send_frame((receiver,), data, instance)
        self._stats.record(self.location, receiver, len(data))

    def send_many(self, receivers: Iterable[Location], payload: Any, instance: int = 0) -> None:
        """Deliver the *same* ``payload`` to every receiver (the broadcast path).

        One :func:`serialize` is shared by all receivers and each receiver is
        counted once.  All-or-nothing: every receiver is checked before the
        payload is serialized, so a bad one leaves nothing buffered or
        recorded.  ``receivers`` must not include this endpoint's own
        location — a multicast sender keeps its copy without a message.
        """
        targets = list(receivers)
        for receiver in targets:
            self._require_peer(receiver, "receiver")
        data = serialize(payload)
        self._send_frame(targets, data, instance)
        self._stats.record_broadcast(self.location, targets, len(data))

    def recv_tagged(self, sender: Location) -> Tuple[int, Any]:
        """Return ``(instance, payload)`` of the next message from ``sender``.

        Raises:
            TransportError: If ``sender`` is not a peer, on transport
                shutdown, or — as the typed
                :class:`~repro.core.errors.ChoreoTimeout` subclass — when the
                configured receive timeout elapses with no message.
        """
        self._require_peer(sender, "sender")
        instance, data = self._recv_frame(sender)
        return instance, deserialize(data)

    def recv(self, sender: Location) -> Any:
        """Return the next payload from ``sender`` (per-pair FIFO order)."""
        return self.recv_tagged(sender)[1]

    def use_stats(self, stats: ChannelStats) -> None:
        """Redirect this endpoint's send-side accounting to ``stats``.

        Message statistics are recorded on the sending side, so pointing one
        endpoint at a different sink re-attributes exactly that location's
        sends.  :class:`repro.runtime.engine.ChoreoEngine` uses this to tee
        each send into both the transport's cumulative stats and the current
        run's per-instance delta.  Only the (single) thread driving this
        endpoint may call it.
        """
        self._stats = stats


class ForwardingEndpoint(TransportEndpoint):
    """An endpoint wrapper that delegates everything to an inner endpoint.

    The base class of the wrapper pattern: a layer that decorates an
    endpoint's behaviour (fault injection,
    :class:`repro.faults.FaultyEndpoint`; instrumentation) subclasses this
    and overrides the frame primitives it intercepts.  The wrapper is the
    endpoint callers hold, so its inherited :meth:`send` / :meth:`recv`
    encode and count; the wrapped endpoint only ever moves the frames.
    Everything else, including attributes this base does not know about (a
    TCP endpoint's ``port``, its ``close``), forwards to the wrapped
    endpoint, so a wrapper can stand in for it anywhere the transport or
    engine passes one around.
    """

    def __init__(self, inner: TransportEndpoint):
        super().__init__(inner.location, inner._transport)
        self._inner = inner

    def _send_frame(self, receivers: Sequence[Location], data: bytes, instance: int) -> None:
        self._inner._send_frame(receivers, data, instance)

    def _recv_frame(self, sender: Location) -> Tuple[int, bytes]:
        return self._inner._recv_frame(sender)

    def flush(self) -> None:
        self._inner.flush()

    def __getattr__(self, name: str) -> Any:
        if name == "_inner":  # guard: never recurse while half-constructed
            raise AttributeError(name)
        return getattr(self._inner, name)


class CoalescingEndpoint(TransportEndpoint):
    """Shared write-buffer machinery for coalescing endpoints (Local/TCP).

    Subclasses call :meth:`_enqueue` with the opaque buffer items one frame
    contributes and its byte size, and implement :meth:`_deliver` to move a
    drained batch to its receiver (one writev, one queue put, ...).  This
    class owns the per-receiver buffers, the pending-byte watermark, and the
    drain ordering:

    * ``_out_lock`` guards only the buffer dicts (appends stay cheap);
    * one drain lock **per receiver** serializes that receiver's
      pop-and-deliver, so two concurrent drains — e.g. a watermark drain
      racing an explicit :meth:`flush` from another thread — cannot invert
      batch order and break per-pair FIFO, while a slow delivery to one
      receiver (say, a TCP connect) never stalls drains to any other.
    """

    def __init__(self, location: Location, transport: "Transport"):
        super().__init__(location, transport)
        self._out_lock = threading.Lock()
        self._drain_locks: Dict[Location, threading.Lock] = {}
        self._out_buffers: Dict[Location, list] = {}
        self._out_pending: Dict[Location, int] = {}
        self._has_pending = False

    @abc.abstractmethod
    def _deliver(self, receiver: Location, batch: list) -> None:
        """Move one drained batch of buffered items to ``receiver``."""

    def _enqueue(self, receiver: Location, items: Iterable[Any], nbytes: int) -> None:
        """Buffer one frame's ``items``; drain past the watermark."""
        with self._out_lock:
            batch = self._out_buffers.get(receiver)
            if batch is None:
                batch = self._out_buffers[receiver] = []
                self._out_pending[receiver] = 0
            batch.extend(items)
            pending = self._out_pending[receiver] + nbytes
            self._out_pending[receiver] = pending
            self._has_pending = True
        if pending >= FLUSH_WATERMARK:
            self._drain_to(receiver)

    def _drain_to(self, receiver: Location) -> None:
        # Pop-and-deliver is atomic w.r.t. other drains *to this receiver*:
        # appends are never blocked, batches reach the receiver in pop order,
        # and a blocking delivery elsewhere cannot stall this channel.
        with self._out_lock:
            drain_lock = self._drain_locks.get(receiver)
            if drain_lock is None:
                drain_lock = self._drain_locks[receiver] = threading.Lock()
        with drain_lock:
            with self._out_lock:
                batch = self._out_buffers.pop(receiver, None)
                self._out_pending.pop(receiver, None)
                if not self._out_buffers:
                    self._has_pending = False
            if batch:
                self._deliver(receiver, batch)

    def flush(self) -> None:
        """Drain every pending write buffer, one batch per receiver."""
        if not self._has_pending:
            return
        with self._out_lock:
            receivers = list(self._out_buffers)
        for receiver in receivers:
            self._drain_to(receiver)

    def _discard_buffers(self) -> None:
        """Drop everything pending (endpoint shutdown)."""
        with self._out_lock:
            self._out_buffers.clear()
            self._out_pending.clear()
            self._has_pending = False


class Transport(abc.ABC):
    """A communication substrate connecting a fixed census of locations."""

    def __init__(self, census: LocationsLike, timeout: float = DEFAULT_TIMEOUT):
        self.census: Census = as_census(census).require_nonempty()
        self.stats = ChannelStats()
        self.timeout = timeout
        self._endpoints: Dict[Location, TransportEndpoint] = {}
        #: The live ChoreoEngine driving this transport, if any: cached
        #: endpoints and the instance-id space are single-session resources.
        self._engine_lease: Optional[object] = None

    @abc.abstractmethod
    def _make_endpoint(self, location: Location) -> TransportEndpoint:
        """Create the endpoint object for ``location``."""

    def endpoint(self, location: Location) -> TransportEndpoint:
        """Return (creating if necessary) the endpoint for ``location``.

        Endpoints are cached: every caller for one location shares one
        endpoint object, which is why a transport can serve at most one live
        :class:`~repro.runtime.engine.ChoreoEngine` at a time (the engine
        lease).

        Args:
            location: A census member.

        Returns:
            The (possibly newly created) endpoint.

        Raises:
            CensusError: If ``location`` is not in this transport's census.
        """
        self.census.require_member(location)
        if location not in self._endpoints:
            self._endpoints[location] = self._make_endpoint(location)
        return self._endpoints[location]

    def close(self) -> None:
        """Release any resources held by the transport (sockets, threads).

        Idempotent.  Payloads still sitting in coalescing write buffers are
        discarded — flush before closing when they matter.
        """

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *_exc: Any) -> Optional[bool]:
        self.close()
        return None
