"""A deterministic simulated-network transport.

The paper's efficiency story is about message *counts*; deployments also care
about *latency*, which depends on how messages overlap.  This transport wraps
:class:`~repro.runtime.local.LocalTransport` and charges a configurable
per-message delay and per-byte bandwidth cost on the **receiving** side, using
a virtual clock per endpoint: an endpoint's clock advances to
``max(own clock, sender's clock at send time) + latency + bytes/bandwidth``
whenever it receives.  The maximum endpoint clock after a run is the critical
path length — a simple but useful proxy for protocol latency that lets the
benchmarks compare, e.g., how the sequential OT chains of GMW dominate its
runtime while the KVS's fan-outs overlap.

Accounting matches the real transports byte-for-byte.  This endpoint is a
frame-level wrapper: the shared :class:`~repro.runtime.transport.TransportEndpoint`
surface serializes each payload exactly once and records its length, and the
two primitives here only put the sender's virtual clock in front of those
bytes as a fixed-width stamp (and take it off again), so the
:class:`~repro.runtime.stats.ChannelStats` entry and the receive-side
bandwidth charge both use the *unstamped* wire length — the same bytes TCP
frames on the wire — and a choreography run here is directly comparable to
(and a property test pins it equal to) the same run on the coalescing
local/TCP transports.

``flush`` forwards to the inner endpoint, and a receive flushes the inner
endpoint's buffers before blocking, so the deferred-flush semantics (and the
flush-before-block deadlock-freedom rule) carry over unchanged.
"""

from __future__ import annotations

import struct
import threading
from typing import Any, Dict, Sequence, Tuple

from ..core.locations import Location, LocationsLike
from .local import LocalTransport
from .transport import DEFAULT_TIMEOUT, Transport, TransportEndpoint

#: The virtual send time, in front of every frame's payload bytes.
_STAMP = struct.Struct("!d")


class _SimulatedEndpoint(TransportEndpoint):
    """Wraps a queue endpoint, stamping frames with virtual send times."""

    def __init__(self, inner: TransportEndpoint, transport: "SimulatedNetworkTransport"):
        super().__init__(inner.location, transport)
        self._inner = inner

    def _send_frame(self, receivers: Sequence[Location], data: bytes, instance: int) -> None:
        # All deliveries of a multicast share one send time, so the stamped
        # frame rides the inner transport's one-item broadcast undivided.
        stamp = _STAMP.pack(self._transport.clock_of(self.location))
        self._inner._send_frame(receivers, stamp + data, instance)

    def flush(self) -> None:
        """Drain the inner endpoint's deferred writes."""
        self._inner.flush()

    def _recv_frame(self, sender: Location) -> Tuple[int, bytes]:
        # The inner receive flushes the inner buffers before blocking.
        instance, stamped = self._inner._recv_frame(sender)
        (send_time,) = _STAMP.unpack_from(stamped)
        data = stamped[_STAMP.size:]
        cost = self._transport.latency + len(data) / self._transport.bandwidth
        self._transport.advance_clock(self.location, send_time + cost)
        return instance, data


class SimulatedNetworkTransport(Transport):
    """A local transport with a virtual latency/bandwidth model.

    Parameters
    ----------
    latency:
        Virtual seconds added to every message (propagation + handshake).
    bandwidth:
        Virtual bytes per virtual second (serialisation cost of large payloads).
    faults:
        An optional :class:`repro.faults.FaultPlan`.  Every endpoint is then
        wrapped in a :class:`repro.faults.FaultyEndpoint` injecting the
        plan's delays, reorders, crashes, and connect flakes.  Injected
        delays are charged to the sender's *virtual* clock (no real sleep),
        and crash-at-time rules read the virtual clock, so a seeded plan
        reproduces the identical message schedule on every run — this is the
        deterministic chaos-testing backend (see ``docs/testing.md``).  The
        live :class:`repro.faults.FaultSession` is exposed as :attr:`faults`.
    """

    def __init__(
        self,
        census: LocationsLike,
        *,
        latency: float = 1.0,
        bandwidth: float = 1_000_000.0,
        timeout: float = DEFAULT_TIMEOUT,
        faults: "Any | None" = None,
    ):
        super().__init__(census, timeout)
        if latency < 0 or bandwidth <= 0:
            raise ValueError("latency must be >= 0 and bandwidth > 0")
        self.latency = latency
        self.bandwidth = bandwidth
        self._inner = LocalTransport(census, timeout=timeout)
        self._clocks: Dict[Location, float] = {location: 0.0 for location in self.census}
        self._clock_lock = threading.Lock()
        self.faults = faults.session() if faults is not None else None

    # -- virtual time ----------------------------------------------------------------

    def clock_of(self, location: Location) -> float:
        """The current virtual time at ``location``."""
        with self._clock_lock:
            return self._clocks[location]

    def advance_clock(self, location: Location, at_least: float) -> None:
        """Advance ``location``'s virtual clock to at least ``at_least``."""
        with self._clock_lock:
            self._clocks[location] = max(self._clocks[location], at_least)

    @property
    def critical_path(self) -> float:
        """The largest endpoint clock: the virtual latency of the whole run."""
        with self._clock_lock:
            return max(self._clocks.values()) if self._clocks else 0.0

    def clocks(self) -> Dict[Location, float]:
        """A copy of every endpoint's virtual clock."""
        with self._clock_lock:
            return dict(self._clocks)

    # -- transport plumbing ----------------------------------------------------------

    def _make_endpoint(self, location: Location) -> TransportEndpoint:
        endpoint: TransportEndpoint = _SimulatedEndpoint(self._inner.endpoint(location), self)
        if self.faults is not None:
            # Injected delays advance the sender's virtual clock instead of
            # sleeping, so the next stamped send time carries the jitter;
            # crash-at-time rules read the same clock.
            endpoint = self.faults.wrap(
                endpoint,
                delay_fn=lambda seconds, loc=location: self.advance_clock(
                    loc, self.clock_of(loc) + seconds
                ),
                clock_fn=lambda loc=location: self.clock_of(loc),
            )
        return endpoint

    def close(self) -> None:
        self._inner.close()
