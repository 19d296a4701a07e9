"""Fault injection at the transport seam: :class:`FaultyEndpoint`.

The wrapper works at frame level, like the simulated network's clock-stamping
endpoint: it subclasses :class:`~repro.runtime.transport.ForwardingEndpoint`
and intercepts the two frame primitives (``_send_frame`` / ``_recv_frame``,
one op-counter tick per call) plus ``flush``.  Peer checks, serialization and
:class:`~repro.runtime.stats.ChannelStats` accounting happen once, in the
``send``/``send_many``/``recv`` it inherits, so what it holds, delays or drops
is already-encoded bytes.  Because it sits *above* the real endpoint, the
wrapped transport's own guarantees — per-pair FIFO delivery, the
flush-before-block rule — are preserved by construction wherever the wrapper
forwards, and the wrapper is careful to keep them where it interferes:

* a **held (reordered) frame** is released before any newer frame to the
  same receiver is forwarded (FIFO per pair), and everything held is released
  on :meth:`FaultyEndpoint.flush` and before a blocking receive (the
  flush-before-block rule, which keeps injected reordering deadlock-free);
* a **transient connect failure** raises out of ``_send_frame``, so the frame
  was not accepted and a retried message is recorded in
  :class:`~repro.runtime.stats.ChannelStats` exactly once, by the attempt
  that lands;
* a **held frame was accepted**, so it is counted when sent — like any
  coalesced frame still in a write buffer at ``close()`` — even if a later
  crash of its sender discards it;
* a **crash** makes every subsequent send/receive raise
  :class:`~repro.faults.plan.CrashFault`, while ``flush`` becomes a safe
  no-op — a dead location must never be able to wedge the engine worker
  that hosts it (its Future resolves with the crash, not never).

One worker thread drives each endpoint (the engine's invariant), so the
wrapper's counters need no locking, and — because every injection decision is
a pure function of the plan seed and per-channel indices — neither thread
scheduling nor wall-clock timing can change what gets injected.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.errors import TransportError
from ..core.locations import Location
from ..runtime.transport import ForwardingEndpoint, TransportEndpoint
from .plan import CrashFault, CrashRule, FaultSession

#: One held (reordered) frame: release-step deadline, payload bytes, instance.
_Held = Tuple[int, bytes, int]


class FaultyEndpoint(ForwardingEndpoint):
    """Injects a :class:`~repro.faults.plan.FaultPlan`'s faults into one endpoint.

    Built via :meth:`repro.faults.plan.FaultSession.wrap`; transports accept
    the plan through their ``faults=`` option and wrap every endpoint they
    hand out.
    """

    def __init__(
        self,
        inner: TransportEndpoint,
        session: FaultSession,
        *,
        delay_fn: Optional[Callable[[float], None]] = None,
        clock_fn: Optional[Callable[[], float]] = None,
    ):
        super().__init__(inner)
        self._session = session
        self._plan = session.plan
        self._delay_fn = delay_fn if delay_fn is not None else time.sleep
        self._clock_fn = clock_fn
        self._crash_rule: Optional[CrashRule] = self._plan.crash_rule_for(self.location)
        if (
            self._crash_rule is not None
            and self._crash_rule.at_time is not None
            and clock_fn is None
        ):
            raise ValueError(
                f"crash(at_time=...) for {self.location!r} needs a clock; only the "
                "simulated backend provides one — use after_ops= elsewhere"
            )
        self._step = 0
        self._crashed_at: Optional[int] = None
        self._send_index: Dict[Location, int] = {}
        self._flaky_failed: Dict[Location, int] = {}
        self._held: Dict[Location, List[_Held]] = {}

    # ------------------------------------------------------------------ plumbing --

    def _tick(self) -> None:
        """Advance the op counter; crash if due; release expired holds."""
        self._step += 1
        if self._crashed_at is not None:
            raise CrashFault(self.location, self._crashed_at)
        rule = self._crash_rule
        if rule is not None:
            due = (rule.after_ops is not None and self._step > rule.after_ops) or (
                rule.at_time is not None and self._clock_fn() >= rule.at_time
            )
            if due:
                self._crashed_at = self._step
                self._held.clear()  # a dead process's buffered writes are lost
                self._session.record("crash", self.location, None, self._step)
                raise CrashFault(self.location, self._crashed_at)
        self._release_due()

    def _release_due(self) -> None:
        """Forward every held frame whose hold span has expired.

        Only each receiver's *prefix* of expired frames is released: a held
        frame never overtakes an older held frame to the same receiver, so a
        later frame that drew a shorter span simply waits (its effective hold
        stretches) and per-pair FIFO survives.
        """
        for receiver in list(self._held):
            frames = self._held[receiver]
            while frames and frames[0][0] <= self._step:
                _release_at, data, instance = frames.pop(0)
                self._inner._send_frame((receiver,), data, instance)
            if not frames:
                del self._held[receiver]

    def _release(self, receiver: Location) -> None:
        """Forward everything held for ``receiver`` (a newer frame is coming)."""
        frames = self._held.pop(receiver, None)
        if frames:
            for _release_at, data, instance in frames:
                self._inner._send_frame((receiver,), data, instance)

    def _release_all(self) -> None:
        for receiver in list(self._held):
            self._release(receiver)

    def _next_send_index(self, receiver: Location) -> int:
        index = self._send_index.get(receiver, 0)
        self._send_index[receiver] = index + 1
        return index

    def _flaky(self, receiver: Location) -> None:
        """Inject transient connect failures for this channel, if planned.

        Each failed attempt is logged with the channel's cumulative failed-
        attempt count as its detail.
        """
        rule = self._plan.flaky_rule_for(self.location, receiver)
        if rule is None:
            return
        retries = 0
        while self._flaky_failed.get(receiver, 0) < rule.failures:
            failed = self._flaky_failed.get(receiver, 0) + 1
            self._flaky_failed[receiver] = failed
            self._session.record(
                "connect-fail", self.location, receiver, self._step, failed
            )
            if retries >= rule.max_retries:
                raise TransportError(
                    f"transient connect failure from {self.location!r} to "
                    f"{receiver!r} (attempt {failed} of {rule.failures} planned)"
                )
            retries += 1

    def _delay(self, receiver: Location, index: int) -> None:
        seconds = self._plan.delay_for(self.location, receiver, index)
        if seconds > 0.0:
            self._session.record("delay", self.location, receiver, self._step, seconds)
            self._delay_fn(seconds)

    # ----------------------------------------------------------------- outgoing --

    def _send_frame(self, receivers: Sequence[Location], data: bytes, instance: int) -> None:
        self._tick()
        if len(receivers) != 1:
            self._broadcast(receivers, data, instance)
            return
        (receiver,) = receivers
        index = self._next_send_index(receiver)
        self._release(receiver)  # FIFO: older held frames go out first
        self._flaky(receiver)
        self._delay(receiver, index)
        hold = self._plan.reorder_hold(self.location, receiver, index)
        if hold > 0:
            self._session.record("reorder", self.location, receiver, self._step, hold)
            self._held.setdefault(receiver, []).append((self._step + hold, data, instance))
        else:
            self._inner._send_frame(receivers, data, instance)

    def _broadcast(self, targets: Sequence[Location], data: bytes, instance: int) -> None:
        # Broadcasts ride the inner one-item / one-header path undivided: they
        # are subject to crash and delay (the largest per-target draw, so the
        # shared wire moment is charged once), but not to reorder/flaky,
        # which are per-channel by nature.
        seconds = 0.0
        for receiver in targets:
            self._release(receiver)
            index = self._next_send_index(receiver)
            seconds = max(seconds, self._plan.delay_for(self.location, receiver, index))
        if seconds > 0.0:
            self._session.record("delay", self.location, tuple(targets), self._step, seconds)
            self._delay_fn(seconds)
        self._inner._send_frame(targets, data, instance)

    # ----------------------------------------------------------------- incoming --

    def _recv_frame(self, sender: Location) -> Tuple[int, bytes]:
        self._tick()
        self._release_all()  # flush-before-block: held frames must be in flight
        return self._inner._recv_frame(sender)

    # ---------------------------------------------------------------- lifecycle --

    def flush(self) -> None:
        """Release holds and drain the inner endpoint; a no-op once crashed.

        Crash semantics: whatever a dead location had buffered is lost, and
        — just as important for liveness — the engine worker's instance-
        boundary flush must not raise, or a crashed location could wedge
        every later instance's Future.
        """
        if self._crashed_at is not None:
            return
        self._release_all()
        self._inner.flush()

    @property
    def crashed(self) -> bool:
        """Whether this endpoint's crash rule has fired."""
        return self._crashed_at is not None

    def restart(self) -> bool:
        """Clear a fired crash, as a restarted process re-opening its sockets.

        The crash rule is consumed: a restarted location is not re-killed by
        the rule that killed it (a plan that wants repeated deaths schedules
        them on separate locations).  Held frames were already discarded at
        crash time — a dead process's buffered writes stay lost — and the
        operation counter keeps running, so later per-channel fault decisions
        remain the pure seeded functions they were before the crash.

        Call this only while the endpoint's worker is quiescent (nothing
        in flight for its location): the counters are single-threaded by the
        one-worker-per-endpoint invariant, and a restart races with nothing
        only when the location has no instance running.

        Returns:
            True when a crash was actually cleared; False when the endpoint
            was alive (the call is then a no-op).
        """
        if self._crashed_at is None:
            return False
        self._crashed_at = None
        self._crash_rule = None
        self._session.record("restart", self.location, None, self._step)
        return True
