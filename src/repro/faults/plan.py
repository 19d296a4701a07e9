"""The :class:`FaultPlan` DSL: seedable, deterministic fault schedules.

A chaos test is only useful if a failing run can be *replayed*.  The plan
therefore never draws from a shared mutable RNG — every injection decision is
a pure function of ``(seed, fault kind, sender, receiver, per-channel message
index)``, derived through the same :func:`repro.protocols.crypto.party_rng`
hashing discipline the protocol case studies use for reproducible "local
randomness".  Thread interleavings cannot perturb the decisions: each
endpoint's operation sequence determines its own injections, whatever the
other endpoints are doing at the time.

A plan is a passive description.  Each transport that is built with
``faults=plan`` opens its own :class:`FaultSession` — the mutable half that
owns the event log and wraps endpoints in
:class:`~repro.faults.inject.FaultyEndpoint` — so one plan can parameterize
every shard of a cluster (or two runs of the same experiment) without the
runs sharing state.

Four fault families are supported, mirroring what actually goes wrong under
a production KVS:

* :meth:`FaultPlan.delay` — per-channel message delay jitter;
* :meth:`FaultPlan.reorder` — bounded reorder across *independent* channels
  only (per-pair FIFO is never violated: a held frame is released before any
  later frame to the same receiver is forwarded);
* :meth:`FaultPlan.crash` — a location dies at its N-th transport operation
  (or at a virtual time, on the simulated backend) and stays dead;
* :meth:`FaultPlan.flaky_connect` — the first sends on a channel fail
  transiently, either retried inside the wrapper (transparent, logged) or
  surfaced to the caller when the retry budget is exhausted.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..core.errors import ChoreographyError
from ..core.locations import Location
from ..protocols.crypto import party_rng

#: The wildcard matching any location in a channel pattern.
ANY = "*"


class CrashFault(ChoreographyError):
    """A fault plan killed this location; every transport operation raises.

    Deliberately *not* a :class:`~repro.core.errors.TransportError`: the
    engine's root-cause selection reports non-transport failures first, so a
    crashed location is named as the root cause of a failed instance rather
    than the receive timeouts it induces at its peers.
    """

    def __init__(self, location: Location, step: int):
        self.location = location
        self.step = step
        super().__init__(
            f"location {location!r} crashed by fault plan at transport step {step}"
        )


def _match(pattern: str, location: Location) -> bool:
    return pattern == ANY or pattern == location


def _require_rate(rate: float) -> float:
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be within [0, 1], got {rate!r}")
    return float(rate)


@dataclass(frozen=True)
class DelayRule:
    """Add up to ``jitter`` virtual/real seconds to matching sends."""

    sender: str
    receiver: str
    jitter: float
    rate: float


@dataclass(frozen=True)
class ReorderRule:
    """Hold matching sends back up to ``span`` later operations."""

    sender: str
    receiver: str
    rate: float
    span: int


@dataclass(frozen=True)
class CrashRule:
    """Kill ``location`` after ``after_ops`` operations or at ``at_time``."""

    location: Location
    after_ops: Optional[int]
    at_time: Optional[float]


@dataclass(frozen=True)
class FlakyRule:
    """Fail the first ``failures`` send attempts on matching channels."""

    sender: str
    receiver: str
    failures: int
    rate: float
    max_retries: int


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, as recorded in the session log.

    ``step`` is the injecting endpoint's own operation counter, so the events
    *of one location* are totally ordered however the worker threads
    interleave — which is what makes two same-seed runs comparable.
    """

    kind: str  #: "delay" | "reorder" | "crash" | "connect-fail" | "restart"
    location: Location  #: the endpoint the fault fired at
    #: The channel's other end: one location for unicast faults, the tuple
    #: of receivers for a broadcast delay, ``None`` for crashes.
    peer: "Optional[Location] | tuple"
    step: int  #: the location's transport-operation counter at injection
    detail: Any = None  #: delay seconds, hold span, or attempt number


class FaultPlan:
    """A seedable, chainable description of the faults to inject.

    Example::

        plan = (FaultPlan(seed=7)
                .delay(jitter=0.5, rate=0.3)                # any channel
                .reorder(rate=0.2, span=3)
                .crash("shard0.r1", after_ops=120)
                .flaky_connect("client", "shard0.r0", failures=2))

    The plan is passed to a backend as ``faults=plan`` (``simulated`` and
    ``tcp`` accept it, directly or through
    :class:`~repro.runtime.engine.ChoreoEngine` /
    :class:`~repro.cluster.ClusterEngine` backend options); the transport
    opens a :class:`FaultSession` and exposes it as ``transport.faults``.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self.delays: List[DelayRule] = []
        self.reorders: List[ReorderRule] = []
        self.crashes: Dict[Location, CrashRule] = {}
        self.flakes: List[FlakyRule] = []

    # ------------------------------------------------------------------ builder --

    def delay(
        self, sender: str = ANY, receiver: str = ANY, *, jitter: float, rate: float = 1.0
    ) -> "FaultPlan":
        """Add up to ``jitter`` seconds (virtual on ``simulated``, real on
        ``tcp``) to each matching send, with probability ``rate`` per message.
        """
        if jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {jitter!r}")
        self.delays.append(DelayRule(sender, receiver, float(jitter), _require_rate(rate)))
        return self

    def reorder(
        self, sender: str = ANY, receiver: str = ANY, *, rate: float, span: int = 3
    ) -> "FaultPlan":
        """Hold matching sends back for up to ``span`` of the sender's later
        operations, letting traffic to *other* receivers overtake them.
        Per-pair FIFO is preserved: a held frame is always released before
        any newer frame to the same receiver goes out, and everything held is
        released before the endpoint blocks in a receive or flushes.

        Applies to *unicast* sends only: a serialize-once broadcast
        (``send_many`` to two or more receivers) is one indivisible wire
        moment and is never held —
        point a reorder rule at channels that carry point-to-point traffic
        (with one backup, replication fan-outs are plain sends; with two or
        more they go out as broadcasts and only delay/crash rules touch
        them).
        """
        if span < 1:
            raise ValueError(f"span must be >= 1, got {span!r}")
        self.reorders.append(ReorderRule(sender, receiver, _require_rate(rate), int(span)))
        return self

    def crash(
        self,
        location: Location,
        *,
        after_ops: Optional[int] = None,
        at_time: Optional[float] = None,
    ) -> "FaultPlan":
        """Kill ``location`` (no wildcard) after it completes ``after_ops``
        transport operations — its ``after_ops + 1``-th operation raises, so
        ``after_ops=0`` means dead on arrival — or once its virtual clock
        reaches ``at_time`` (simulated backend only).  Exactly one trigger
        must be given.  A crashed endpoint raises :class:`CrashFault` on
        every send and receive from then on; its buffered writes are
        silently lost, as a dead process's would be.
        """
        if location == ANY:
            raise ValueError("crash targets one concrete location, not a wildcard")
        if (after_ops is None) == (at_time is None):
            raise ValueError("crash needs exactly one of after_ops= or at_time=")
        if after_ops is not None and after_ops < 0:
            raise ValueError(f"after_ops must be >= 0, got {after_ops!r}")
        if location in self.crashes:
            raise ValueError(f"location {location!r} already has a crash rule")
        self.crashes[location] = CrashRule(location, after_ops, at_time)
        return self

    def flaky_connect(
        self,
        sender: str = ANY,
        receiver: str = ANY,
        *,
        failures: int = 1,
        rate: float = 1.0,
        max_retries: int = 3,
    ) -> "FaultPlan":
        """Fail the first ``failures`` *unicast* send attempts on each
        matching channel (a transiently unreachable peer); like
        :meth:`reorder`, broadcasts are exempt.  Each failed attempt is logged;
        the wrapper retries immediately up to ``max_retries`` times per send,
        so with ``max_retries >= failures`` the fault is transparent to the
        caller (and the channel's :class:`~repro.runtime.stats.ChannelStats`
        stay exact — the message is recorded once, on the attempt that
        lands).  With a smaller budget the send raises
        :class:`~repro.core.errors.TransportError`, exercising caller-side
        retry paths such as :class:`~repro.cluster.ClusterClient`'s.
        """
        if failures < 1:
            raise ValueError(f"failures must be >= 1, got {failures!r}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries!r}")
        self.flakes.append(
            FlakyRule(sender, receiver, int(failures), _require_rate(rate), int(max_retries))
        )
        return self

    # ------------------------------------------------------- decision functions --
    #
    # Pure functions of (seed, kind, channel, index): no shared RNG state, so
    # decisions are immune to thread interleaving and identical across runs.

    def _rng(self, kind: str, sender: str, receiver: str, index: int):
        return party_rng(self.seed, sender, f"fault|{kind}|{receiver}|{index}")

    def delay_for(self, sender: Location, receiver: Location, index: int) -> float:
        """The injected delay (seconds, possibly 0) for a channel's
        ``index``-th message; the first matching rule decides."""
        for rule in self.delays:
            if _match(rule.sender, sender) and _match(rule.receiver, receiver):
                rng = self._rng("delay", sender, receiver, index)
                if rng.random() < rule.rate:
                    return rng.random() * rule.jitter
                return 0.0
        return 0.0

    def reorder_hold(self, sender: Location, receiver: Location, index: int) -> int:
        """How many of the sender's later operations the channel's
        ``index``-th message is held back for (0 = not held)."""
        for rule in self.reorders:
            if _match(rule.sender, sender) and _match(rule.receiver, receiver):
                rng = self._rng("reorder", sender, receiver, index)
                if rng.random() < rule.rate:
                    return rng.randint(1, rule.span)
                return 0
        return 0

    def crash_rule_for(self, location: Location) -> Optional[CrashRule]:
        """The crash rule targeting ``location``, if any."""
        return self.crashes.get(location)

    def flaky_rule_for(self, sender: Location, receiver: Location) -> Optional[FlakyRule]:
        """The (first matching, per-channel-activated) flaky-connect rule.

        Whether a rule with ``rate < 1`` applies to a given channel is itself
        a seeded per-channel decision, so the set of flaky channels is stable
        across runs.
        """
        for rule in self.flakes:
            if _match(rule.sender, sender) and _match(rule.receiver, receiver):
                if rule.rate >= 1.0:
                    return rule
                rng = self._rng("flaky", sender, receiver, 0)
                return rule if rng.random() < rule.rate else None
        return None

    # ---------------------------------------------------------------- sessions --

    def session(self) -> "FaultSession":
        """Open a fresh mutable session (event log + endpoint wrapping)."""
        return FaultSession(self)

    def __repr__(self) -> str:
        return (
            f"FaultPlan(seed={self.seed}, delays={len(self.delays)}, "
            f"reorders={len(self.reorders)}, crashes={sorted(self.crashes)}, "
            f"flaky={len(self.flakes)})"
        )


class FaultSession:
    """One transport's worth of live fault state: the log, and the wrappers.

    Created by :meth:`FaultPlan.session` (transports do this when built with
    ``faults=``).  The log is the *schedule witness*: two runs of the same
    seeded workload are considered schedule-identical when their
    :meth:`schedule` values match.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._events: List[FaultEvent] = []
        self._wrapped: List[Any] = []

    def record(
        self,
        kind: str,
        location: Location,
        peer: Optional[Location],
        step: int,
        detail: Any = None,
    ) -> None:
        """Append one injected-fault event (called by the endpoint wrappers)."""
        with self._lock:
            self._events.append(FaultEvent(kind, location, peer, step, detail))

    @property
    def events(self) -> Tuple[FaultEvent, ...]:
        """A snapshot of every event logged so far, in arrival order.

        Arrival order interleaves locations nondeterministically; use
        :meth:`schedule` for run-to-run comparison.
        """
        with self._lock:
            return tuple(self._events)

    def events_at(self, location: Location) -> Tuple[FaultEvent, ...]:
        """The events injected at one location, in that location's step order."""
        return tuple(
            sorted(
                (event for event in self.events if event.location == location),
                key=lambda event: event.step,
            )
        )

    def schedule(self) -> Tuple[Tuple[Any, ...], ...]:
        """A canonical, thread-order-independent view of the whole log.

        Events are keyed by ``(location, step)`` — each location's step
        counter is private to its single driving thread — so two runs with
        the same seed and workload produce the *same* schedule tuple, and a
        regression that changes message timing shows up as a schedule diff.
        """
        return tuple(
            sorted(
                (event.location, event.step, event.kind, event.peer, event.detail)
                for event in self.events
            )
        )

    def wrap(self, endpoint, *, delay_fn=None, clock_fn=None):
        """Wrap ``endpoint`` in a :class:`~repro.faults.inject.FaultyEndpoint`.

        Args:
            endpoint: Any :class:`~repro.runtime.transport.TransportEndpoint`.
            delay_fn: How to realize an injected delay; defaults to
                ``time.sleep``.  The simulated backend passes a virtual-clock
                advance instead.
            clock_fn: A zero-argument current-time callable for
                ``crash(at_time=...)`` rules; required when the plan holds
                one for this endpoint's location (the simulated backend
                passes its virtual clock).
        """
        from .inject import FaultyEndpoint

        wrapper = FaultyEndpoint(endpoint, self, delay_fn=delay_fn, clock_fn=clock_fn)
        with self._lock:
            self._wrapped.append(wrapper)
        return wrapper

    def revive(self, location: Location) -> int:
        """Restart every crashed endpoint wrapper at ``location``.

        The recovery half of :meth:`FaultPlan.crash`: the cluster's
        :meth:`~repro.cluster.ClusterEngine.rejoin_backup` calls this before
        running the catch-up choreography, modelling the dead process coming
        back up and re-opening its sockets.  Each restart is logged as a
        ``"restart"`` event, so a crash→restart pair is visible (and
        schedule-comparable) in the session log.  Call only while the
        location is quiescent — see :meth:`FaultyEndpoint.restart`.

        Returns:
            How many endpoints actually transitioned from crashed to alive.
        """
        with self._lock:
            targets = [
                wrapper for wrapper in self._wrapped if wrapper.location == location
            ]
        return sum(1 for wrapper in targets if wrapper.restart())

    def __repr__(self) -> str:
        return f"FaultSession(plan={self.plan!r}, events={len(self.events)})"
