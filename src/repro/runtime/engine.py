"""Persistent execution sessions: one API for every backend.

The paper's case studies all ship a one-shot "main method": resolve a
transport, materialize endpoints, spawn one thread per location, run, tear
everything down.  That shape cannot serve sustained traffic — a KVS or
bookstore answering a stream of requests must not pay transport setup and
thread spawn per choreography instance.  :class:`ChoreoEngine` is the
session-shaped replacement:

* the engine owns a **warm backend** (a transport with live endpoints, or the
  centralized reference semantics) and one **long-lived daemon worker thread
  per location**, created once;
* :meth:`ChoreoEngine.run` executes one choreography instance and returns a
  :class:`ChoreographyResult` whose ``stats`` are the **per-run delta**, not
  the session's cumulative counts (those stay on :attr:`ChoreoEngine.stats`);
* :meth:`ChoreoEngine.submit` enqueues an instance without waiting, returning
  a :class:`concurrent.futures.Future`, so independent instances **pipeline**
  through the same warm session.  Messages are tagged with an instance id
  (:class:`~repro.core.epp.InstanceScopedEndpoint`) so instances never
  interleave even when locations progress at different speeds;
* a backend is one of five names — ``"local"``, ``"tcp"``, ``"asyncio"``,
  ``"simulated"``, ``"central"`` — or a pre-built
  :class:`~repro.runtime.transport.Transport` instance, which is how a custom
  transport plugs in.
"""

from __future__ import annotations

import logging
import queue
import threading
import time
from concurrent.futures import Future, InvalidStateError
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Union

from ..core.epp import InstanceScopedEndpoint, project
from ..core.errors import ChoreographyRuntimeError, TransportError
from ..core.located import Faceted, Located
from ..core.locations import Census, Location, LocationsLike, as_census
from ..core.ops import Choreography
from .central import CentralBackend, CentralOp, localize_return
from .local import LocalTransport
from .simulated import SimulatedNetworkTransport
from .stats import ChannelStats
from .tcp import TCPTransport
from .transport import DEFAULT_TIMEOUT, Transport, TransportEndpoint

#: The "no value" marker used internally by :class:`ChoreographyResult` so a
#: legitimate ``None`` return is distinguishable from an absent placeholder.
_NO_VALUE = object()

#: Hard ceiling (seconds, added to one ``2 * timeout`` grace) on how long
#: :meth:`ChoreoEngine.close` waits for workers beyond the per-instance
#: timeout.  The backlog-scaled deadline exists so a *healthy* queue of
#: submitted instances can drain, but scaling alone is unbounded: a census
#: wedged on a dead peer with thousands of pipelined submissions queued
#: behind it would make ``close()`` wait ``timeout * 2 * (backlog + 1)``
#: seconds — hours — for workers that will never finish.  Daemon workers are
#: abandoned (and logged) at the cap instead; they cannot outlive the
#: process.
CLOSE_DEADLINE_CAP = 60.0

logger = logging.getLogger("repro.runtime.engine")


#: Backend name → ``factory(census, timeout=..., **options)``.
_BACKENDS = {
    "local": LocalTransport,
    "tcp": TCPTransport,
    "asyncio": TCPTransport,  # one selector transport under both names
    "simulated": SimulatedNetworkTransport,
    "central": CentralBackend,
}


@dataclass
class ChoreographyResult:
    """The outcome of one distributed execution of a choreography.

    ``stats`` holds the messages of *this run only*; a persistent engine's
    cumulative counts live on :attr:`ChoreoEngine.stats`.
    """

    census: Census
    returns: Dict[Location, Any]
    stats: ChannelStats
    elapsed_seconds: float = 0.0
    #: The engine instance id this run executed under (0 for one-shot runs).
    instance: int = 0

    def _unwrapped(self, location: Location) -> Any:
        """``location``'s return value, or ``_NO_VALUE`` for a placeholder.

        Presence is decided by ownership — a ``Located``/``Faceted`` wrapper
        that actually holds a value for ``location`` — never by comparing the
        value against ``None``, so a choreography legitimately returning
        ``None`` is still "present".
        """
        value = self.returns[location]
        if isinstance(value, Located):
            return value.peek() if value.is_present() else _NO_VALUE
        if isinstance(value, Faceted):
            facets = value.visible_facets()
            return facets[location] if location in facets else _NO_VALUE
        return value

    def has_value(self, location: Location) -> bool:
        """True when ``location`` returned an actual value, not a placeholder."""
        return self._unwrapped(location) is not _NO_VALUE

    def value_at(self, location: Location, default: Any = None) -> Any:
        """The endpoint return value at ``location``, unwrapping located values.

        Returns ``default`` when ``location`` holds only a placeholder; use
        :meth:`has_value` to tell a defaulted result from a real ``None``.
        """
        value = self._unwrapped(location)
        return default if value is _NO_VALUE else value

    def present_values(self) -> Dict[Location, Any]:
        """Every endpoint's unwrapped return value, skipping placeholders only."""
        unwrapped = {}
        for location in self.census:
            value = self._unwrapped(location)
            if value is not _NO_VALUE:
                unwrapped[location] = value
        return unwrapped


class _TeeStats:
    """Forwards ``record`` to several sinks (cumulative + per-run stats)."""

    __slots__ = ("_sinks",)

    def __init__(self, *sinks: Any):
        self._sinks = sinks

    def record(self, sender: Location, receiver: Location, nbytes: int) -> None:
        for sink in self._sinks:
            sink.record(sender, receiver, nbytes)

    def record_broadcast(
        self, sender: Location, receivers: Any, nbytes: int
    ) -> None:
        """Batched counterpart of :meth:`record`, one call per broadcast."""
        receivers = list(receivers)
        for sink in self._sinks:
            sink.record_broadcast(sender, receivers, nbytes)


class _EngineJob:
    """One submitted choreography instance, shared by its members' workers."""

    __slots__ = (
        "instance",
        "choreography",
        "args",
        "kwargs",
        "location_args",
        "census",
        "members",
        "stats",
        "future",
        "submitted",
        "started",
        "on_resolve",
        "_lock",
        "_remaining",
        "_returns",
        "_failures",
    )

    def __init__(
        self,
        instance: int,
        choreography: Choreography,
        args: Sequence[Any],
        kwargs: Dict[str, Any],
        location_args: Dict[Location, Sequence[Any]],
        census: Census,
        members: Census,
        workers: int,
    ):
        self.instance = instance
        self.choreography = choreography
        self.args = tuple(args)
        self.kwargs = kwargs
        self.location_args = location_args
        self.census = census
        #: The instance's participants; everyone else holds the conclave
        #: placeholder from the start and is never woken.
        self.members = members
        self.stats = ChannelStats()
        self.future: "Future[ChoreographyResult]" = Future()
        self.submitted = time.perf_counter()
        self.started: Optional[float] = None
        #: Called (once) just before the Future is resolved, so bookkeeping
        #: like the engine's pending count is already settled when a caller
        #: blocked in ``future.result()`` wakes up.
        self.on_resolve: Optional[Any] = None
        self._lock = threading.Lock()
        self._remaining = workers
        self._returns: Dict[Location, Any] = {} if members is census else dict.fromkeys(
            census.without(members), Located.absent(members))
        self._failures: Dict[Location, BaseException] = {}

    def args_for(self, location: Location) -> tuple:
        return self.args + tuple(self.location_args.get(location, ()))

    def mark_started(self) -> None:
        """Stamp the moment the first worker begins executing this instance,
        so ``elapsed_seconds`` measures run time, not queue wait."""
        with self._lock:
            if self.started is None:
                self.started = time.perf_counter()

    def unfinished_locations(self) -> "list[Location]":
        """Locations that have not reported a return or failure yet."""
        with self._lock:
            return [
                location
                for location in self.census
                if location not in self._returns and location not in self._failures
            ]

    def report(self, outcomes: Dict[Location, Any], failed: bool) -> None:
        """One worker's outcome: its location's return or failure (the
        centralized worker's is every member's return, or one failure)."""
        with self._lock:
            (self._failures if failed else self._returns).update(outcomes)
            self._remaining -= 1
            done = self._remaining == 0
        if done:
            self._resolve()

    def _resolve(self) -> None:
        if self.on_resolve is not None:
            self.on_resolve()
        elapsed = time.perf_counter() - (self.started or self.submitted)
        if self._failures:
            # A crash at one endpoint typically makes its peers time out
            # waiting for messages; report the root cause, not the induced
            # timeouts.  The full per-location failure bundle rides along so
            # failure handlers (e.g. cluster failover) can follow the chain
            # of timeout blames themselves.
            def root_cause_first(item):
                location, exc = item
                return (isinstance(exc, TransportError), location)

            location, original = sorted(self._failures.items(), key=root_cause_first)[0]
            outcome = ChoreographyRuntimeError(location, original, failures=self._failures)
            result = None
        else:
            outcome = None
            result = ChoreographyResult(
                census=self.census,
                returns=dict(self._returns),
                stats=self.stats,
                elapsed_seconds=elapsed,
                instance=self.instance,
            )
        try:
            if outcome is not None:
                self.future.set_exception(outcome)
            else:
                self.future.set_result(result)
        except InvalidStateError:
            # The caller cancelled the Future; the instance already ran — a
            # cancelled result must not take down the worker threads.
            pass


#: Queue label for the centralized backend's single worker.
_CENTRAL_WORKER = "<centralized>"


class ChoreoEngine:
    """A persistent execution session for choreographies over one census.

    Parameters
    ----------
    census:
        The locations participating in every choreography this engine runs.
    backend:
        A backend name (``"local"``, ``"tcp"``, ``"asyncio"``,
        ``"simulated"`` or ``"central"``) or a pre-built
        :class:`~repro.runtime.transport.Transport` /
        :class:`~repro.runtime.central.CentralBackend`; a custom transport
        plugs in as such an instance.  Pre-built backends are *borrowed*:
        :meth:`close` leaves them open.
    timeout:
        Seconds an endpoint waits on a receive before declaring failure.
    **backend_options:
        Extra keyword arguments forwarded to a named backend (e.g.
        ``latency=`` / ``bandwidth=`` for ``"simulated"``, or a
        ``faults=``:class:`~repro.faults.FaultPlan` for the ``"simulated"``
        and ``"tcp"`` backends — see ``docs/testing.md``).

    The engine is a context manager; leaving the ``with`` block shuts down
    the workers and closes an engine-owned backend.
    """

    def __init__(
        self,
        census: LocationsLike,
        backend: Union[str, Transport, CentralBackend] = "local",
        *,
        timeout: float = DEFAULT_TIMEOUT,
        **backend_options: Any,
    ):
        self.census = as_census(census).require_nonempty()
        self.timeout = timeout
        self._submit_lock = threading.Lock()
        self._next_instance = 0
        self._pending = 0
        self._closed = False

        if isinstance(backend, str):
            factory = _BACKENDS.get(backend)
            if factory is None:
                raise ValueError(
                    f"unknown transport/backend {backend!r}; choose from {sorted(_BACKENDS)}")
            resolved = factory(self.census, timeout=timeout, **backend_options)
            self.backend_name: str = backend
            self._owns_backend = True
        elif isinstance(backend, (Transport, CentralBackend)):
            if backend_options:
                raise ValueError(
                    "backend options apply to named backends only; configure a "
                    "pre-built backend before passing it in"
                )
            resolved = backend
            self.backend_name = type(backend).__name__
            self._owns_backend = False
        else:
            raise TypeError(
                f"backend must be a backend name, a Transport, or a "
                f"CentralBackend; got {type(backend).__name__}"
            )

        self._queues: Dict[str, "queue.SimpleQueue[Optional[_EngineJob]]"] = {}
        self._workers: list = []
        self._central: Optional[CentralBackend] = None
        self._transport: Optional[Transport] = None

        try:
            if isinstance(resolved, CentralBackend):
                self._central = resolved
                self.stats = resolved.stats
                self._spawn_worker(_CENTRAL_WORKER, self._central_worker)
            else:
                # Claim the transport for this session: its cached endpoints
                # and instance-id space cannot be shared by two live engines
                # without cross-delivering their messages.
                holder = getattr(resolved, "_engine_lease", None)
                if holder is not None:
                    raise ValueError(
                        "transport is already driven by another live ChoreoEngine; "
                        "close it first or give each session its own transport"
                    )
                resolved._engine_lease = self
                self._transport = resolved
                self.stats = resolved.stats
                resolved.census.require_subset(self.census)
                # Materialize every endpoint up front so transports that need a
                # rendezvous (e.g. TCP port discovery) are warm before any worker
                # starts sending — this is the setup cost paid exactly once.
                self._endpoints: Dict[Location, TransportEndpoint] = {
                    location: resolved.endpoint(location) for location in self.census
                }
                # Per-worker stashes for messages of future instances, kept on
                # the engine (not as worker locals) so the stash-purge
                # invariant — no keys ≤ a finished instance — is observable.
                self._stashes: Dict[Location, Dict[int, Dict[Location, Any]]] = {
                    location: {} for location in self.census
                }
                for location in self.census:
                    self._spawn_worker(location, self._endpoint_worker)
        except BaseException:
            # Half-built sessions must not leak sockets, threads, or the
            # transport lease: stop any workers already spawned and close an
            # engine-owned transport.
            self._closed = True
            for jobs in self._queues.values():
                jobs.put(None)
            if isinstance(resolved, Transport):
                if getattr(resolved, "_engine_lease", None) is self:
                    resolved._engine_lease = None
                if self._owns_backend:
                    resolved.close()
            raise

    def _spawn_worker(self, label: str, target) -> None:
        jobs: "queue.SimpleQueue[Optional[_EngineJob]]" = queue.SimpleQueue()
        self._queues[label] = jobs
        # Daemon threads: a deadlocked or runaway choreography must never be
        # able to block interpreter exit after its timeout has fired.
        worker = threading.Thread(
            target=target, args=(label, jobs), name=f"engine-{label}", daemon=True
        )
        self._workers.append(worker)
        worker.start()

    # ---------------------------------------------------------------- surface --

    @property
    def transport(self) -> Optional[Transport]:
        """The warm transport backing this engine (``None`` for ``"central"``)."""
        return self._transport

    @property
    def pending(self) -> int:
        """The number of submitted instances whose Futures have not resolved.

        Counts both queued and currently-executing instances.  A session is
        *quiescent* when this is zero — the precondition control-plane
        operations such as a cluster rebalance
        (:meth:`repro.cluster.ClusterEngine.add_shard`) check before touching
        shared state.

        Returns:
            The in-flight instance count at the moment of the call.
        """
        with self._submit_lock:
            return self._pending

    def submit(
        self,
        choreography: Choreography,
        args: Sequence[Any] = (),
        kwargs: Optional[Mapping[str, Any]] = None,
        *,
        location_args: Optional[Mapping[Location, Sequence[Any]]] = None,
        census: Optional[LocationsLike] = None,
    ) -> "Future[ChoreographyResult]":
        """Enqueue one choreography instance; return a Future for its result.

        Instances submitted while earlier ones are still running pipeline
        through the same warm session: every location executes instances in
        submission order, and instance-tagged messages keep concurrent
        instances from interleaving.

        ``census`` runs the instance as ``op.conclave(census, choreography)``
        applied at dispatch: only its members' workers are woken, each
        projects against the sub-census, and every other location's return
        is the conclave placeholder ``Located.absent(census)`` — it sends,
        receives and executes nothing for this instance.

        Args:
            choreography: Any ``chor(op, *args, **kwargs)`` callable
                (including a :class:`~repro.chor.ChoreographyDef`).
            args: Positional arguments every member passes after ``op``.
            kwargs: Keyword arguments every member passes.
            location_args: Extra positional arguments appended *per
                location* (only meaningful under projection).
            census: The instance's participants, a non-empty subset of the
                engine census; ``None`` means the whole engine census.

        Returns:
            A Future resolving to the instance's :class:`ChoreographyResult`
            (over the whole engine census), or raising
            :class:`~repro.core.errors.ChoreographyRuntimeError` with the
            failing location's root cause.

        Raises:
            RuntimeError: If the engine is closed.
            CensusError: If ``census`` is empty or not a subset of the
                engine census.
            ValueError: If ``location_args`` names a non-member of
                ``census``, or is used with the centralized backend.
        """
        return self._submit_job(choreography, args, kwargs, location_args, census).future

    def _submit_job(
        self,
        choreography: Choreography,
        args: Sequence[Any] = (),
        kwargs: Optional[Mapping[str, Any]] = None,
        location_args: Optional[Mapping[Location, Sequence[Any]]] = None,
        census: Optional[LocationsLike] = None,
    ) -> _EngineJob:
        kwargs = dict(kwargs or {})
        location_args = dict(location_args or {})
        members = self.census if census is None else (
            self.census.require_subset(census).require_nonempty())
        strangers = [location for location in location_args if location not in members]
        if strangers:
            raise ValueError(f"location_args for non-members {strangers!r} of {members!r}")
        if self._central is not None and location_args:
            raise ValueError(
                "the centralized backend calls the choreography once for the whole "
                "census; per-location arguments are only meaningful under projection"
            )
        with self._submit_lock:
            if self._closed:
                raise RuntimeError("cannot submit to a closed ChoreoEngine")
            instance = self._next_instance
            self._next_instance += 1
            self._pending += 1
            queues = [self._queues[_CENTRAL_WORKER]] if self._central is not None else [
                self._queues[location] for location in members]
            job = _EngineJob(
                instance, choreography, args, kwargs, location_args,
                self.census, members, workers=len(queues),
            )
            # Decrement *before* the Future resolves (not in a done
            # callback): a caller that has seen every result() return must
            # observe pending == 0, or quiescence checks would flake.
            job.on_resolve = self._on_job_done
            # Enqueue to the members under the lock so every location observes
            # its instances in increasing id order — the invariant instance
            # tagging relies on (InstanceScopedEndpoint: skipped ids included).
            for jobs in queues:
                jobs.put(job)
        return job

    def _on_job_done(self) -> None:
        with self._submit_lock:
            self._pending -= 1

    def run(
        self,
        choreography: Choreography,
        args: Sequence[Any] = (),
        kwargs: Optional[Mapping[str, Any]] = None,
        *,
        location_args: Optional[Mapping[Location, Sequence[Any]]] = None,
        census: Optional[LocationsLike] = None,
        wait_timeout: Optional[float] = None,
    ) -> ChoreographyResult:
        """Execute one choreography instance and wait for its result.

        ``wait_timeout`` bounds the wait for the whole instance; the default
        is one shared join deadline (twice the receive timeout plus margin),
        scaled by the number of instances already queued ahead, so a healthy
        pipelined backlog is not misreported as a deadlock.  Endpoint receives
        time out on their own, so this only fires for runaway local
        computation.

        Args:
            choreography: As for :meth:`submit`.
            args: As for :meth:`submit`.
            kwargs: As for :meth:`submit`.
            location_args: As for :meth:`submit`.
            census: As for :meth:`submit`: the participants, whose workers
                alone run the instance.
            wait_timeout: Overall wait budget in seconds; ``None`` uses the
                backlog-scaled default described above.

        Returns:
            The instance's :class:`ChoreographyResult`; its ``stats`` are
            this run's delta, cumulative counts stay on :attr:`stats`.

        Raises:
            ChoreographyRuntimeError: When any location fails, or the wait
                budget elapses (naming the locations still running).
        """
        with self._submit_lock:
            backlog = self._pending
        job = self._submit_job(choreography, args, kwargs, location_args, census)
        if wait_timeout is not None:
            budget = wait_timeout
        else:
            budget = (self.timeout * 2 + 5.0) * (backlog + 1)
        try:
            return job.future.result(timeout=budget)
        except _FutureTimeout:
            stuck = job.unfinished_locations()
            raise ChoreographyRuntimeError(
                stuck[0] if stuck else "<engine>",
                TimeoutError(
                    f"choreography instance did not finish within {budget:.1f}s "
                    f"(locations still running: {stuck!r}); it may be deadlocked "
                    "or stuck in local computation"
                ),
            ) from None

    def close(self) -> None:
        """Shut down the workers; close the backend if this engine owns it.

        Already-submitted instances are drained first (their queues are FIFO
        and the stop sentinel is enqueued last).  Idempotent.
        """
        with self._submit_lock:
            if self._closed:
                return
            self._closed = True
            backlog = self._pending
            for jobs in self._queues.values():
                jobs.put(None)
        # One wall-clock deadline shared by every join (a hung census must
        # not compound the timeout once per worker), scaled by the backlog so
        # a healthy queue of submitted instances gets to finish before the
        # transport goes away — but capped: a wedged census with thousands of
        # pipelined submissions queued behind it must not make close() wait
        # timeout-per-instance for workers that will never drain.
        grace = min(
            self.timeout * 2 * (backlog + 1),
            self.timeout * 2 + CLOSE_DEADLINE_CAP,
        )
        deadline = time.monotonic() + grace
        for worker in self._workers:
            worker.join(timeout=max(0.0, deadline - time.monotonic()))
        abandoned = [worker.name for worker in self._workers if worker.is_alive()]
        if abandoned:
            logger.warning(
                "close() abandoned %d still-running worker(s) after %.1fs "
                "(backlog was %d): %s; daemon threads will not outlive the process",
                len(abandoned), grace, backlog, ", ".join(abandoned),
            )
        if self._owns_backend and self._transport is not None:
            self._transport.close()
        if self._transport is not None and getattr(self._transport, "_engine_lease", None) is self:
            self._transport._engine_lease = None

    def __enter__(self) -> "ChoreoEngine":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    # ---------------------------------------------------------------- workers --

    def _endpoint_worker(self, location: Location, jobs) -> None:
        """One location's long-lived runner: projects and executes each job."""
        endpoint = self._endpoints[location]
        base_stats = self._transport.stats
        stash: Dict[int, Dict[Location, Any]] = self._stashes[location]
        while True:
            job = jobs.get()
            if job is None:
                return
            job.mark_started()
            # The worker must report exactly one outcome per job, whatever
            # happens: a Future that never resolves strands every caller
            # blocked on it, so even a failure in the bookkeeping below (the
            # stats-tee restore, the stash purge) is converted into a
            # failed report rather than allowed to kill the worker thread.
            failed, payload = True, None
            try:
                scoped = InstanceScopedEndpoint(endpoint, job.instance, stash)
                endpoint.use_stats(_TeeStats(base_stats, job.stats))
                try:
                    program = project(job.choreography, job.members, location, scoped)
                    value = program(*job.args_for(location), **job.kwargs)
                    # Instance-boundary flush: a coalescing endpoint may still
                    # hold this instance's trailing sends; they are part of the
                    # run, so a failed drain fails the run.
                    endpoint.flush()
                except BaseException as exc:  # noqa: BLE001 - reported via the Future
                    try:
                        endpoint.flush()  # best-effort: peers may be blocked on these
                    except BaseException:  # noqa: BLE001 - original error wins
                        pass
                    payload = exc
                else:
                    failed, payload = False, value
                finally:
                    endpoint.use_stats(base_stats)
                    # Unconsumed messages of instances up to and including this
                    # one must not linger (a long-lived session would otherwise
                    # grow without bound): tags ≤ the just-finished instance are
                    # dead by construction — later instances drop them on arrival
                    # — so purge every such stash key, not just the current one.
                    for stale in [key for key in stash if key <= job.instance]:
                        del stash[stale]
            except BaseException as exc:  # noqa: BLE001 - bookkeeping failed
                failed, payload = True, exc
            job.report({location: payload}, failed)

    def _central_worker(self, _label: str, jobs) -> None:
        """The centralized backend's single runner."""
        while True:
            job = jobs.get()
            if job is None:
                return
            job.mark_started()
            try:
                op = CentralOp(job.members, _TeeStats(self._central.stats, job.stats))
                value = job.choreography(op, *job.args, **job.kwargs)
            except BaseException as exc:  # noqa: BLE001 - reported via the Future
                job.report({_CENTRAL_WORKER: exc}, failed=True)
            else:
                job.report({location: localize_return(value, location)
                            for location in job.members}, failed=False)
