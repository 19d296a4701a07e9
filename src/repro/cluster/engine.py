"""A sharded cluster of warm choreography sessions.

One :class:`~repro.runtime.engine.ChoreoEngine` serves one census.  A
service-shaped deployment wants *many* disjoint censuses — one replica group
per shard — with requests routed by key and pipelined into every group
concurrently.  :class:`ClusterEngine` is that layer:

* a :class:`~repro.cluster.router.ShardRouter` (consistent-hash ring) maps
  each key to a shard;
* every shard owns a **warm engine** over its own census — a shared client
  location plus ``replication`` replica locations — and a persistent replica
  store (one facet per replica), so state survives across choreography
  instances;
* requests are **pipelined**: ``submit_*`` returns a Future immediately, and
  ops for different shards run genuinely concurrently while ops for the same
  shard (hence the same key) execute in submission order;
* single requests **fold at dispatch** (group commit, no timer): single
  puts, gets and deletes that queue behind a shard's in-flight fold go out
  together as one ``read`` or ``serve`` instance when it settles; every
  dispatch waits its turn in one lane per shard, and per-key
  linearizability rests on that lane's one ordering rule (``_pump``);
* the data plane is pure choreography — puts replicate through
  :func:`~repro.protocols.kvs.kvs_with_backups`, quorum reads and
  read-repair through :func:`~repro.protocols.kvs.kvs_quorum_get`, other
  reads through :func:`~repro.protocols.kvs.primary_read` — so every
  message a shard sends is visible in its engine's
  :class:`~repro.runtime.stats.ChannelStats`, and the cluster-wide rollup
  is their :meth:`~repro.runtime.stats.ChannelStats.merge_all`.

A dead replica degrades its shard instead of failing it: the failed run is
attributed, the shard re-binds around the survivors (census polymorphism is
the failover mechanism) and the run replays (:mod:`repro.cluster.failover`).
Multi-key atomicity crosses shards with choreographic two-phase commit
(:mod:`repro.cluster.txn`).  Both modules are plain functions over the
cluster, bound here as :class:`ClusterEngine` methods; this module keeps the
data plane, the shard sessions, membership and the cluster's lifecycle.

:class:`~repro.cluster.client.ClusterClient` wraps this with a blocking
``put/get/scan/txn`` facade; ``benchmarks/e2e/`` drives it with a 95/5
group-commit workload and a durable 2PC transfer workload.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
from concurrent.futures import Future, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from ..chor import ChoreographyDef
from ..core.errors import ChoreographyRuntimeError
from ..core.located import Faceted
from ..core.locations import Census, Location, as_census
from ..core.ops import Choreography
from ..protocols.kvs import (
    WRITE_KINDS,
    Decide,
    Request,
    RequestKind,
    Response,
    ShardEpoch,
    State,
    fenced,
    kvs_delete,
    kvs_get,
    kvs_ping,
    kvs_quorum_get,
    kvs_read_batch,
    kvs_scan,
    kvs_serve_batch,
    kvs_txn,
    kvs_with_backups,
)
from ..runtime.engine import ChoreoEngine, ChoreographyResult
from ..runtime.stats import ChannelStats
from ..runtime.transport import DEFAULT_TIMEOUT
from ..storage import Durability, EphemeralState
from . import failover, txn
from .router import ShardId, ShardRouter

#: The location name every shard census shares for the requesting side.
DEFAULT_CLIENT = "client"


class ClusterClosed(RuntimeError):
    """Submitted to (or asked control-plane work of) a closed cluster.

    A :class:`RuntimeError` subclass so pre-existing callers that caught the
    untyped error keep working; new code should catch the type.
    """


class ClusterRebalancing(RuntimeError):
    """Submitted while a control-plane operation owns the cluster.

    Raised instead of accepting the submit: a request dispatched mid-
    rebalance (or mid-rejoin) could route through a half-migrated ring or a
    half-bound replica group, and its Future might never resolve.  Callers
    should drain their in-flight work, let the control-plane call finish, and
    resubmit.
    """


# -- the per-shard data-plane choreographies ------------------------------------------
#
# A submitted request carries only its own data (key/value/prefix): a
# binding pre-applies one shard's concrete (client, primary, backups, state)
# to a census-polymorphic ``kvs_*`` choreography and lifts the submitted
# arguments into the payload located at the client.


def _lifted(chor: Choreography, lift: Callable[..., Any], client: Location,
            *bound: Any) -> Choreography:
    """``chor(op, client, *bound, payload, **kwargs)`` with ``payload = lift(*args)``
    at the client."""

    def run(op, *args, **kwargs):
        payload = op.locally(client, lambda _un: lift(*args))
        return chor(op, client, *bound, payload, **kwargs)

    return run


def _as_given(value: Any) -> Any:
    return value


def _future() -> "Future[Any]":
    """A Future that refuses ``cancel()``, as an executor's does once running:
    one cancelled in a fold or batch would strand the rest of its answers."""
    future: "Future[Any]" = Future()
    future.set_running_or_notify_cancel()
    return future


def _fan_out(futures: Sequence["Future[Response]"], done: "Future[List[Response]]") -> None:
    """Answer one Future per request from an instance's list of answers."""
    try:
        answers = done.result()
    except BaseException as exc:  # noqa: BLE001 - relayed per request
        for future in futures:
            future.set_exception(exc)
        return
    for future, answer in zip(futures, answers):
        future.set_result(answer)


class _Answers:
    """One batch's answers, put in request order as its shard parts settle;
    the last part to settle settles ``whole``."""

    def __init__(self, whole: "Future[List[Response]]", size: int, parts: int):
        self.whole, self.answers, self.left = whole, [None] * size, parts
        self.failed: List[Tuple[int, BaseException]] = []  # (lowest index, error)
        self.lock = threading.Lock()

    def part(self, indices: List[int], done: "Future[List[Response]]") -> None:
        """A shard part's done-callback (``indices`` ascending)."""
        error = done.exception()
        with self.lock:
            if error is None:
                for index, answer in zip(indices, done.result()):
                    self.answers[index] = answer
            else:
                self.failed.append((indices[0], error))
            self.left -= 1
            if self.left:
                return
        if self.failed:  # parts share no index, so min() never compares errors
            self.whole.set_exception(min(self.failed)[1])
        else:
            self.whole.set_result(self.answers)


class _Scan:
    """One scan's shard runs, merged as they settle; the last run to settle
    settles ``whole`` with the sorted items, or the first failed run's error."""

    def __init__(self, whole: "Future[List[Tuple[str, str]]]", runs: int, client: Location):
        self.whole, self.left, self.client = whole, runs, client
        self.items: List[Tuple[str, str]] = []
        self.error: Optional[BaseException] = None
        self.lock = threading.Lock()

    def run(self, done: "Future[ChoreographyResult]") -> None:
        """A shard run's done-callback."""
        error = done.exception()
        with self.lock:
            if error is None:
                self.items += done.result().value_at(self.client)
            elif self.error is None:
                self.error = error
            self.left -= 1
            if self.left:
                return
        if self.error is not None:
            self.whole.set_exception(self.error)
        else:
            self.whole.set_result(sorted(self.items))


#: The ops with the replica-group shape ``(client, primary, backups, state,
#: payload)``: binding name → (choreography, payload lift).
_REPLICA_GROUP_OPS: Dict[str, Tuple[Choreography, Callable[..., Any]]] = {
    "put": (kvs_with_backups, Request.put),
    "delete": (kvs_delete, _as_given),
    # Group commit, the cluster's high-throughput path: one instance and
    # ``2 + 2·backups`` messages per batch, however many requests it carries.
    "serve": (kvs_serve_batch, list),
    # Two-phase commit: the decides a shard is owed, then at most one prepare.
    "txn": (kvs_txn, lambda decides, prepare: (list(decides), prepare)),
}


@dataclass(frozen=True)
class ShardHealth:
    """One shard's replica liveness, as the cluster currently believes it.

    ``replicas`` maps every replica the shard was *created* with — including
    demoted ones — to ``"up"``, ``"down"``, or ``"rejoining"`` (mid
    re-admission: restarted and catching up, not yet serving).  A shard is
    ``degraded`` whenever any replica is not ``"up"``; it keeps serving
    through the remaining replicas (down to an unreplicated primary) the
    whole time, and a successful :meth:`ClusterEngine.rejoin_backup` walks a
    replica ``down → rejoining → up`` and the shard back to healthy.
    """

    shard_id: ShardId
    primary: Location
    replicas: Mapping[Location, str]
    #: Replicas detected dead and dropped out of the replica group (demoted
    #: backups *and* deposed primaries), in detection order.
    down: Tuple[Location, ...] = field(default=())
    #: The shard's dispatches not yet started plus instances in flight at
    #: snapshot time: its share of :attr:`ClusterEngine.pending`, which the
    #: gateway sheds load on past a high-water mark, showing where a backlog
    #: sits, not just that one exists.
    pending: int = field(default=0)
    #: The shard's current epoch: 0 until a primary promotion, bumped by one
    #: per promotion.  Bindings from older epochs are fenced with
    #: :class:`~repro.protocols.kvs.StaleEpoch`.
    epoch: int = field(default=0)
    #: Each configured replica's current role, ``"primary"`` or
    #: ``"backup"`` — after a failover the primary is *not* ``servers[0]``,
    #: and this mapping is how an operator sees who serves as head now.
    roles: Mapping[Location, str] = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        """True when at least one replica is not serving (down or rejoining)."""
        return any(status != "up" for status in self.replicas.values())


class _ShardSession:
    """One shard's worth of warm machinery: census, engine, state, bound ops."""

    __slots__ = (
        "shard_id", "client", "census", "servers", "primary", "down",
        "rejoining", "durability", "state", "engine", "fence", "bindings",
        "lane", "folding", "owed", "carrier",
    )

    def __init__(
        self,
        shard_id: ShardId,
        client: Location,
        replication: int,
        backend: Any,
        timeout: float,
        backend_options: Dict[str, Any],
        durability: Optional[Durability] = None,
    ):
        self.shard_id = shard_id
        self.client = client
        self.servers: List[Location] = [f"{shard_id}.r{i}" for i in range(replication)]
        self.primary: Location = self.servers[0]
        #: Replicas dropped out of the replica group, in detection order.
        self.down: List[Location] = []
        #: The demoted replica being re-admitted (restart + catch-up), if
        #: any; control operations are exclusive, so there is at most one.
        self.rejoining: Optional[Location] = None
        self.durability = durability
        self.census: Census = as_census([client] + self.servers)
        # The replica stores persist across choreography instances: the engine
        # keeps one worker thread per location alive for the session, and each
        # worker only ever unwraps its own facet, so sharing the Faceted
        # across instances is race-free (per-location instances run in
        # submission order).  With durability, each facet is a DurableState
        # whose construction is the recovery path: snapshot + WAL replay.
        self.state: Faceted[State] = Faceted(
            self.servers, {s: self._open_store(s) for s in self.servers}
        )
        #: The shard's live fence cell, holding its current epoch.  Advanced
        #: by :meth:`promote`; every data-plane binding captures the epoch
        #: current at bind time and is checked against the cell at run time.
        self.fence = ShardEpoch(0)
        self._recover_promoted_head()
        self.engine = ChoreoEngine(
            self.census, backend=backend, timeout=timeout, **backend_options
        )
        #: Op name → (choreography, participant census), see _bind_data_plane.
        self.bindings: Dict[str, Tuple[ChoreographyDef, Census]] = {}
        self._bind_data_plane()
        #: Dispatches not yet started, in order, as ``(op_name, args, kwargs,
        #: outer, replays)`` (see _submit, _pump); and whether a fold is in flight.
        self.lane: List[tuple] = []
        self.folding = False
        #: Decides this shard is owed and no instance carries yet, in
        #: decision order; those on the carrier in flight (``None``: none is).
        self.owed: List[Decide] = []
        self.carrier: Optional[List[Decide]] = None

    @property
    def epoch(self) -> int:
        """The shard's current epoch: 0 until a promotion, +1 per promotion."""
        return self.fence.value

    @property
    def backups(self) -> List[Location]:
        """The serving backups, in census order: every server but the head,
        the ``down`` and the rejoining.  Its first entry is the *senior*
        survivor, next in line for promotion — deterministic across
        processes and failure histories, and authoritative by the
        ack-before-apply invariant (every write the deposed head acknowledged
        was applied at every then-serving backup *first*)."""
        return [server for server in self.servers if server != self.primary
                and server not in self.down and server != self.rejoining]

    @property
    def pending(self) -> int:
        """Dispatches not yet started plus instances in flight (0 = quiescent)."""
        return len(self.lane) + self.engine.pending

    @property
    def put(self) -> ChoreographyDef:
        """The current replicated-put binding (over the whole engine census)."""
        return self.bindings["put"][0]

    def _recover_promoted_head(self) -> None:
        """Reopen under the head the durable promotion records elect.

        Census order says ``servers[0]`` leads — but a promotion may have
        moved the head, and that fact is persisted as WAL promotion records
        (``docs/durability.md``).  The replica reporting the highest
        recovered epoch knows the current head: serve from it and restore
        the epoch, so a full cluster restart serves from the store that was
        authoritative at shutdown, not from a deposed ``r0``.
        """
        epoch, head = 0, None
        for replica in self.servers:
            facet = self.state.facet_for(replica)
            if facet.shard_epoch > epoch:
                epoch, head = facet.shard_epoch, facet.promoted_head
        if epoch > 0 and head in self.servers:
            self.fence.advance(epoch)
            self.primary = head

    def _bind_data_plane(self) -> None:
        """(Re-)bind the data-plane choreographies to the live replica set.

        Called at session open and again after each demotion or promotion:
        the *same* census-polymorphic choreographies are simply
        re-instantiated with the current head and backup list —
        :func:`~repro.protocols.kvs.kvs_with_backups` and friends degrade
        gracefully down to an unreplicated primary, so failover needs no
        protocol of its own.  Each binding carries its participant census,
        which dispatch hands to ``engine.submit``: client + primary + live
        backups for the replica-group ops and a quorum get, client + primary
        for reads, client + replica for a ping.  The engine census never
        changes, but only participants' workers wake, so a demoted location
        runs nothing.

        Every data-plane binding is :func:`~repro.protocols.kvs.fenced` against the
        shard's live epoch cell: after a later promotion the cell moves on,
        and a submit still carrying this binding fails with
        :class:`~repro.protocols.kvs.StaleEpoch` before its first message —
        the split-brain fence that keeps a deposed head from serving.
        """
        backups = self.backups
        group = (self.client, self.primary, backups, self.state)
        members = as_census([self.client, self.primary, *backups])
        bindings = {
            op_name: (_lifted(chor, lift, *group), members)
            for op_name, (chor, lift) in _REPLICA_GROUP_OPS.items()
        }
        # Reads are answered by the primary alone: no backup list.
        reader = (self.client, self.primary, self.state)
        pair = as_census([self.client, self.primary])
        bindings["scan"] = (_lifted(kvs_scan, _as_given, *reader), pair)
        bindings["read"] = (_lifted(kvs_read_batch, list, *reader), pair)
        bindings["get"] = (_lifted(kvs_get, _as_given, *reader), pair)
        bindings["quorum_get"] = (_lifted(kvs_quorum_get, _as_given, *group), members)
        self.bindings = {
            op_name: (ChoreographyDef(fenced(chor, self.fence),
                                      name=f"{op_name}@{self.shard_id}"), census)
            for op_name, (chor, census) in bindings.items()
        }
        # Liveness probes (two messages, state untouched) are never fenced.
        for replica in self.servers:
            self.bindings[f"ping:{replica}"] = (ChoreographyDef(
                _lifted(kvs_ping, _as_given, self.client, replica),
                name=f"ping@{self.shard_id}:{replica}",
            ), as_census([self.client, replica]))

    def _open_store(self, replica: Location) -> State:
        """One replica's store: durable (recovered from disk) or ephemeral."""
        if self.durability is None:
            return EphemeralState()
        return self.durability.open_state(self.shard_id, replica)

    def promote(self, new_primary: Location) -> None:
        """Fail over to ``new_primary``: bump the epoch, fence, re-bind.

        The deposed head joins the ``down`` list (it can re-join later as a
        backup through the ordinary catch-up path); the new epoch is stamped
        into every surviving replica's store (its WAL, if durable) so a restart
        recovers the promoted head; the fence cell advances, invalidating
        every binding made under the old epoch; and the data plane re-binds
        around the new head with the remaining backups.
        """
        epoch = self.epoch + 1
        self.down.append(self.primary)
        self.primary = new_primary
        for replica in (self.primary, *self.backups):
            self.state.facet_for(replica).log_promotion(epoch, new_primary)
        self.fence.advance(epoch)
        self._bind_data_plane()

    def health(self) -> ShardHealth:
        """This shard's current :class:`ShardHealth` snapshot."""

        def status(replica: Location) -> str:
            if replica in self.down:
                return "down"
            if replica == self.rejoining:
                return "rejoining"
            return "up"

        return ShardHealth(
            self.shard_id,
            self.primary,
            {replica: status(replica) for replica in self.servers},
            down=tuple(self.down),
            pending=self.pending,
            epoch=self.epoch,
            roles={
                replica: "primary" if replica == self.primary else "backup"
                for replica in self.servers
            },
        )


class ClusterEngine:
    """A sharded KVS service: one warm :class:`ChoreoEngine` per shard.

    Args:
        shards: Shard count (ids default to ``"shard0"`` …) or explicit ids.
        replication: Replicas per shard (primary + ``replication - 1``
            backups); must be at least 1.
        backend: Backend name or factory options understood by
            :class:`~repro.runtime.engine.ChoreoEngine`; every shard gets its
            own backend instance, so shard traffic never shares a transport.
        timeout: Per-endpoint receive timeout, forwarded to each engine.
        durability: ``None`` (ephemeral stores, the default), a directory
            path, or a full :class:`~repro.storage.Durability` configuration.
            With durability on, every replica store is a
            :class:`~repro.storage.DurableState` rooted at
            ``<root>/<shard_id>/<replica>/`` — opening the cluster *is*
            crash recovery (snapshot + WAL replay), and
            :meth:`rejoin_backup` can re-admit a crashed, restarted backup.
        **backend_options: Extra backend factory options (e.g. ``latency=``
            for ``"simulated"``), forwarded to each engine.

    Raises:
        ValueError: On ``replication < 1`` or an invalid shard spec.

    The engine is a context manager; leaving the ``with`` block closes every
    shard session.
    """

    def __init__(
        self,
        shards: Union[int, Sequence[ShardId]] = 4,
        *,
        replication: int = 2,
        backend: Any = "local",
        timeout: float = DEFAULT_TIMEOUT,
        durability: "Union[None, str, os.PathLike, Durability]" = None,
        **backend_options: Any,
    ):
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        self.client = DEFAULT_CLIENT
        self.replication = replication
        # Replay budget: each replay consumes either a membership shrink (a
        # demotion or a promotion — at most replication-1 of those before an
        # unreplicated head) or a stale-epoch retry (a submit whose binding a
        # concurrent promotion invalidated — at most one per promotion), so
        # 2·(replication-1) bounds the chain and it always terminates.
        self._replays = 2 * (replication - 1)
        self.router = ShardRouter(shards)
        if durability is not None and not isinstance(durability, Durability):
            durability = Durability(root=os.fspath(durability))
        self.durability: Optional[Durability] = durability
        self._open_session: Callable[[ShardId], _ShardSession] = functools.partial(
            _ShardSession, client=self.client, replication=replication, backend=backend,
            timeout=timeout, backend_options=backend_options, durability=durability)
        self._lock = threading.Lock()
        self._closed = False
        #: The control-plane operation currently owning the cluster (a short
        #: description, or ``None``); submits are refused while set.
        self._control_op: Optional[str] = None
        #: Every replica dropped from a replica group — demoted backups *and*
        #: deposed primaries — as ``(shard_id, replica)`` in detection order:
        #: the cluster's failover audit trail (guarded by ``_lock``).
        self.failovers: List[Tuple[ShardId, Location]] = []
        #: Every primary promotion performed, in commit order — the detailed
        #: half of the audit trail (guarded by ``_lock``).
        self.promotions: List[failover.PromotionReport] = []
        #: Every successful re-join, in completion order — the recovery side
        #: of the audit trail (guarded by ``_lock``).
        self.rejoins: List[failover.RejoinReport] = []
        self._sessions: Dict[ShardId, _ShardSession] = {}
        try:
            for shard_id in self.router.shards:
                self._sessions[shard_id] = self._open_session(shard_id)
            txn.open_log(self)
        except BaseException:
            self.close()
            raise

    # The 2PC coordinator and the failover machinery, over this cluster.
    submit_txn = txn.submit_txn
    _decide_phase = txn._decide_phase
    in_doubt = txn.in_doubt
    recover_in_doubt = txn.recover_in_doubt
    _should_replay = failover._should_replay
    _suspect_replica = failover._suspect_replica
    _mark_down = failover._mark_down
    probe = failover.probe
    rejoin_backup = failover.rejoin_backup

    # ---------------------------------------------------------------- routing --

    @property
    def shards(self) -> Tuple[ShardId, ...]:
        """The live shard ids, in creation order."""
        return self.router.shards

    def shard_for(self, key: str) -> ShardId:
        """The shard serving ``key`` (see :meth:`ShardRouter.shard_for`)."""
        return self.router.shard_for(key)

    def session(self, shard_id: ShardId) -> _ShardSession:
        """The warm per-shard session (census, engine, bound choreographies).

        Raises:
            KeyError: For an unknown shard id.
        """
        return self._sessions[shard_id]

    # ------------------------------------------------------------- data plane --

    def _require_open(self) -> None:
        """Refuse a submit to a closed or busy cluster (``_lock`` held)."""
        if self._closed:
            raise ClusterClosed("cannot submit to a closed ClusterEngine")
        if self._control_op is not None:
            raise ClusterRebalancing(
                f"cannot submit while the cluster is busy with "
                f"{self._control_op}; drain in-flight futures and retry"
            )

    def _submit(self, shard_id: ShardId, op_name: Optional[str],
                args: Sequence[Any] = (), kwargs: Optional[Dict[str, Any]] = None,
                ) -> "Future[Any]":
        """Dispatch one non-folded shard operation, with failover built in.

        ``op_name`` names a :class:`_ShardSession` binding
        (``"quorum_get"``/``"serve"``/``"scan"``/...) rather than a bound
        object, because failover *re-binds* that table: a replay after
        a demotion must pick up the degraded binding, not the one the request
        was first dispatched with.  The returned Future resolves with the
        final (possibly replayed) run's client value (the run itself for a
        scan), or with the original failure when no replay is warranted.
        It joins the tail of the shard's lane (:meth:`_pump`); ``op_name``
        ``None`` submits a single request, ``args`` ``(request,)``.

        Replay is **at-least-once** and re-enters at the head of the lane:
        a replayed write lands *behind* anything started between its failure
        and its replay, so pipelined batch writes to one key can reorder
        across a replica crash; single requests cannot (:meth:`_pump`).
        """
        outer = _future()
        with self._lock:
            self._require_open()
            session = self._sessions[shard_id]
            session.lane.append((op_name, tuple(args), dict(kwargs or {}), outer, self._replays))
            sent = self._pump(session)
        self._watch(session, sent)
        return outer

    def _fold(self, request: Request) -> "Future[Response]":
        """Submit one single request; :meth:`_pump` folds it with its neighbours."""
        return self._submit(self.shard_for(request.key), None, (request,))

    def _pump(self, session: _ShardSession) -> List[tuple]:
        """Start the lane's head while the ordering rule lets it (``_lock`` held).

        Nothing passes a carrier in flight, so nothing sent after a commit
        is acknowledged sees the shard without it: owed decides ride a
        ``txn`` head, or a decide-only round ahead of any other head.  A run
        of single requests at the head goes out as one fold (a lone one on
        its own binding) only while no fold is in flight, which one is until
        its outer Future settles, replays included, so nothing overtakes a
        replayed write.  Any other head starts at once.  Entries leave the
        lane once started, so ``pending`` never misses them.
        """
        lane, sent = session.lane, []
        while lane and session.carrier is None:
            op_name, args, kwargs, outer, replays = lane[0]
            taken = 1
            if session.owed:
                session.carrier, session.owed = session.owed, []
                if op_name != "txn":  # a decide-only round goes first
                    sent.append(self._start(session, "txn", (session.carrier, None), {},
                                            _future(), self._replays))
                    break
                args = (session.carrier, args[1])
            elif op_name is None:  # single requests
                if session.folding:
                    break
                run = list(itertools.takewhile(lambda send: send[0] is None, lane))
                requests = [request for _op_name, (request,), *_rest in run]
                taken = len(requests)
                if taken == 1:  # its own put/get/delete binding and Future
                    (request,) = requests
                    op_name = request.kind.value
                    args = ((request.key, request.value) if request.kind is RequestKind.PUT
                            else (request.key,))
                    callers = []  # its Future's callback holding it would be a cycle
                else:  # a batch, whose answers fan out
                    writes = any(request.kind in WRITE_KINDS for request in requests)
                    op_name, args, outer = ("serve" if writes else "read"), (requests,), _future()
                    callers = [future for _op_name, _args, _kwargs, future, _replays in run]
                outer.add_done_callback(functools.partial(self._unfold, session, callers))
                session.folding = True
            sent.append(self._start(session, op_name, args, kwargs, outer, replays))
            del lane[:taken]
        return sent

    def _start(self, session: _ShardSession, op_name: str, args: tuple,
               kwargs: Dict[str, Any], outer: "Future[Any]", replays: int) -> tuple:
        """Submit one instance (``_lock`` held); a ``txn`` round with nothing
        to carry and no prepare is already done and submits nothing."""
        if op_name == "txn" and args == ([], None):
            return (None, op_name, args, kwargs, outer, replays)
        chor, census = session.bindings[op_name]
        try:
            inner = session.engine.submit(chor, args=args, kwargs=kwargs, census=census)
        except RuntimeError as exc:  # the engine closed under the dispatch
            inner = Future()
            inner.set_exception(exc)
        return (inner, op_name, args, kwargs, outer, replays)

    def _watch(self, session: _ShardSession, sent: List[tuple]) -> None:
        """Settle each started instance's caller (outside ``_lock``)."""
        for inner, *send in sent:
            if inner is None:
                send[3].set_result(None)
            else:
                inner.add_done_callback(lambda done, send=send: self._settle(
                    done, session, *send))

    def _unfold(self, session: _ShardSession, callers: List["Future[Response]"],
                done: "Future[Any]") -> None:
        """A fold settled: free its slot, start what waited, answer a batch's callers."""
        with self._lock:
            session.folding = False
            sent = self._pump(session)
        self._watch(session, sent)
        if callers:
            _fan_out(callers, done)

    def _settle(self, done: "Future[ChoreographyResult]", session: _ShardSession,
                op_name: str, args: tuple, kwargs: Dict[str, Any],
                outer: "Future[Any]", replays_left: int) -> None:
        """Resolve ``outer`` from a finished shard run, failing over if due.

        A carrier's decides are delivered once it succeeds, and owed again
        if it fails.  A replay re-enters at the head of the lane; a carrier
        that gives up fails the lane too, as nothing may pass its decides.
        """
        carried = args[0] if op_name == "txn" else []
        try:
            result = done.result()
            # Callers want the client's answer; a scan's caller merges runs.
            value = result if op_name == "scan" else result.value_at(self.client)
        except ChoreographyRuntimeError as exc:
            error: BaseException = exc
        except BaseException as exc:  # noqa: BLE001 - relayed to the caller
            error, replays_left = exc, 0
        else:
            if carried:  # applied at every live replica: what waited goes out
                with self._lock:
                    session.carrier = None
                    txn.forget_delivered(self, carried)
                    sent = self._pump(session)
                self._watch(session, sent)
            outer.set_result(value)
            return
        try:
            replay = replays_left > 0 and self._should_replay(session.shard_id, error)
        except Exception:  # noqa: BLE001 - attribution failed; the failure stands
            replay = False
        failed = [outer]
        with self._lock:
            if carried:
                session.owed[:0] = carried
                session.carrier = None
                args = ([], args[1])
            if replay and not self._closed and self._control_op is None:
                session.lane.insert(0, (op_name, args, kwargs, outer, replays_left - 1))
                failed = []
            elif carried:
                failed += [waiting for _op, _args, _kwargs, waiting, _replays in session.lane]
                session.lane = []
            sent = self._pump(session)
        self._watch(session, sent)
        for future in failed:
            future.set_exception(error)

    def submit_put(self, key: str, value: str) -> "Future[Response]":
        """Enqueue a replicated Put on ``key``'s shard; returns immediately.

        Returns:
            A Future of the client's :class:`~repro.protocols.kvs.Response`:
            the previous binding (``found``) or ``not_found``.  The Put may
            share one instance with other single requests queued on its
            shard (:meth:`_pump`).  If the run fails on a replica that is
            (or is then confirmed) dead, it is replayed against the re-bound
            replica group and the Future resolves with the replay.
        """
        return self._fold(Request.put(key, value))

    def submit_get(
        self, key: str, *, quorum: bool = False, read_repair: bool = True
    ) -> "Future[Response]":
        """Enqueue a Get on ``key``'s shard.

        Args:
            key: The key to read.
            quorum: Read from every replica and answer with the majority
                instead of trusting the primary alone.
            read_repair: With ``quorum``, re-propagate the primary's store
                when the replicas' votes diverge.

        Returns:
            A Future of the client's Response (see :meth:`submit_put`); a
            quorum Get runs on its own, never folded.
        """
        if quorum:
            return self._submit(self.shard_for(key), "quorum_get", args=(key,),
                                kwargs={"read_repair": read_repair})
        return self._fold(Request.get(key))

    def submit_delete(self, key: str) -> "Future[Response]":
        """Enqueue a replicated Delete on ``key``'s shard; returns immediately.

        Deletion is a write: it replicates through
        :func:`~repro.protocols.kvs.kvs_delete` with the same
        ack-before-apply discipline (and the same dead-backup replay) as a
        Put, and on durable shards the ``("del", key)`` record hits each
        replica's WAL before memory, so an acknowledged delete survives
        crash-restart replay.

        Returns:
            A Future of the client's :class:`~repro.protocols.kvs.Response`
            (see :meth:`submit_put`): the previous binding (``found``) or
            ``not_found`` for an absent key.
        """
        return self._fold(Request.delete(key))

    def submit_batch(self, requests: Sequence[Request]) -> List["Future[Response]"]:
        """Serve a request batch with one group-commit instance per shard.

        The batch is split by key routing; each shard receives *its* requests
        in batch order as a single :func:`~repro.protocols.kvs.kvs_serve_batch`
        instance, so a batch costs ``2 + 2·backups`` messages per touched
        shard instead of per request — and a sub-batch with no Put or Delete
        is one :func:`~repro.protocols.kvs.kvs_read_batch` instance, two
        messages at the primary alone.  Per-key ordering is preserved: a key's
        requests stay in one shard's sub-batch, in order, and batches to the
        same shard execute in submission order.

        Args:
            requests: Any mix of Put/Get/Delete requests.  Each request
                routes by its ``key`` (a batch may span every shard).

        Returns:
            One Future per request, in the order given; each resolves to that
            request's :class:`~repro.protocols.kvs.Response` (or raises the
            shard run's error).
        """
        futures: List["Future[Response]"] = [_future() for _ in requests]
        for indices, part in self._batch_parts(requests):
            part.add_done_callback(functools.partial(_fan_out, [futures[i] for i in indices]))
        return futures

    def submit_batch_answers(self, requests: Sequence[Request]) -> "Future[List[Response]]":
        """:meth:`submit_batch` answered as one Future: every request's Response
        in the order given, once each shard's part has settled, or the error
        of the lowest-index request that failed (``1 + 2·shards`` Futures)."""
        whole: "Future[List[Response]]" = _future()
        parts = self._batch_parts(requests)
        if not parts:
            whole.set_result([])
        answers = _Answers(whole, len(requests), len(parts))
        for indices, part in parts:
            part.add_done_callback(functools.partial(answers.part, indices))
        return whole

    def _batch_parts(self, requests: Sequence[Request]
                     ) -> List[Tuple[List[int], "Future[List[Response]]"]]:
        """Split a batch by shard and dispatch each part: ``(indices, the
        part's Future of its answers)`` per touched shard, indices ascending."""
        per_shard: Dict[ShardId, List[int]] = {}
        for index, request in enumerate(requests):
            # Keyless requests (STOP) have no ring position; route them by
            # the empty key so they deterministically reach one shard and
            # come back answered ``stopped``, as kvs_serve_batch promises.
            per_shard.setdefault(self.shard_for(request.key or ""), []).append(index)
        parts = []
        for shard_id, indices in per_shard.items():
            sub_batch = [requests[index] for index in indices]
            # Kinds are known at dispatch: a sub-batch without writes is a read.
            writes = any(request.kind in WRITE_KINDS for request in sub_batch)
            parts.append((indices, self._submit(
                shard_id, "serve" if writes else "read", args=(sub_batch,))))
        return parts

    def _deliver(self, sessions: Sequence[_ShardSession]) -> List["Future[Any]"]:
        """Send the decides these shards are owed, each on a decide-only
        ``txn`` round at the tail of the shard's lane; one Future per shard,
        done once the round has gone out (at once where nothing is owed),
        so everything ahead of it in the lane has too."""
        futures = []
        for session in sessions:
            outer = _future()
            with self._lock:
                session.lane.append(("txn", ([], None), {}, outer, self._replays))
                sent = self._pump(session)
            self._watch(session, sent)
            futures.append(outer)
        return futures

    def submit_scan(self, prefix: str = "") -> Dict[ShardId, "Future[ChoreographyResult]"]:
        """Enqueue a prefix scan on *every* shard.

        Returns:
            One Future per shard; each resolves to a run whose client value
            is that shard's sorted ``(key, value)`` list.
            :meth:`submit_scan_items` merges them.
        """
        return {
            shard_id: self._submit(shard_id, "scan", args=(prefix,))
            for shard_id in self.shards
        }

    def submit_scan_items(self, prefix: str = "") -> "Future[List[Tuple[str, str]]]":
        """:meth:`submit_scan` merged into one Future of every shard's
        ``(key, value)`` pairs under ``prefix``, sorted by key; shards
        partition the keyspace, so the merge drops nothing.  It fails with
        the error of the first shard run that failed."""
        whole: "Future[List[Tuple[str, str]]]" = _future()
        runs = self.submit_scan(prefix)
        scan = _Scan(whole, len(runs), self.client)
        for run in runs.values():
            run.add_done_callback(scan.run)
        return whole

    def response_of(self, result: ChoreographyResult) -> Response:
        """Unwrap the client-side :class:`Response` from a shard run result."""
        return result.value_at(self.client)

    # ------------------------------------------------------------ observability --

    @property
    def stats(self) -> ChannelStats:
        """Cluster-wide message accounting: the merge of every shard's stats.

        Built with :meth:`ChannelStats.merge_all` over the per-shard engines'
        cumulative stats, so the rollup's totals equal the sum of the
        per-shard totals (shard censuses are disjoint apart from the shared
        client location *name*, and channels are keyed by (sender, receiver)
        names, so the client's channels aggregate across shards by design).
        """
        return ChannelStats.merge_all(
            session.engine.stats for session in self._sessions.values()
        )

    def per_shard_stats(self) -> Dict[ShardId, ChannelStats]:
        """Each shard engine's cumulative :class:`ChannelStats`, by shard id."""
        return {
            shard_id: session.engine.stats
            for shard_id, session in self._sessions.items()
        }

    @property
    def pending(self) -> int:
        """Dispatches not yet started plus instances in flight (0 = quiescent)."""
        return sum(session.pending for session in self._sessions.values())

    def health(self) -> Dict[ShardId, ShardHealth]:
        """Every shard's replica liveness, as currently believed.

        Passive: reports what traffic-driven detection (and any
        :meth:`probe` calls) have established so far, without sending a
        message.  A replica the cluster has never seen fail is ``"up"``.

        Returns:
            ``{shard_id: ShardHealth}`` for every live shard; a shard with a
            demoted backup has ``health()[shard_id].degraded == True``.
        """
        with self._lock:
            return {
                shard_id: session.health()
                for shard_id, session in self._sessions.items()
            }

    # ------------------------------------------------------------ control plane --

    @contextmanager
    def _control(self, what: str, admit: Callable[[], None] = lambda: None) -> Iterator[None]:
        """Own the cluster for one control-plane operation, ``what``.

        Refused, in this order, when the cluster is closed
        (:class:`ClusterClosed`), busy with another operation
        (:class:`ClusterRebalancing`), refused by the caller's own
        ``admit`` check (run under ``_lock``), or not quiescent
        (:class:`RuntimeError`).  Submits racing the operation are refused
        with :class:`ClusterRebalancing` until it ends, however it ends.
        """
        with self._lock:
            if self._closed:
                raise ClusterClosed(f"cannot start {what} on a closed ClusterEngine")
            if self._control_op is not None:
                raise ClusterRebalancing(f"cluster is already busy with {self._control_op}")
            admit()
            if self.pending:
                raise RuntimeError(
                    f"{what} requires a quiescent cluster; resolve in-flight "
                    f"futures first ({self.pending} still pending)"
                )
            self._control_op = what
        try:
            yield
        finally:
            with self._lock:
                self._control_op = None

    def add_shard(self, shard_id: Optional[ShardId] = None) -> ShardId:
        """Grow the cluster by one shard and migrate the keys it takes over.

        The rebalance is the graceful path: a new warm session is opened, the
        ring gains the shard's points, and every key whose ring position now
        falls to the new shard is re-put through the ordinary replicated-put
        choreography (so the new shard's replicas are populated with the same
        message discipline as live traffic) and dropped from its old shard's
        replica stores.  Consistent hashing guarantees the surviving shards
        exchange nothing.

        The cluster must be quiescent: callers resolve their in-flight
        Futures first.

        Args:
            shard_id: Id for the new shard; auto-numbered when omitted.

        Returns:
            The new shard's id.

        Raises:
            ClusterClosed: If the cluster is closed.
            ClusterRebalancing: If another control-plane operation owns the
                cluster.  While *this* rebalance runs, racing submits get the
                same typed error instead of a Future that interleaves with
                (or hangs on) the migration.
            RuntimeError: If requests are still in flight (``pending != 0``).
            ValueError: If the shard id is already on the ring.
        """
        with self._control("a shard rebalance"):
            # Keys move as the primaries hold them, so owed decides land first.
            for future in self._deliver(list(self._sessions.values())):
                future.result()
            with self._lock:
                if shard_id is None:
                    for index in itertools.count(len(self._sessions)):
                        shard_id = f"shard{index}"
                        if shard_id not in self._sessions:
                            break
                session = self._open_session(shard_id)
                self.router.add_shard(shard_id)
                self._sessions[shard_id] = session

                # Migrate: the primary's facet of each old shard is
                # authoritative for what that shard holds (control-plane read;
                # the data plane is quiescent).  Moved keys re-enter through
                # the choreographic put.
                moves: List["Future[ChoreographyResult]"] = []
                moved_per_session: List["tuple[_ShardSession, List[str]]"] = []
                for old in self._sessions.values():
                    if old.shard_id == shard_id:
                        continue
                    primary_state = old.state.facet_for(old.primary)
                    moved = [key for key in primary_state
                             if self.router.shard_for(key) == shard_id]
                    moved_per_session.append((old, moved))
                    put, census = session.bindings["put"]
                    for key in moved:
                        moves.append(session.engine.submit(
                            put, args=(key, primary_state[key]), census=census))
            # Copy-then-delete: the old replicas keep every moved key until
            # the new shard has acknowledged all of its re-puts, so a failed
            # migration leaves the data intact at its old home (the ring
            # already points at the new shard, but nothing has been destroyed).
            for future in moves:
                future.result()
            for old, moved in moved_per_session:
                for replica in old.servers:
                    replica_state = old.state.facet_for(replica)
                    for key in moved:
                        replica_state.pop(key, None)
            return shard_id

    def close(self) -> None:
        """Close every shard session (idempotent); pending work drains first.

        Racing submits that arrive once the flag is set get a typed
        :class:`ClusterClosed` instead of a Future enqueued on a dying
        engine.  Durable stores are flushed and closed *after* their engine
        has drained, so the WAL holds every acknowledged mutation.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            sessions = list(self._sessions.values())
        # The lanes drain, owed decides last, before any engine closes; a
        # decide that cannot go out keeps its commit record, and the next
        # open finishes it forward.
        wait(self._deliver(sessions))
        for session in sessions:
            session.engine.close()
            for facet in session.state.visible_facets().values():
                facet.close()
        txn.close_log(self)

    def __enter__(self) -> "ClusterEngine":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ClusterEngine(shards={list(self.shards)!r}, "
            f"replication={self.replication}, client={self.client!r})"
        )
