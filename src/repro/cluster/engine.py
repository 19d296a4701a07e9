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
  together as one ``read`` or ``serve`` instance when it settles; per-key
  linearizability rests on the fold's ordering rules (``_flush``);
* the data plane is pure choreography — puts replicate through
  :func:`~repro.protocols.kvs.kvs_with_backups`, quorum reads and
  read-repair through :func:`~repro.protocols.kvs.kvs_quorum_get`, other
  reads through :func:`~repro.protocols.kvs.primary_read` — so every
  message a shard sends is visible in its engine's
  :class:`~repro.runtime.stats.ChannelStats`, and the cluster-wide rollup
  is their :meth:`~repro.runtime.stats.ChannelStats.merge_all`.

The cluster also owns the **degradation story** a production deployment
needs when a replica dies mid-traffic:

* a failed shard run is attributed to a culprit by following the chain of
  typed receive-timeout blames (:class:`~repro.core.errors.ChoreoTimeout`
  records who waited on whom) across the instance's per-location failures;
* a culprit that is a *backup* is marked down and the shard's choreographies
  are re-bound through :func:`~repro.protocols.kvs.kvs_with_backups`'s
  zero-backup degradation path — census polymorphism is the failover
  mechanism, no new protocol is needed;
* the failed submit (and any other in-flight submit the dead backup takes
  down) is **replayed** against the degraded binding, so callers' Futures
  resolve with real results instead of the crash;
* :meth:`ClusterEngine.health` reports per-replica up/down state, and
  :meth:`ClusterEngine.probe` actively checks liveness with the two-message
  :func:`~repro.protocols.kvs.kvs_ping` choreography.

Demotion is no longer forever.  With a ``durability=`` configuration every
replica's store is a :class:`~repro.storage.DurableState` — mutations are
write-ahead logged and periodically snapshotted (``docs/durability.md``) —
and a crashed backup can come all the way back:
:meth:`ClusterEngine.rejoin_backup` restarts the replica's store from disk
(snapshot + WAL-suffix replay), closes the gap to the primary with the
hash-verified :func:`~repro.protocols.kvs.kvs_catchup` choreography, and
re-binds the shard with the restored membership — the replica's
:class:`ShardHealth` status walks ``down → rejoining → up``.  Re-join works
without durability too (the catch-up degrades to a full transfer), so the
same control-plane call heals ephemeral clusters.

A dead *primary* no longer fails loudly: when the blame chain sinks at the
shard's head, the cluster **promotes the senior surviving backup** — the
first remaining backup in census order, whose store is authoritative by the
ack-before-apply invariant — stamps a monotonically increasing **shard
epoch** (persisted as a WAL promotion record on every surviving durable
replica, so a cluster restart recovers the promoted head), re-binds the
shard's choreographies around the new head, and replays the in-flight
submits that died with the old one (:class:`PromotionReport` extends the
``failovers`` audit trail).  Bindings from before the promotion are fenced:
they carry their epoch and fail with the typed
:class:`~repro.protocols.kvs.StaleEpoch` before any message moves, so a
zombie old primary can never serve a read or acknowledge a write
(split-brain fence).  The deposed head re-joins *as a backup* through the
ordinary :meth:`ClusterEngine.rejoin_backup` path — its diverged suffix is
exactly the case the hash-verified full-transfer fallback of
:func:`~repro.protocols.kvs.kvs_catchup` exists for.  Only a shard whose
last replica dies still fails loudly; see ``docs/testing.md`` for the chaos
suite that pins all of this down.

Multi-key atomicity crosses shards with **choreographic two-phase commit**:
:meth:`ClusterEngine.submit_txn` plays the coordinator over the existing
warm engines — one :func:`~repro.protocols.kvs.kvs_txn` round per
participating shard parks the write set as replicated, WAL-logged intents
and votes, the commit verdict is durably recorded in the coordinator's
decision log (the commit point, where the caller's Future resolves), and
each shard's decide rides the next instance dispatched to it, which lands
the writes atomically or rolls the intents back.  Every round rides the
same failover/replay machinery as any other shard op, aborts are presumed
(only commits are logged; :meth:`recover_in_doubt` resolves survivors on a
cold restart, intent expiry handles a dead coordinator on a live one), and
refusals surface as typed :class:`TxnConflict` / :class:`TxnAborted`.

:class:`~repro.cluster.client.ClusterClient` wraps this with a blocking
``put/get/scan/txn`` facade; ``benchmarks/e2e/`` drives it with a 95/5
group-commit workload and a durable 2PC transfer workload.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from concurrent.futures import Future, wait
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from ..chor import ChoreographyDef
from ..core.errors import ChoreographyRuntimeError, ChoreoTimeout
from ..core.located import Faceted
from ..core.locations import Census, Location, as_census
from ..core.ops import Choreography
from ..protocols.kvs import (
    WRITE_KINDS,
    CatchupReport,
    Decide,
    Request,
    RequestKind,
    Response,
    ResponseKind,
    ShardEpoch,
    StaleEpoch,
    State,
    fenced,
    kvs_catchup,
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
from ..storage import (
    Durability,
    DurableState,
    EphemeralState,
    promotion_of,
    txns_of,
)
from .router import DEFAULT_VNODES, ShardId, ShardRouter

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


class RejoinError(RuntimeError):
    """A replica re-join could not run or could not be verified."""


class TxnAborted(RuntimeError):
    """A cross-shard transaction aborted instead of committing.

    Raised from the transaction's Future (``ClusterEngine.submit_txn``) and
    the blocking ``ClusterClient.txn``.  Nothing was applied anywhere: a
    prepare that failed or was refused leads to an abort decide owed to
    every participant, which drops the parked intents.  The transaction as issued
    is safe to retry — under a fresh ``txn_id`` — once the condition that
    aborted it (a conflicting transaction, a mid-prepare crash) has passed.
    """

    def __init__(self, txn_id: str, reason: str):
        self.txn_id = txn_id
        self.reason = reason
        super().__init__(f"transaction {txn_id!r} aborted: {reason}")


class TxnConflict(TxnAborted):
    """A transaction's prepare was refused: conflicting keys, nothing applied.

    The :class:`TxnAborted` subtype for the *expected* abort: another
    prepared transaction holds a write intent on one of this transaction's
    keys, or an ``expects`` guard no longer matches the committed value
    (the optimistic-concurrency signal of a read-modify-write transaction —
    re-read and retry).  :attr:`keys` names the blocking keys.
    """

    def __init__(self, txn_id: str, keys: Sequence[str]):
        self.keys: Tuple[str, ...] = tuple(keys)
        super().__init__(txn_id, f"conflict on {', '.join(self.keys)}")


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


def _fan_out(done: "Future[List[Response]]", futures: Sequence["Future[Response]"]) -> None:
    """Answer one Future per request from an instance's list of answers."""
    try:
        answers = done.result()
    except BaseException as exc:  # noqa: BLE001 - relayed per request
        for future in futures:
            future.set_exception(exc)
        return
    for future, answer in zip(futures, answers):
        future.set_result(answer)


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
    #: The shard's in-flight instances plus queued single requests at
    #: snapshot time — the queue depth behind :attr:`ClusterEngine.pending`:
    #: the signal an admission controller keys off (the gateway sheds load
    #: once the cluster-wide sum passes its high-water mark), and where a
    #: backlog sits, not just that one exists.
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


@dataclass(frozen=True)
class PromotionReport:
    """What one primary failover did: who was deposed, who now serves, when.

    Appended to :attr:`ClusterEngine.promotions` (alongside the
    ``(shard_id, replica)`` entry in :attr:`ClusterEngine.failovers`) the
    moment the promotion commits, before any in-flight submit is replayed —
    the audit trail a chaos run checks.
    """

    shard_id: ShardId
    #: The deposed head (now in the shard's ``down`` list).
    old_primary: Location
    #: The senior surviving backup that took over — the first remaining
    #: backup in census order, authoritative by ack-before-apply.
    new_primary: Location
    #: The shard epoch the promotion stamped (monotonically increasing).
    epoch: int
    #: The replica group serving after the promotion, head first.
    survivors: Tuple[Location, ...]
    #: Wall-clock seconds the promotion itself took (re-bind + WAL stamps).
    promote_seconds: float


@dataclass(frozen=True)
class TxnResult:
    """What a committed cross-shard transaction looked like to the coordinator.

    Only commits produce one, at the commit point — an aborted transaction
    raises :class:`TxnAborted` (or its :class:`TxnConflict` subtype) from
    the Future instead.
    """

    #: The transaction id the intents and decision were recorded under.
    txn_id: str
    #: The shards that prepared and committed, in routing order.
    shards: Tuple[ShardId, ...]
    #: True — present so callers reading a :class:`TxnResult` off a Future
    #: can assert the invariant without knowing the abort story.
    committed: bool = True


@dataclass(frozen=True)
class RejoinReport:
    """What one successful :meth:`ClusterEngine.rejoin_backup` did and cost."""

    shard_id: ShardId
    replica: Location
    #: WAL records the restart replayed from disk (0 for ephemeral stores).
    replayed_records: int
    #: Wall-clock seconds spent reopening + replaying the on-disk state.
    replay_seconds: float
    #: Wall-clock seconds spent in the catch-up choreography.
    catchup_seconds: float
    #: The catch-up transfer mode that stuck: ``"delta"`` or ``"full"``.
    mode: str
    #: True when a delta transfer failed hash verification and the
    #: full-transfer fallback ran instead.
    fell_back: bool


class _ShardSession:
    """One shard's worth of warm machinery: census, engine, state, bound ops."""

    __slots__ = (
        "shard_id", "client", "census", "servers", "primary", "backups", "down",
        "rejoining", "durability", "state", "engine", "fence", "bindings",
        "queue", "folds", "owed", "carrier", "held",
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
        self.backups: List[Location] = self.servers[1:]
        #: Backups demoted out of the replica group, in detection order.
        self.down: List[Location] = []
        #: Demoted backups currently being re-admitted (restart + catch-up).
        self.rejoining: List[Location] = []
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
        #: Single requests (with their callers' Futures) waiting for the fold
        #: in flight, in arrival order; and the folds in flight (>1: forced).
        self.queue: List[Tuple[Request, "Future[Response]"]] = []
        self.folds = 0
        #: Decides this shard is owed and no instance carries yet, in
        #: decision order; those on the carrier in flight (``None``: none is);
        #: and the dispatches waiting behind that carrier, in arrival order.
        self.owed: List[Decide] = []
        self.carrier: Optional[List[Decide]] = None
        self.held: List[tuple] = []

    @property
    def epoch(self) -> int:
        """The shard's current epoch: 0 until a promotion, +1 per promotion."""
        return self.fence.value

    @property
    def put(self) -> ChoreographyDef:
        """The current replicated-put binding (over the whole engine census)."""
        return self.bindings["put"][0]

    def _recover_promoted_head(self) -> None:
        """Reopen under the head the durable promotion records elect.

        Census order says ``servers[0]`` leads — but a promotion may have
        moved the head, and that fact is persisted as WAL promotion records
        (``docs/durability.md``).  The replica reporting the highest
        recovered epoch knows the current head: re-arrange primary/backups
        around it and restore the epoch, so a full cluster restart serves
        from the store that was authoritative at shutdown, not from a
        deposed ``r0``.
        """
        epoch, head = 0, None
        for replica in self.servers:
            replica_epoch, replica_head = promotion_of(self.state.facet_for(replica))
            if replica_epoch > epoch:
                epoch, head = replica_epoch, replica_head
        if epoch > 0 and head in self.servers:
            self.fence.advance(epoch)
            self.primary = head
            self.backups = [s for s in self.servers if s != head]

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
        group = (self.client, self.primary, list(self.backups), self.state)
        members = as_census([self.client, self.primary, *self.backups])
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
        """One replica's store: durable (recovered from disk) or ephemeral.

        Ephemeral stores are :class:`~repro.storage.EphemeralState`, not
        plain dicts: the transaction choreographies need the in-doubt intent
        table either way, and the class degrades to exactly a dict for every
        other choreography.
        """
        if self.durability is None:
            return EphemeralState()
        return self.durability.open_state(self.shard_id, replica)

    def demote_backup(self, replica: Location) -> None:
        """Drop a dead backup from the replica group and re-bind around it."""
        self.backups.remove(replica)
        self.down.append(replica)
        self._bind_data_plane()

    def senior_surviving_backup(self) -> Optional[Location]:
        """The backup next in line for promotion, or ``None`` if none survive.

        The backup list is maintained in census order, so its first entry is
        the *senior* survivor — deterministic across processes and failure
        histories, and authoritative by the ack-before-apply invariant
        (every write the deposed head acknowledged was applied at every
        then-serving backup *first*).
        """
        return self.backups[0] if self.backups else None

    def promote(self, new_primary: Location) -> None:
        """Fail over to ``new_primary``: bump the epoch, fence, re-bind.

        The deposed head joins the ``down`` list (it can re-join later as a
        backup through the ordinary catch-up path); the new epoch is stamped
        into every surviving durable replica's WAL so a cluster restart
        recovers the promoted head; the fence cell advances, invalidating
        every binding made under the old epoch; and the data plane re-binds
        around the new head with the remaining backups.
        """
        deposed = self.primary
        epoch = self.epoch + 1
        self.primary = new_primary
        self.backups.remove(new_primary)
        self.down.append(deposed)
        for replica in (self.primary, *self.backups):
            facet = self.state.facet_for(replica)
            if isinstance(facet, DurableState):
                facet.log_promotion(epoch, new_primary)
        self.fence.advance(epoch)
        self._bind_data_plane()

    # ------------------------------------------------------------------- rejoin --

    def restart_replica_state(self, replica: Location) -> State:
        """Model the replica's process restart: rebuild its store from disk.

        The in-memory facet is discarded — whatever a dead process held in
        RAM is gone — and replaced by a freshly opened store, whose
        construction *is* the recovery replay (snapshot + WAL suffix) when
        the shard is durable, and an empty dict when it is not.  The other
        replicas' facet objects are untouched; only the Faceted wrapper is
        rebuilt, so the caller must re-bind any choreography that should see
        the new facet.
        """
        facets = dict(self.state.visible_facets())
        old = facets.get(replica)
        if isinstance(old, DurableState):
            old.close()
        fresh = self._open_store(replica)
        facets[replica] = fresh
        self.state = Faceted(self.servers, facets)
        return fresh

    def begin_rejoin(self, replica: Location) -> None:
        """Move ``replica`` from the demoted list into the rejoining state."""
        self.down.remove(replica)
        self.rejoining.append(replica)

    def abort_rejoin(self, replica: Location) -> None:
        """A re-join failed: the replica goes back to plain demoted."""
        if replica in self.rejoining:
            self.rejoining.remove(replica)
        if replica not in self.down:
            self.down.append(replica)

    def finish_rejoin(self, replica: Location) -> None:
        """Re-admit ``replica``: restore membership and re-bind the shard.

        The backup list is rebuilt in census order (not append order), so a
        shard that loses and regains replicas converges to the same binding
        it started with — bindings stay deterministic across failure
        histories.  The *current* head is excluded, not ``servers[0]``: after
        a promotion the deposed ``r0`` re-enters here as a backup, senior in
        census order but a backup all the same.
        """
        self.rejoining.remove(replica)
        self.backups = [
            server for server in self.servers
            if server != self.primary
            and server not in self.down and server not in self.rejoining
        ]
        self._bind_data_plane()

    def close_storage(self) -> None:
        """Flush and close every durable facet (no-op for ephemeral shards)."""
        for facet in self.state.visible_facets().values():
            if isinstance(facet, DurableState):
                facet.close()

    def health(self) -> ShardHealth:
        """This shard's current :class:`ShardHealth` snapshot."""

        def status(replica: Location) -> str:
            if replica in self.down:
                return "down"
            if replica in self.rejoining:
                return "rejoining"
            return "up"

        return ShardHealth(
            self.shard_id,
            self.primary,
            {replica: status(replica) for replica in self.servers},
            down=tuple(self.down),
            pending=len(self.queue) + len(self.held) + self.engine.pending,
            epoch=self.epoch,
            roles={
                replica: "primary" if replica == self.primary else "backup"
                for replica in self.servers
            },
        )


def _highest_txn_serial(txn_ids: Iterable[str]) -> int:
    """The largest ``txn-<n>`` serial among ``txn_ids``: auto ids continue
    above the decision record's and every replica's intents' across
    restarts, so a fresh id never matches a record or a stale intent (one a
    demoted backup holds) that recovery resolves by id.  Caller-supplied
    ids are the caller's business."""
    highest = 0
    for txn_id in txn_ids:
        if txn_id.startswith("txn-"):
            try:
                highest = max(highest, int(txn_id[4:]))
            except ValueError:
                pass
    return highest


class ClusterEngine:
    """A sharded KVS service: one warm :class:`ChoreoEngine` per shard.

    Args:
        shards: Shard count (ids default to ``"shard0"`` …) or explicit ids.
        replication: Replicas per shard (primary + ``replication - 1``
            backups); must be at least 1.
        backend: Backend name or factory options understood by
            :class:`~repro.runtime.engine.ChoreoEngine`; every shard gets its
            own backend instance, so shard traffic never shares a transport.
        client: The location name the requesting side uses in every shard
            census.
        vnodes: Consistent-hash ring points per shard
            (:class:`~repro.cluster.router.ShardRouter`).
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
        client: Location = DEFAULT_CLIENT,
        vnodes: int = DEFAULT_VNODES,
        timeout: float = DEFAULT_TIMEOUT,
        durability: "Union[None, str, os.PathLike, Durability]" = None,
        **backend_options: Any,
    ):
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        self.client = client
        self.replication = replication
        # Replay budget: each replay consumes either a membership shrink (a
        # demotion or a promotion — at most replication-1 of those before an
        # unreplicated head) or a stale-epoch retry (a submit whose binding a
        # concurrent promotion invalidated — at most one per promotion), so
        # 2·(replication-1) bounds the chain and it always terminates.
        self._replays = 2 * (replication - 1)
        self.router = ShardRouter(shards, vnodes=vnodes)
        if durability is not None and not isinstance(durability, Durability):
            durability = Durability(root=os.fspath(durability))
        self.durability: Optional[Durability] = durability
        self._backend = backend
        self._timeout = timeout
        self._backend_options = dict(backend_options)
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
        self.promotions: List[PromotionReport] = []
        #: Every successful re-join, in completion order — the recovery side
        #: of the audit trail (guarded by ``_lock``).
        self.rejoins: List[RejoinReport] = []
        #: The coordinator's durable transaction decision record: ``txn_id ->
        #: "commit"``, written *before* any participant learns the verdict.
        #: Only commits are recorded — an absent id means presumed abort —
        #: so a cold restart can resolve every in-doubt participant intent,
        #: and only until every participant has applied them, so the record
        #: does not grow with history (``None`` for ephemeral clusters;
        #: guarded by ``_lock``).
        self._txn_log: Optional[DurableState] = None
        self._txn_counter = itertools.count(1)
        self._sessions: Dict[ShardId, _ShardSession] = {}
        try:
            if durability is not None:
                self._txn_log = DurableState(
                    durability.state_dir("_txn", "coordinator"),
                    fsync=durability.fsync,
                    snapshot_every=durability.snapshot_every,
                )
            for shard_id in self.router.shards:
                self._sessions[shard_id] = self._open_session(shard_id)
            if durability is not None:
                self._txn_counter = itertools.count(_highest_txn_serial(
                    itertools.chain(self._txn_log, *(
                        txns_of(session.state.facet_for(replica))
                        for session in self._sessions.values()
                        for replica in session.servers))) + 1)
                # Opening the cluster *is* crash recovery; that includes
                # resolving transactions a previous incarnation left in
                # doubt, from the decision record just reopened.
                self.recover_in_doubt()
        except BaseException:
            self.close()
            raise

    def _open_session(self, shard_id: ShardId) -> _ShardSession:
        return _ShardSession(
            shard_id, self.client, self.replication,
            self._backend, self._timeout, self._backend_options,
            durability=self.durability,
        )

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

    def _submit(self, shard_id: ShardId, op_name: str,
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
        The shard's queued single requests are sent first.

        Replay is **at-least-once and re-enqueued at failure time**: a
        replayed write lands *behind* anything submitted between its failure
        and its replay, so pipelined batch writes to one key can reorder
        across a replica crash; single requests cannot (:meth:`_flush`).
        """
        outer: "Future[Any]" = Future()
        session = self._sessions[shard_id]
        self._flush(session, force=True)
        send = (op_name, tuple(args), dict(kwargs or {}), outer, self._replays)
        with self._lock:
            self._require_open()
            sent = self._gate(session, send)
        self._watch(session, sent)
        return outer

    def _gate(self, session: _ShardSession, send: tuple) -> List[tuple]:
        """Let ``send`` through the shard's decide gate (``_lock`` held).

        A shard's owed decides ride the next instance dispatched to it: a
        ``txn`` dispatch carries them itself, anything else waits behind a
        decide-only ``txn`` round.  While that *carrier* is in flight (its
        replays included) every other dispatch waits in ``held``, so nothing
        sent after a commit is acknowledged can see the shard without it.
        Returns what was started, for :meth:`_watch`.
        """
        if session.carrier is None and not session.owed:
            return [self._start(session, *send)]
        session.held.append(send)
        return self._release(session)

    def _release(self, session: _ShardSession) -> List[tuple]:
        """Start held dispatches in order, up to the next carrier (``_lock`` held)."""
        sent = []
        while session.held and session.carrier is None:
            op_name, args, kwargs, outer, replays = session.held[0]
            if session.owed:
                session.carrier, session.owed = session.owed, []
                if op_name != "txn":  # a decide-only round goes first
                    sent.append(self._start(session, "txn", (session.carrier, None), {},
                                            Future(), self._replays))
                    continue
                args = (session.carrier, args[1])
            sent.append(self._start(session, op_name, args, kwargs, outer, replays))
            session.held.pop(0)
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

    def _fold(self, request: Request) -> "Future[Response]":
        """Submit one single request: it queues, and :meth:`_flush` sends it."""
        future: "Future[Response]" = Future()
        with self._lock:
            self._require_open()
            session = self._sessions[self.shard_for(request.key)]
            session.queue.append((request, future))
        self._flush(session)
        return future

    def _flush(self, session: _ShardSession, *, force: bool = False) -> None:
        """Send the shard's queued single requests, in order, as one instance.

        The ordering rules behind per-key linearizability: only while no
        fold is in flight, unless ``force``d by a non-folded submit (which
        so never overtakes the queue); and a fold holds the slot until its
        outer Future settles, replays included (:meth:`_unfold`), so no
        later single request overtakes a replayed write.  A lone request
        takes its own binding; more take a ``read`` or ``serve`` batch.
        """
        with self._lock:
            batch = session.queue
            if not batch or (session.folds and not force):
                return
            if len(batch) == 1:  # its own put/get/delete binding
                ((request, _future),) = batch
                op_name = request.kind.value
                args = ((request.key, request.value) if request.kind is RequestKind.PUT
                        else (request.key,))
            else:
                requests = [request for request, _future in batch]
                writes = any(request.kind in WRITE_KINDS for request in requests)
                op_name, args = ("serve" if writes else "read"), (requests,)
            # A lone request's own Future is the fold's; a batch's answers fan out.
            outer: "Future[Any]" = batch[0][1] if len(batch) == 1 else Future()
            sent = self._gate(session, (op_name, args, {}, outer, self._replays))
            # Emptied only once submitted, so ``pending`` never reads 0 between.
            session.queue = []
            session.folds += 1
        outer.add_done_callback(lambda done: self._unfold(session, batch, done))
        self._watch(session, sent)

    def _unfold(self, session: _ShardSession, batch: List[Tuple[Request, "Future[Response]"]],
                done: "Future[Any]") -> None:
        """A fold settled: free its slot, send what queued, answer each request."""
        with self._lock:
            session.folds -= 1
        if session.queue:  # read once the slot is free: a later arrival sends itself
            self._flush(session)
        if len(batch) > 1:
            _fan_out(done, [future for _request, future in batch])

    def _settle(self, done: "Future[ChoreographyResult]", session: _ShardSession,
                op_name: str, args: tuple, kwargs: Dict[str, Any],
                outer: "Future[Any]", replays_left: int) -> None:
        """Resolve ``outer`` from a finished shard run, failing over if due.

        A carrier's decides are delivered once it succeeds; a failed
        carrier replays ahead of everything held behind it, and one that
        gives up leaves its decides owed and fails what it held.
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
            if carried:
                self._delivered(session, carried)
            outer.set_result(value)
            return
        try:
            if replays_left > 0 and self._should_replay(session.shard_id, error):
                send = (op_name, args, kwargs, outer, replays_left - 1)
                with self._lock:
                    self._require_open()
                    sent = ([self._start(session, *send)] if carried
                            else self._gate(session, send))
                self._watch(session, sent)
                return
        except BaseException:  # noqa: BLE001 - replay plumbing failed
            pass  # fall through: the original failure is the honest answer
        if carried:
            with self._lock:
                session.owed[:0] = carried
                session.carrier = None
                held, session.held = session.held, []
            for _op_name, _args, _kwargs, waiting, _replays in held:
                waiting.set_exception(error)
        outer.set_exception(error)

    def _owes(self, txn_id: str) -> bool:
        """Whether any shard is still owed a decide of ``txn_id`` (``_lock`` held)."""
        return any(decide[0] == txn_id for session in self._sessions.values()
                   for decide in itertools.chain(session.owed, session.carrier or ()))

    def _delivered(self, session: _ShardSession, carried: List[Decide]) -> None:
        """A carrier succeeded: its decides are applied at every live replica.

        A commit's record leaves the decision log once no shard still owes
        it, so the log stays the size of what is owed.  Then what waited
        behind the carrier goes out, in order.
        """
        with self._lock:
            session.carrier = None
            if self._txn_log is not None:
                for txn_id, verdict, _writes in carried:
                    if verdict == "commit" and not self._owes(txn_id):
                        self._txn_log.pop(txn_id, None)
            sent = self._release(session)
        self._watch(session, sent)

    def _should_replay(self, shard_id: ShardId,
                       error: ChoreographyRuntimeError) -> bool:
        """Decide whether a failed run warrants a replay, healing first.

        Three replayable conditions, in order of precedence:

        1. the run was **fenced** — it raised
           :class:`~repro.protocols.kvs.StaleEpoch` because a concurrent
           promotion invalidated its binding.  The shard is already healthy
           under the new head; re-dispatching picks up the current-epoch
           binding;
        2. the blame chain sinks at a **backup** — demote it (idempotently)
           and replay against the shrunk replica group;
        3. the blame chain sinks at the **primary** — promote the senior
           surviving backup (idempotently) and replay against the new head.

        ``False`` means the failure is the honest answer: an unattributable
        failure, or a shard whose last replica died.
        """
        if self._is_stale_epoch(error):
            return True
        suspect = self._suspect_replica(shard_id, error)
        if suspect is None:
            return False
        with self._lock:
            session = self._sessions.get(shard_id)
            if session is not None and suspect == session.primary:
                primary_died = True
            else:
                primary_died = False
        if primary_died:
            return self._mark_primary_down(shard_id, suspect)
        return self._mark_backup_down(shard_id, suspect)

    @staticmethod
    def _is_stale_epoch(error: ChoreographyRuntimeError) -> bool:
        """True when the failure bundle is rooted in a stale-epoch fence."""
        failures = getattr(error, "failures", None) or {error.location: error.original}
        return any(
            isinstance(failure, StaleEpoch) for failure in failures.values()
        )

    def _suspect_replica(self, shard_id: ShardId,
                         error: ChoreographyRuntimeError) -> Optional[Location]:
        """The shard replica a failed run points at, or ``None``.

        Walks the chain of receive-timeout blames: every
        :class:`~repro.core.errors.ChoreoTimeout` in the failure bundle says
        *who* gave up waiting on *whom*, and the chain's sink — the location
        everyone else is transitively waiting on, which itself blames nobody
        — is the one that actually went silent.  A crashed location that
        failed outright (a non-timeout error) is its own sink: the engine
        already reports it as the root cause.

        Any replica of the shard may be returned — the current primary
        included, which is how traffic-driven detection triggers a
        promotion.  A silent *client* is never attributed: that failure sits
        on the requesting side and this layer does not mask it.
        """
        failures = getattr(error, "failures", None) or {error.location: error.original}
        blames = {
            waiter: exc.peer
            for waiter, exc in failures.items()
            if isinstance(exc, ChoreoTimeout) and exc.peer is not None
        }
        sink = error.location
        visited = {sink}
        while sink in blames:
            sink = blames[sink]
            if sink in visited:  # a genuine wait cycle: nobody is "the" culprit
                return None
            visited.add(sink)
        with self._lock:
            session = self._sessions.get(shard_id)
            if session is not None and sink in session.servers:
                return sink
        return None

    def _mark_backup_down(self, shard_id: ShardId, replica: Location) -> bool:
        """Record ``replica`` as dead; True when it is (now) confirmed down.

        Idempotent under concurrency: many in-flight runs typically fail on
        the same dead backup at once, and each of them should *replay* —
        only the first one performs the demotion and logs the failover.
        """
        with self._lock:
            session = self._sessions[shard_id]
            if replica in session.down:
                return True
            if replica not in session.backups:
                return False
            session.demote_backup(replica)
            self.failovers.append((shard_id, replica))
            return True

    def _mark_primary_down(self, shard_id: ShardId, replica: Location) -> bool:
        """Fail over a dead primary; True when a replay is warranted.

        Promotes the senior surviving backup (first in census order — its
        store is authoritative by ack-before-apply), stamps the new epoch,
        and records the :class:`PromotionReport`.  Idempotent under
        concurrency exactly like :meth:`_mark_backup_down`: every in-flight
        run that died with the old head calls this, only the first performs
        the promotion, and all of them replay against the new binding.

        Returns ``False`` — fail loudly, no replay — when no backup
        survives: the shard's last replica is gone and masking that would
        turn data loss into silence.
        """
        with self._lock:
            session = self._sessions[shard_id]
            if replica in session.down:
                return True  # a racing settle already promoted past it
            if replica != session.primary:
                return False
            successor = session.senior_surviving_backup()
            if successor is None:
                return False
            started = time.perf_counter()
            session.promote(successor)
            self.failovers.append((shard_id, replica))
            self.promotions.append(PromotionReport(
                shard_id=shard_id,
                old_primary=replica,
                new_primary=successor,
                epoch=session.epoch,
                survivors=(session.primary, *session.backups),
                promote_seconds=time.perf_counter() - started,
            ))
            return True

    def submit_put(self, key: str, value: str) -> "Future[Response]":
        """Enqueue a replicated Put on ``key``'s shard; returns immediately.

        Returns:
            A Future of the client's :class:`~repro.protocols.kvs.Response`:
            the previous binding (``found``) or ``not_found``.  The Put may
            share one instance with other single requests queued on its
            shard (:meth:`_flush`).  If the run fails on a replica that is
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
        per_shard: Dict[ShardId, List[int]] = {}
        for index, request in enumerate(requests):
            # Keyless requests (STOP) have no ring position; route them by
            # the empty key so they deterministically reach one shard and
            # come back answered ``stopped``, as kvs_serve_batch promises.
            per_shard.setdefault(self.shard_for(request.key or ""), []).append(index)
        futures: List["Future[Response]"] = [Future() for _ in requests]
        for shard_id, indices in per_shard.items():
            sub_batch = [requests[index] for index in indices]
            # Kinds are known at dispatch: a sub-batch without writes is a read.
            writes = any(request.kind in WRITE_KINDS for request in sub_batch)
            shard_future = self._submit(
                shard_id, "serve" if writes else "read", args=(sub_batch,))
            shard_future.add_done_callback(
                lambda done, mine=[futures[i] for i in indices]: _fan_out(done, mine))
        return futures

    def submit_txn(
        self,
        requests: Sequence[Request],
        *,
        expects: Optional[Mapping[str, Optional[str]]] = None,
        txn_id: Optional[str] = None,
    ) -> "Future[TxnResult]":
        """Atomically apply a cross-shard write set with two-phase commit.

        The cluster engine is the coordinator; each participating shard's
        replica group is one participant conclave.  Phase one submits a
        :func:`~repro.protocols.kvs.kvs_txn` prepare to every shard the
        write set (or an ``expects`` guard) routes to — each shard votes
        and, when granting, parks the write intent on every replica, WAL-
        first on durable clusters.  When all votes are in, the verdict is
        decided: *commit* iff every shard granted.  A commit is recorded in
        the coordinator's durable decision log **before** any participant
        learns it — the classic 2PC write, and the commit point: the
        Future resolves there.  Phase two gets no instance of its own: each
        participant is *owed* its decide, which rides the next instance
        dispatched to that shard (a later transaction's prepare, or a
        decide-only round sent ahead of any other dispatch), and lands the
        whole per-shard write set atomically (one WAL record) or rolls the
        intent back.  Until that carrier succeeds, every other dispatch to
        the shard waits behind it, so nothing submitted after the Future
        resolves can see the shard without the commit's writes.  Both
        phases ride the ordinary failover machinery, so participant crashes
        and promotions mid-transaction heal exactly like any other shard
        op: the round is replayed against the re-bound group, idempotently
        (a re-prepare of a parked id re-grants; decides are idempotent).

        Aborts are **presumed**: only commits are logged, an in-doubt
        participant whose coordinator record holds nothing is rolled back
        (:meth:`recover_in_doubt` on a cold restart, intent expiry after
        :data:`~repro.storage.TXN_INTENT_TTL` later prepares on a live
        one).  Transactions are never auto-retried — the conflict that
        refused a prepare is a *answer*, not a transient — and nothing in a
        refused or aborted transaction is ever applied.

        Args:
            requests: The write set — Put and Delete requests only (reads
                belong before the transaction; guard them with ``expects``).
            expects: Optional optimistic-concurrency guards, ``key -> the
                committed value the caller read`` (``None`` expects the key
                unbound).  A mismatch at prepare time refuses that shard's
                vote with :class:`TxnConflict`.
            txn_id: Override the auto-generated transaction id (chaos tests
                pin these for deterministic schedules).  Must be unique
                among live transactions.

        Returns:
            A Future resolving at the commit point to a :class:`TxnResult`,
            or raising :class:`TxnConflict` (a refused vote: conflicting
            intent or failed guard) / :class:`TxnAborted` (a participant
            failure the failover machinery could not heal) once the verdict
            is abort; the abort decides are owed like commits.

        Raises:
            ValueError: For an empty write set or a non-write request.
        """
        requests = list(requests)
        if not requests:
            raise ValueError("a transaction needs at least one write")
        for request in requests:
            if request.kind not in WRITE_KINDS:
                raise ValueError(
                    f"transactions carry writes only, got {request.kind!r}; "
                    "read before the transaction and guard with expects="
                )
        if txn_id is None:
            txn_id = f"txn-{next(self._txn_counter)}"
        writes_by_shard: Dict[ShardId, Dict[str, Optional[str]]] = {}
        for request in requests:
            shard_writes = writes_by_shard.setdefault(self.shard_for(request.key), {})
            shard_writes[request.key] = (
                request.value if request.kind is RequestKind.PUT else None
            )
        expects_by_shard: Dict[ShardId, Dict[str, Optional[str]]] = {}
        for key, expected in dict(expects or {}).items():
            expects_by_shard.setdefault(self.shard_for(key), {})[key] = expected
        participants = tuple(
            shard_id for shard_id in self.shards
            if shard_id in writes_by_shard or shard_id in expects_by_shard
        )

        outer: "Future[TxnResult]" = Future()
        votes: Dict[ShardId, Response] = {}
        failures: Dict[ShardId, BaseException] = {}
        remaining = [len(participants)]
        vote_lock = threading.Lock()

        def on_prepared(shard_id: ShardId, done: "Future[Response]") -> None:
            with vote_lock:
                try:
                    votes[shard_id] = done.result()
                except BaseException as exc:  # noqa: BLE001 - becomes the verdict
                    failures[shard_id] = exc
                remaining[0] -= 1
                if remaining[0]:
                    return
            self._decide_phase(
                txn_id, participants, writes_by_shard, votes, failures, outer
            )

        for shard_id in participants:
            prepared = self._submit(
                shard_id, "txn",
                args=([], (txn_id, writes_by_shard.get(shard_id, {}),
                           expects_by_shard.get(shard_id, {}))),
            )
            prepared.add_done_callback(
                lambda done, shard_id=shard_id: on_prepared(shard_id, done)
            )
        return outer

    def _decide_phase(
        self,
        txn_id: str,
        participants: Tuple[ShardId, ...],
        writes_by_shard: Dict[ShardId, Dict[str, Optional[str]]],
        votes: Dict[ShardId, Response],
        failures: Dict[ShardId, BaseException],
        outer: "Future[TxnResult]",
    ) -> None:
        """Resolve the votes into a verdict, owe it, and answer the caller.

        A separate method so the chaos suite can crash the coordinator at
        the worst moment: between the last vote and the decision (patch
        this to do nothing — presumed abort), or between the durable
        decision and the decides (patch to stop after the log write —
        recovery must finish the commit).
        """
        granted = not failures and all(
            vote.kind is ResponseKind.FOUND for vote in votes.values()
        )
        verdict = "commit" if granted else "abort"
        with self._lock:
            if granted and self._txn_log is not None:
                # The decision record is the commit point: once this is on
                # disk, a crashed coordinator's restart finishes the commit;
                # before it, every intent resolves to presumed abort.
                self._txn_log[txn_id] = "commit"
            for shard_id in participants:
                self._sessions[shard_id].owed.append(
                    (txn_id, verdict, writes_by_shard.get(shard_id, {})))
        if granted:
            outer.set_result(TxnResult(txn_id, participants))
            return
        if failures:
            shard_id, cause = next(iter(failures.items()))
            error: TxnAborted = TxnAborted(
                txn_id, f"prepare failed at {shard_id}: {cause}"
            )
            error.__cause__ = cause
        else:
            error = TxnConflict(txn_id, sorted({
                key
                for vote in votes.values()
                if vote.kind is ResponseKind.NOT_FOUND and vote.value
                for key in vote.value.split(",")
            }))
        outer.set_exception(error)

    def _deliver(self, sessions: Sequence[_ShardSession]) -> List["Future[Any]"]:
        """Send the decides these shards are owed, each on a decide-only
        ``txn`` round behind any carrier in flight; one Future per shard,
        done at once where nothing is owed."""
        futures = []
        for session in sessions:
            outer: "Future[Any]" = Future()
            with self._lock:
                sent = self._gate(session, ("txn", ([], None), {}, outer, self._replays))
            self._watch(session, sent)
            futures.append(outer)
        return futures

    def in_doubt(self) -> Dict[ShardId, Dict[str, Dict[str, Any]]]:
        """Every prepared-but-undecided transaction, per shard.

        A control-plane snapshot of the replicas' intent tables (the
        primary's facet speaks for the shard), taken once the decides the
        shards are owed have been delivered: ``{shard_id: {txn_id:
        {"writes": ..., "tick": ...}}}``, empty mappings omitted.  Chaos
        tests assert this drains to nothing — no dangling intents — after
        crashes and recoveries.
        """
        wait(self._deliver(list(self._sessions.values())))
        with self._lock:
            report: Dict[ShardId, Dict[str, Dict[str, Any]]] = {}
            for shard_id, session in self._sessions.items():
                table = txns_of(session.state.facet_for(session.primary))
                if table:
                    report[shard_id] = {
                        txn_id: dict(entry) for txn_id, entry in table.items()
                    }
            return report

    def recover_in_doubt(self) -> Dict[str, str]:
        """Resolve every in-doubt transaction from the durable decision record.

        The coordinator side of 2PC crash recovery, run automatically when a
        durable cluster opens.  Owed decides go out first; then every intent
        still parked on a replica (prepared, then the world went down before
        its decide landed) is owed and delivered *commit* when the decision
        log recorded one, *presumed abort* otherwise, so the resolution
        replicates and WAL-logs like a live decide.  Last, records no shard
        is owed leave the log (one whose decides all landed before a crash
        could otherwise commit a later intent reusing its id).

        Returns:
            ``{txn_id: verdict}`` for every transaction resolved.
        """
        sessions = list(self._sessions.values())
        wait(self._deliver(sessions))
        verdicts: Dict[str, str] = {}
        with self._lock:
            committed = dict(self._txn_log) if self._txn_log is not None else {}
            for session in sessions:
                seen: Dict[str, Dict[str, Optional[str]]] = {}
                for replica in session.servers:
                    for txn_id, entry in txns_of(
                        session.state.facet_for(replica)
                    ).items():
                        seen.setdefault(txn_id, dict(entry["writes"]))
                for txn_id, writes in seen.items():
                    verdicts[txn_id] = committed.get(txn_id) or "abort"
                    session.owed.append((txn_id, verdicts[txn_id], writes))
        for future in self._deliver(sessions):
            future.result()
        with self._lock:
            for txn_id in committed:
                if not self._owes(txn_id):
                    self._txn_log.pop(txn_id, None)
        return verdicts

    def submit_scan(self, prefix: str = "") -> Dict[ShardId, "Future[ChoreographyResult]"]:
        """Enqueue a prefix scan on *every* shard.

        Returns:
            One Future per shard; each resolves to a run whose client value
            is that shard's sorted ``(key, value)`` list.  Merging is the
            caller's business (:meth:`ClusterClient.scan` does a sorted
            merge).
        """
        return {
            shard_id: self._submit(shard_id, "scan", args=(prefix,))
            for shard_id in self.shards
        }

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
        """In-flight instances plus queued single requests (0 = quiescent)."""
        # The queue is read first: _flush submits before it empties it.
        return sum(len(session.queue) + len(session.held) + session.engine.pending
                   for session in self._sessions.values())

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

    def probe(self, shard_id: Optional[ShardId] = None, *,
              demote: bool = True) -> Dict[ShardId, Dict[Location, bool]]:
        """Actively check replica liveness with per-replica ping choreographies.

        Each configured replica (demoted ones included — a probe answering
        from a demoted replica is the operator's cue that the process is back
        and :meth:`rejoin_backup` can re-admit it) is sent one two-message
        :func:`~repro.protocols.kvs.kvs_ping`.  A replica that fails or
        times out is reported dead; probing a dead replica costs one receive
        timeout, so point ``shard_id`` at the shard you care about when the
        cluster is large.

        Args:
            shard_id: Probe only this shard; every shard when ``None``.
            demote: Also act on newly-confirmed-dead replicas, the same
                paths traffic-driven detection takes: a dead *backup* is
                demoted, a dead *primary* triggers a promotion of the senior
                surviving backup (with the usual epoch stamp and re-bind).

        Returns:
            ``{shard_id: {replica: alive}}`` for the probed shards.

        ``alive=False`` means "unreachable from the client", which is not
        proof the replica itself is dead — the failure could sit on the
        client's side of the channel.  Demotion (and promotion) therefore
        reuses the same blame-chain attribution as traffic-driven detection
        (:meth:`_suspect_replica`): only a failure whose blame chain sinks at
        the probed replica acts on it, so a flaky *client* link reports the
        replica unreachable without kicking a healthy replica out of the
        replica group.
        """
        with self._lock:
            if shard_id is None:
                targets = list(self._sessions.values())
            else:
                targets = [self._sessions[shard_id]]
        report: Dict[ShardId, Dict[Location, bool]] = {}
        for session in targets:
            self._flush(session, force=True)  # pings do not overtake the queue
            alive: Dict[Location, bool] = {}
            for replica in session.servers:
                token = f"ping:{session.shard_id}:{replica}"
                culprit: Optional[Location] = None
                try:
                    ping, census = session.bindings[f"ping:{replica}"]
                    result = session.engine.run(ping, args=(token,), census=census)
                    alive[replica] = result.value_at(self.client) == token
                except ChoreographyRuntimeError as failure:
                    alive[replica] = False
                    culprit = self._suspect_replica(session.shard_id, failure)
                if demote and culprit == replica:
                    if replica == session.primary:
                        self._mark_primary_down(session.shard_id, replica)
                    else:
                        self._mark_backup_down(session.shard_id, replica)
            report[session.shard_id] = alive
        return report

    # ------------------------------------------------------------ control plane --

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
        with self._lock:
            if self._closed:
                raise ClusterClosed("cannot rebalance a closed ClusterEngine")
            if self._control_op is not None:
                raise ClusterRebalancing(
                    f"cluster is already busy with {self._control_op}"
                )
            if self.pending:
                raise RuntimeError(
                    "rebalance requires a quiescent cluster; resolve in-flight "
                    f"futures first ({self.pending} still pending)"
                )
            self._control_op = "a shard rebalance"
        try:
            return self._rebalance(shard_id)
        finally:
            with self._lock:
                self._control_op = None

    def _rebalance(self, shard_id: Optional[ShardId]) -> ShardId:
        """The body of :meth:`add_shard`, run with ``_control_op`` held."""
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

            # Migrate: the primary's facet of each old shard is authoritative
            # for what that shard holds (control-plane read; the data plane is
            # quiescent).  Moved keys re-enter through the choreographic put.
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
        # Copy-then-delete: the old replicas keep every moved key until the
        # new shard has acknowledged all of its re-puts, so a failed
        # migration leaves the data intact at its old home (the ring already
        # points at the new shard, but nothing has been destroyed).
        for future in moves:
            future.result()
        for old, moved in moved_per_session:
            for replica in old.servers:
                replica_state = old.state.facet_for(replica)
                for key in moved:
                    replica_state.pop(key, None)
        return shard_id

    def rejoin_backup(self, shard_id: ShardId, replica: Location) -> RejoinReport:
        """Re-admit a demoted replica as a backup: restart, catch up, re-bind.

        The recovery half of the failover story — for demoted backups *and*
        deposed primaries alike: an old head crashed out by a promotion sits
        in the same ``down`` list and comes back through this same call,
        catching up from the replica that usurped it (its diverged suffix is
        what the catch-up's hash-verified full-transfer fallback exists
        for) and re-entering as an ordinary backup, senior in census order.
        The replica must currently be demoted
        (``health()[shard_id].replicas[replica] == "down"``); the call then:

        1. **restarts** the replica's process model — on a fault-injected
           backend its crashed transport endpoints are revived
           (:meth:`~repro.faults.FaultSession.revive`), and its in-memory
           store is discarded and reopened from disk, which replays the
           snapshot + WAL suffix when the cluster is durable;
        2. **catches up** to the primary with the hash-verified
           :func:`~repro.protocols.kvs.kvs_catchup` choreography (a WAL
           delta when possible, a full transfer otherwise);
        3. **re-binds** the shard's data-plane choreographies with the
           restored membership — the same census-polymorphic re-binding
           demotion uses, run in reverse.

        The replica's :class:`ShardHealth` status walks ``down → rejoining →
        up``; on any failure it returns to ``down`` and the shard keeps
        serving degraded, exactly as before the attempt.

        Like :meth:`add_shard`, this is a quiescent-cluster control-plane
        operation: in-flight Futures must be resolved first, and submits
        racing the re-join are refused with :class:`ClusterRebalancing`.

        Args:
            shard_id: The shard whose replica group is being healed.
            replica: The demoted backup to re-admit.

        Returns:
            A :class:`RejoinReport` with the replay/catch-up costs.

        Raises:
            ClusterClosed: If the cluster is closed.
            ClusterRebalancing: If another control-plane operation owns the
                cluster.
            RejoinError: If the replica is the primary or is not demoted, or
                the catch-up transfer could not be verified against the
                primary's store.
            RuntimeError: If requests are still in flight.
        """
        with self._lock:
            if self._closed:
                raise ClusterClosed("cannot rejoin on a closed ClusterEngine")
            if self._control_op is not None:
                raise ClusterRebalancing(
                    f"cluster is already busy with {self._control_op}"
                )
            session = self._sessions[shard_id]
            if replica == session.primary:
                raise RejoinError(
                    f"{replica!r} is the primary of {shard_id!r}; only demoted "
                    "backups can rejoin"
                )
            if replica not in session.down:
                raise RejoinError(
                    f"replica {replica!r} of shard {shard_id!r} is not demoted; "
                    "nothing to rejoin"
                )
            if self.pending:
                raise RuntimeError(
                    "rejoin requires a quiescent cluster; resolve in-flight "
                    f"futures first ({self.pending} still pending)"
                )
            self._control_op = f"rejoining {replica} into {shard_id}"
            session.begin_rejoin(replica)
        try:
            # The catch-up copies the primary, so its owed decides land first.
            self._deliver([session])[0].result()
            # 1. The dead process comes back: revive its crashed transport
            # endpoints (fault-injected backends) and recover its store from
            # disk.  Opening the DurableState *is* the replay.
            faults = getattr(session.engine.transport, "faults", None)
            if faults is not None:
                faults.revive(replica)
            started = time.perf_counter()
            fresh = session.restart_replica_state(replica)
            replayed = getattr(fresh, "replayed_records", 0)
            replay_seconds = time.perf_counter() - started

            # 2. Close the gap to the primary, hash-verified end to end.  The
            # binding names the *current* head and carries the current epoch:
            # a deposed primary re-joining here catches up FROM its usurper,
            # and a promotion racing the transfer fences it like any other
            # stale binding instead of letting it stream from a dead head.
            started = time.perf_counter()
            catchup = fenced(
                ChoreographyDef(kvs_catchup).bind(
                    self.client, session.primary, replica, session.state
                ),
                session.fence,
            )
            report: CatchupReport = session.engine.run(catchup).value_at(self.client)
            catchup_seconds = time.perf_counter() - started
            if not report.verified:
                raise RejoinError(
                    f"catch-up for {replica!r} could not be verified against "
                    f"the primary ({report.mode} transfer, "
                    f"fell_back={report.fell_back})"
                )

            # 3. Restore membership; the shard serves replicated again.  A
            # durable rejoiner is stamped with the current epoch first: a
            # delta transfer replayed the head's promotion records, but a
            # full transfer installs items only, and the re-admitted replica
            # must recover the promoted head on a later cluster restart.
            with self._lock:
                if session.epoch:
                    facet = session.state.facet_for(replica)
                    if isinstance(facet, DurableState):
                        facet.log_promotion(session.epoch, session.primary)
                session.finish_rejoin(replica)
                rejoin = RejoinReport(
                    shard_id=shard_id, replica=replica,
                    replayed_records=replayed, replay_seconds=replay_seconds,
                    catchup_seconds=catchup_seconds, mode=report.mode,
                    fell_back=report.fell_back,
                )
                self.rejoins.append(rejoin)
            return rejoin
        except BaseException:
            with self._lock:
                session.abort_rejoin(replica)
            raise
        finally:
            with self._lock:
                self._control_op = None

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
            txn_log = self._txn_log
        for session in sessions:
            self._flush(session, force=True)  # queued single requests drain too
        # Owed decides go out before any engine closes; one that cannot keeps
        # its commit record, and the next open finishes it forward.
        wait(self._deliver(sessions))
        for session in sessions:
            session.engine.close()
            session.close_storage()
        if txn_log is not None:
            txn_log.close()

    def __enter__(self) -> "ClusterEngine":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ClusterEngine(shards={list(self.shards)!r}, "
            f"replication={self.replication}, client={self.client!r})"
        )


def rejoin_backup(
    cluster: ClusterEngine, shard_id: ShardId, replica: Location
) -> RejoinReport:
    """Re-admit a demoted backup into ``cluster``'s replica group.

    A free-function spelling of :meth:`ClusterEngine.rejoin_backup`, exported
    at the package top level for operator scripts::

        from repro import rejoin_backup
        report = rejoin_backup(cluster, "shard0", "shard0.r1")
    """
    return cluster.rejoin_backup(shard_id, replica)
