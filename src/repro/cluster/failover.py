"""Failure attribution, primary promotion and replica re-join for a cluster.

A replica that dies mid-traffic degrades its shard; it does not fail it:

* a failed shard run is attributed to a culprit by following the chain of
  typed receive-timeout blames (:class:`~repro.core.errors.ChoreoTimeout`
  records who waited on whom) across the instance's per-location failures;
* a culprit that is a *backup* is marked down and the shard's choreographies
  are re-bound through :func:`~repro.protocols.kvs.kvs_with_backups`'s
  zero-backup degradation path — census polymorphism is the failover
  mechanism, no new protocol is needed;
* a culprit that is the *primary* is replaced by the senior surviving
  backup — the first remaining backup in census order, whose store is
  authoritative by the ack-before-apply invariant — under a new **shard
  epoch**, persisted as a WAL promotion record on every surviving durable
  replica.  Bindings from before the promotion are fenced: they fail with
  the typed :class:`~repro.protocols.kvs.StaleEpoch` before any message
  moves, so a zombie old primary can never serve (split-brain fence);
* the failed submit (and any other in-flight submit the dead replica takes
  down) is **replayed** against the re-bound group, so callers' Futures
  resolve with real results instead of the crash.  Only a shard whose last
  replica dies still fails loudly.

:func:`probe` checks liveness actively with the two-message
:func:`~repro.protocols.kvs.kvs_ping` choreography, and :func:`rejoin_backup`
brings a demoted replica — a deposed primary included, which re-enters as a
backup — all the way back: its store restarts from disk (snapshot + WAL
replay when durable), the hash-verified
:func:`~repro.protocols.kvs.kvs_catchup` choreography closes the gap to the
primary, and the shard re-binds with the restored membership.

Each function here takes the cluster first and is bound as a
:class:`~repro.cluster.engine.ClusterEngine` method; ``docs/testing.md``
describes the chaos suites that pin all of this down.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..chor import ChoreographyDef
from ..core.errors import ChoreographyRuntimeError, ChoreoTimeout
from ..core.located import Faceted
from ..core.locations import Location
from ..protocols.kvs import CatchupReport, StaleEpoch, fenced, kvs_catchup
from .router import ShardId

if TYPE_CHECKING:
    from .engine import ClusterEngine


class RejoinError(RuntimeError):
    """A replica re-join could not run or could not be verified."""


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
class RejoinReport:
    """What one successful :func:`rejoin_backup` did and cost."""

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


def _should_replay(cluster: ClusterEngine, shard_id: ShardId,
                   error: ChoreographyRuntimeError) -> bool:
    """Decide whether a failed run warrants a replay, healing first.

    Two replayable conditions, in order of precedence:

    1. the run was **fenced** — it raised
       :class:`~repro.protocols.kvs.StaleEpoch` because a concurrent
       promotion invalidated its binding.  The shard is already healthy
       under the new head; re-dispatching picks up the current-epoch
       binding;
    2. the blame chain sinks at a replica — :func:`_mark_down` acts on
       it by its role (demote a backup, promote past a primary) and the
       run replays against the re-bound replica group.

    ``False`` means the failure is the honest answer: an unattributable
    failure, or a shard whose last replica died.
    """
    if any(isinstance(failure, StaleEpoch) for failure in error.failures.values()):
        return True
    suspect = cluster._suspect_replica(shard_id, error)
    return suspect is not None and cluster._mark_down(shard_id, suspect)


def _suspect_replica(cluster: ClusterEngine, shard_id: ShardId,
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
    blames = {
        waiter: exc.peer
        for waiter, exc in error.failures.items()
        if isinstance(exc, ChoreoTimeout) and exc.peer is not None
    }
    sink = error.location
    visited = {sink}
    while sink in blames:
        sink = blames[sink]
        if sink in visited:  # a genuine wait cycle: nobody is "the" culprit
            return None
        visited.add(sink)
    with cluster._lock:
        session = cluster._sessions.get(shard_id)
        if session is not None and sink in session.servers:
            return sink
    return None


def _mark_down(cluster: ClusterEngine, shard_id: ShardId, replica: Location) -> bool:
    """Act on a dead replica; True when a replay is warranted.

    The replica's role is read and acted on under one ``_lock``
    acquisition, so it is acted on by its role at that moment: a dead
    *backup* is dropped from the replica group and the shard re-bound
    around it; a dead *primary* is replaced by the senior surviving
    backup (its store is authoritative by ack-before-apply), with a new
    epoch stamped and a :class:`PromotionReport` recorded.  Both land in
    :attr:`ClusterEngine.failovers`.

    Idempotent under concurrency: many in-flight runs typically fail on
    the same dead replica at once, and each of them should *replay* —
    only the first one acts.  Returns ``False`` — fail loudly, no replay
    — for a replica that is neither (a rejoining one), and for a dead
    primary with no backup left: the shard's last replica is gone and
    masking that would turn data loss into silence.
    """
    with cluster._lock:
        session = cluster._sessions[shard_id]
        if replica in session.down:
            return True  # a racing settle already acted on it
        backups = session.backups
        if replica == session.primary and backups:
            started = time.perf_counter()
            session.promote(backups[0])
            cluster.promotions.append(PromotionReport(
                shard_id=shard_id,
                old_primary=replica,
                new_primary=session.primary,
                epoch=session.epoch,
                survivors=(session.primary, *session.backups),
                promote_seconds=time.perf_counter() - started,
            ))
        elif replica in backups:
            session.down.append(replica)
            session._bind_data_plane()
        else:
            return False
        cluster.failovers.append((shard_id, replica))
        return True


def probe(cluster: ClusterEngine, shard_id: Optional[ShardId] = None
          ) -> Dict[ShardId, Dict[Location, bool]]:
    """Actively check replica liveness with per-replica ping choreographies.

    Each configured replica (demoted ones included — a probe answering
    from a demoted replica is the operator's cue that the process is back
    and :func:`rejoin_backup` can re-admit it) is sent one two-message
    :func:`~repro.protocols.kvs.kvs_ping`.  A replica that fails or
    times out is reported dead; probing a dead replica costs one receive
    timeout, so point ``shard_id`` at the shard you care about when the
    cluster is large.

    A confirmed-dead replica is acted on by the same paths
    traffic-driven detection takes: a dead *backup* is demoted, a dead
    *primary* triggers a promotion of the senior surviving backup (with
    the usual epoch stamp and re-bind).

    Args:
        shard_id: Probe only this shard; every shard when ``None``.

    Returns:
        ``{shard_id: {replica: alive}}`` for the probed shards.

    ``alive=False`` means "unreachable from the client", which is not
    proof the replica itself is dead — the failure could sit on the
    client's side of the channel.  Demotion (and promotion) therefore
    goes through the same :func:`_should_replay` as traffic-driven
    detection: a ping is unfenced and its blame chain sinks at the probed
    replica or nowhere, so only a failure that sinks at the replica acts on
    it, and a flaky *client* link reports the replica unreachable without
    kicking a healthy replica out of the replica group.
    """
    with cluster._lock:
        if shard_id is None:
            targets = list(cluster._sessions.values())
        else:
            targets = [cluster._sessions[shard_id]]
    report: Dict[ShardId, Dict[Location, bool]] = {}
    for session in targets:
        alive: Dict[Location, bool] = {}
        for replica in session.servers:
            token = f"ping:{session.shard_id}:{replica}"
            try:
                ping, census = session.bindings[f"ping:{replica}"]
                result = session.engine.run(ping, args=(token,), census=census)
                alive[replica] = result.value_at(cluster.client) == token
            except ChoreographyRuntimeError as failure:
                alive[replica] = False
                cluster._should_replay(session.shard_id, failure)
        report[session.shard_id] = alive
    return report


def rejoin_backup(cluster: ClusterEngine, shard_id: ShardId, replica: Location) -> RejoinReport:
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

    The replica's :class:`~repro.cluster.engine.ShardHealth` status walks
    ``down → rejoining → up``; on any failure it returns to ``down`` and
    the shard keeps serving degraded, exactly as before the attempt.

    Like :meth:`~repro.cluster.engine.ClusterEngine.add_shard`, this is a
    quiescent-cluster control-plane operation: in-flight Futures must be
    resolved first, and submits racing the re-join are refused with
    :class:`~repro.cluster.engine.ClusterRebalancing`.

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
    def admit() -> None:
        # A promotion only ever picks a serving backup, so the primary is
        # never down.
        if replica not in cluster._sessions[shard_id].down:
            raise RejoinError(
                f"replica {replica!r} of shard {shard_id!r} is not demoted; only "
                "a demoted backup or deposed primary can rejoin"
            )

    with cluster._control(f"the re-join of {replica} into {shard_id}", admit):
        with cluster._lock:
            session = cluster._sessions[shard_id]
            session.down.remove(replica)
            session.rejoining = replica
        try:
            # The catch-up copies the primary, so its owed decides land first.
            cluster._deliver([session])[0].result()
            # 1. The dead process comes back: revive its crashed transport
            # endpoints (fault-injected backends), discard what it held in
            # RAM, and reopen its store.  Opening the DurableState *is* the
            # replay; the other facets are untouched.
            faults = getattr(session.engine.transport, "faults", None)
            if faults is not None:
                faults.revive(replica)
            started = time.perf_counter()
            facets = dict(session.state.visible_facets())
            facets[replica].close()
            facets[replica] = fresh = session._open_store(replica)
            session.state = Faceted(session.servers, facets)
            replay_seconds = time.perf_counter() - started

            # 2. Close the gap to the primary, hash-verified end to end.
            # The binding names the *current* head and carries the current
            # epoch: a deposed primary re-joining here catches up FROM its
            # usurper, and a promotion racing the transfer fences it like
            # any other stale binding instead of letting it stream from a
            # dead head.
            started = time.perf_counter()
            catchup = fenced(ChoreographyDef(kvs_catchup).bind(
                cluster.client, session.primary, replica, session.state), session.fence)
            report: CatchupReport = session.engine.run(catchup).value_at(cluster.client)
            catchup_seconds = time.perf_counter() - started
            if not report.verified:
                raise RejoinError(
                    f"catch-up for {replica!r} could not be verified against "
                    f"the primary ({report.mode} transfer, "
                    f"fell_back={report.fell_back})"
                )

            # 3. Restore membership; the shard serves replicated again.  The
            # rejoiner is stamped with the current epoch first: a
            # delta transfer replayed the head's promotion records, but a
            # full transfer installs items only, and the re-admitted
            # replica must recover the promoted head on a later restart.
            with cluster._lock:
                session.state.facet_for(replica).log_promotion(
                    session.epoch, session.primary)
                session.rejoining = None
                session._bind_data_plane()
                rejoin = RejoinReport(
                    shard_id=shard_id, replica=replica,
                    replayed_records=fresh.replayed_records,
                    replay_seconds=replay_seconds,
                    catchup_seconds=catchup_seconds, mode=report.mode,
                    fell_back=report.fell_back,
                )
                cluster.rejoins.append(rejoin)
            return rejoin
        except BaseException:
            with cluster._lock:
                session.rejoining = None
                session.down.append(replica)
            raise
