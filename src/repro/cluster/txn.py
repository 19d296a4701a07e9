"""The cluster's two-phase-commit coordinator and its decision log.

Multi-key atomicity crosses shards with **choreographic two-phase commit**:
:meth:`~repro.cluster.engine.ClusterEngine.submit_txn` plays the
coordinator over the shards' warm engines — one
:func:`~repro.protocols.kvs.kvs_txn` round per participating shard parks the
write set as replicated, WAL-logged intents and votes, the commit verdict is
durably recorded in the coordinator's decision log (the commit point, where
the caller's Future resolves), and each shard's decide rides the next
instance dispatched to it, which lands the writes atomically or rolls the
intents back.  Every round rides the same failover/replay machinery as any
other shard op, aborts are presumed (only commits are logged;
:func:`recover_in_doubt` resolves survivors on a cold restart, intent expiry
handles a dead coordinator on a live one), and refusals surface as typed
:class:`TxnConflict` / :class:`TxnAborted`.

Each function here takes the cluster first and is bound as a
:class:`~repro.cluster.engine.ClusterEngine` method.  The coordinator's
state lives on the cluster, and only this module reads or writes it:
``_txn_log``, the durable decision record (``txn_id -> "commit"``, written
before any participant learns the verdict, kept only while some shard is
owed the decide, ``None`` for ephemeral clusters; guarded by ``_lock``), and
``_txn_counter``, the source of auto ``txn-<n>`` ids.
"""

from __future__ import annotations

import functools
import itertools
import threading
from concurrent.futures import Future, wait
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, Mapping, Optional, Sequence, Tuple

from ..protocols.kvs import WRITE_KINDS, Decide, Request, RequestKind, Response, ResponseKind
from .router import ShardId

if TYPE_CHECKING:
    from .engine import ClusterEngine


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


def _highest_txn_serial(txn_ids: Iterable[str]) -> int:
    """The largest ``txn-<n>`` serial among ``txn_ids``: auto ids continue
    above the decision record's and every replica's intents' across
    restarts, so a fresh id never matches a record or a stale intent (one a
    demoted backup holds) that recovery resolves by id.  Caller-supplied
    ids are the caller's business."""
    return max((int(txn_id[4:]) for txn_id in txn_ids
                if txn_id.startswith("txn-") and txn_id[4:].isdecimal()), default=0)


def open_log(cluster: ClusterEngine) -> None:
    """Open the decision log and continue auto ids past every serial on
    record; a durable cluster then resolves what a previous incarnation left
    in doubt, since opening it *is* crash recovery."""
    durability = cluster.durability
    cluster._txn_log = None if durability is None else durability.open_state("_txn", "coordinator")
    cluster._txn_counter = itertools.count(1 + _highest_txn_serial(itertools.chain(
        cluster._txn_log or (), *(session.state.facet_for(replica).txns
                                  for session in cluster._sessions.values()
                                  for replica in session.servers))))
    if cluster._txn_log is not None:
        recover_in_doubt(cluster)


def close_log(cluster: ClusterEngine) -> None:
    """Close the decision log, if a session did not fail to open before it."""
    if getattr(cluster, "_txn_log", None) is not None:
        cluster._txn_log.close()


def forget_delivered(cluster: ClusterEngine, carried: Sequence[Decide]) -> None:
    """A carrier landed: drop each commit record it carried that no shard
    is owed any more, so the log keeps only the commits still owed (``_lock``
    held)."""
    if cluster._txn_log is None:
        return
    for txn_id, verdict, _writes in carried:
        if verdict == "commit" and not any(
                decide[0] == txn_id for session in cluster._sessions.values()
                for decide in itertools.chain(session.owed, session.carrier or ())):
            cluster._txn_log.pop(txn_id, None)


def submit_txn(
    cluster: ClusterEngine,
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
    (:func:`recover_in_doubt` on a cold restart, intent expiry after
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
        txn_id = f"txn-{next(cluster._txn_counter)}"
    writes_by_shard: Dict[ShardId, Dict[str, Optional[str]]] = {}
    for request in requests:
        shard_writes = writes_by_shard.setdefault(cluster.shard_for(request.key), {})
        shard_writes[request.key] = (
            request.value if request.kind is RequestKind.PUT else None
        )
    expects_by_shard: Dict[ShardId, Dict[str, Optional[str]]] = {}
    for key, expected in dict(expects or {}).items():
        expects_by_shard.setdefault(cluster.shard_for(key), {})[key] = expected
    participants = tuple(
        shard_id for shard_id in cluster.shards
        if shard_id in writes_by_shard or shard_id in expects_by_shard
    )

    outer: "Future[TxnResult]" = Future()
    outer.set_running_or_notify_cancel()  # refuses cancel(), as every cluster Future
    votes: Dict[ShardId, Response] = {}
    errors: Dict[ShardId, BaseException] = {}
    remaining = [len(participants)]
    vote_lock = threading.Lock()

    # Fed the shard id by partial, not the prepares' Futures: a closure over
    # them would be a cycle through each Future's callback list.
    def on_prepared(shard_id: ShardId, done: "Future[Response]") -> None:
        error = done.exception()
        with vote_lock:  # the last vote in decides, with every prepare done
            if error is None:
                votes[shard_id] = done.result()
            else:
                errors[shard_id] = error
            remaining[0] -= 1
            if remaining[0]:
                return
        failures = {shard: errors[shard] for shard in participants if shard in errors}
        cluster._decide_phase(txn_id, participants, writes_by_shard, votes, failures, outer)

    for shard_id in participants:
        cluster._submit(
            shard_id, "txn",
            args=([], (txn_id, writes_by_shard.get(shard_id, {}),
                       expects_by_shard.get(shard_id, {}))),
        ).add_done_callback(functools.partial(on_prepared, shard_id))
    return outer


def _decide_phase(
    cluster: ClusterEngine,
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
    with cluster._lock:
        if granted and cluster._txn_log is not None:
            # The decision record is the commit point: once this is on
            # disk, a crashed coordinator's restart finishes the commit;
            # before it, every intent resolves to presumed abort.
            cluster._txn_log[txn_id] = "commit"
        for shard_id in participants:
            cluster._sessions[shard_id].owed.append(
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


def in_doubt(cluster: ClusterEngine) -> Dict[ShardId, Dict[str, Dict[str, Any]]]:
    """Every prepared-but-undecided transaction, per shard.

    A control-plane snapshot of the replicas' intent tables (the
    primary's facet speaks for the shard), taken once the decides the
    shards are owed have been delivered: ``{shard_id: {txn_id:
    {"writes": ..., "tick": ...}}}``, empty mappings omitted.  Chaos
    tests assert this drains to nothing — no dangling intents — after
    crashes and recoveries.
    """
    wait(cluster._deliver(list(cluster._sessions.values())))
    with cluster._lock:
        report: Dict[ShardId, Dict[str, Dict[str, Any]]] = {}
        for shard_id, session in cluster._sessions.items():
            table = session.state.facet_for(session.primary).txns
            if table:
                report[shard_id] = {
                    txn_id: dict(entry) for txn_id, entry in table.items()
                }
        return report


def recover_in_doubt(cluster: ClusterEngine) -> Dict[str, str]:
    """Resolve every in-doubt transaction from the durable decision record.

    The coordinator side of 2PC crash recovery, run automatically when a
    durable cluster opens.  Owed decides go out first; then every intent
    still parked on a replica (prepared, then the world went down before
    its decide landed) is owed and delivered *commit* when the decision
    log recorded one, *presumed abort* otherwise, so the resolution
    replicates and WAL-logs like a live decide.  A record no replica
    holds an intent for leaves the log before that delivery, so one whose
    decides all landed before a crash can never commit a later intent
    reusing its id, even when the delivery fails.

    Returns:
        ``{txn_id: verdict}`` for every transaction resolved.
    """
    sessions = list(cluster._sessions.values())
    wait(cluster._deliver(sessions))
    verdicts: Dict[str, str] = {}
    with cluster._lock:
        committed = dict(cluster._txn_log) if cluster._txn_log is not None else {}
        for session in sessions:
            seen: Dict[str, Dict[str, Optional[str]]] = {}
            for replica in session.servers:
                facet = session.state.facet_for(replica)
                for txn_id, entry in facet.txns.items():
                    seen.setdefault(txn_id, dict(entry["writes"]))
            for txn_id, writes in seen.items():
                verdicts[txn_id] = committed.get(txn_id) or "abort"
                session.owed.append((txn_id, verdicts[txn_id], writes))
        for txn_id in committed.keys() - verdicts.keys():
            cluster._txn_log.pop(txn_id, None)
    for future in cluster._deliver(sessions):
        future.result()
    return verdicts
