"""Sharded key-value service built from census-polymorphic choreographies.

The paper's primitives — parameterized replica groups (one
:func:`~repro.protocols.kvs.replicated` round, instantiated as
:func:`~repro.protocols.kvs.kvs_with_backups` and its siblings), quorum-style
voting, and :func:`~repro.protocols.kvs.resynch` repair — are exactly the
building blocks of a horizontally sharded service.  This package assembles
them:

* :class:`~repro.cluster.router.ShardRouter` — a deterministic
  consistent-hash ring mapping keys to shards (stable under shard
  addition);
* :class:`~repro.cluster.engine.ClusterEngine` — one warm
  :class:`~repro.runtime.engine.ChoreoEngine` per shard, pipelined
  ``submit_*`` calls multiplexed across them, per-shard
  :class:`~repro.runtime.stats.ChannelStats` rolled up cluster-wide, and a
  graceful ``add_shard`` rebalance;
* :class:`~repro.cluster.client.ClusterClient` — the ``put``/``get``/``scan``
  facade, with quorum-read and read-repair options and retrying idempotent
  reads.

The cluster degrades rather than dies — and heals.  A backup that stops
answering is detected (through typed receive timeouts or an active
:meth:`~repro.cluster.engine.ClusterEngine.probe`), demoted, and routed
around via the zero-backup degradation path of
:func:`~repro.protocols.kvs.kvs_with_backups`, with in-flight submits
replayed against the shrunken replica group.  A dead *primary* is failed
over the same way: the senior surviving backup is promoted to head, the
shard's epoch is bumped and stamped into every surviving durable replica's
WAL, every binding is :func:`~repro.protocols.kvs.fenced` so stale-epoch
ones fail with the typed :class:`~repro.protocols.kvs.StaleEpoch` (no split
brain), and the promotion is recorded as a
:class:`~repro.cluster.engine.PromotionReport`.  With a ``durability=``
configuration (:class:`~repro.storage.Durability`) every replica store is
write-ahead logged and snapshotted, and
:meth:`~repro.cluster.engine.ClusterEngine.rejoin_backup` re-admits a
crashed, restarted replica — deposed primaries included, which re-enter as
backups: WAL replay, a hash-verified
:func:`~repro.protocols.kvs.kvs_catchup` transfer, and a re-bind with the
restored membership.  :meth:`~repro.cluster.engine.ClusterEngine.health`
reports per-replica ``up``/``down``/``rejoining`` state plus each shard's
epoch and role assignment.
Cross-shard writes get atomicity through choreographic two-phase commit:
:meth:`~repro.cluster.engine.ClusterEngine.submit_txn` prepares per-key
write intents on every participating shard (a ``kvs_txn`` conclave), logs
the commit verdict durably and answers there; each shard's decide rides its
next ``kvs_txn`` round — all-or-nothing across shards, with
presumed-abort recovery (:meth:`~repro.cluster.engine.ClusterEngine.recover_in_doubt`)
for transactions caught in flight by a coordinator crash.  Aborts surface
as the typed :class:`~repro.cluster.engine.TxnConflict` /
:class:`~repro.cluster.engine.TxnAborted`.
``tests/test_cluster_failover.py``, ``tests/test_cluster_promotion.py``,
``tests/test_cluster_recovery.py``, and ``tests/test_cluster_txn.py``
chaos-test all of this under seeded :class:`~repro.faults.FaultPlan`
schedules.

See ``docs/architecture.md`` for the layer map and the message flow of a
sharded put, ``docs/durability.md`` for the persistence and recovery
walkthrough, ``docs/testing.md`` for the chaos-testing guide, and
``benchmarks/e2e/`` for the workloads that measure it end to end.
"""

from .client import ClusterClient
from .engine import (
    ClusterClosed,
    ClusterEngine,
    ClusterRebalancing,
    PromotionReport,
    RejoinError,
    RejoinReport,
    ShardHealth,
    TxnAborted,
    TxnConflict,
    TxnResult,
    rejoin_backup,
)
from .router import DEFAULT_VNODES, ShardRouter

__all__ = [
    "DEFAULT_VNODES",
    "ClusterClient",
    "ClusterClosed",
    "ClusterEngine",
    "ClusterRebalancing",
    "PromotionReport",
    "RejoinError",
    "RejoinReport",
    "ShardHealth",
    "ShardRouter",
    "TxnAborted",
    "TxnConflict",
    "TxnResult",
    "rejoin_backup",
]
