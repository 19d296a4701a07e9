"""Per-replica persistence: write-ahead log, snapshots, replica stores.

This package is the disk half of the cluster's recovery story
(``docs/durability.md``):

* :class:`WriteAheadLog` — append-only, checksum-framed mutation log with
  torn-tail repair and an ``always | batch | never`` fsync policy knob.
* :class:`SnapshotStore` — atomic write-then-rename checkpoints that bound
  WAL growth and restart replay time.
* :class:`EphemeralState` — the one replica store: a ``dict`` of items plus
  the two-phase-commit intent table and the promotion fence, whose
  :meth:`~EphemeralState.apply` is the one meaning of every store record.
* :class:`DurableState` — the same store with every record write-ahead
  logged, so the KVS choreographies gain persistence without changing a
  single protocol call site.
* :class:`Durability` — the cluster-level configuration
  (``ClusterEngine(..., durability=...)``) mapping shards and replicas to
  on-disk directories.

Both stores answer the ``kvs_catchup`` choreography's questions
(``high_water``, ``ops_since``) and take its transfer through
:func:`apply_catchup`; a store without a log always takes a full transfer,
so re-join works with durability off, too.
"""

from .durable import (
    TXN_INTENT_TTL,
    Durability,
    DurableState,
    EphemeralState,
    apply_catchup,
)
from .snapshot import SnapshotStore
from .wal import FSYNC_POLICIES, WalCorruption, WalRecord, WriteAheadLog

__all__ = [
    "Durability",
    "DurableState",
    "EphemeralState",
    "FSYNC_POLICIES",
    "SnapshotStore",
    "TXN_INTENT_TTL",
    "WalCorruption",
    "WalRecord",
    "WriteAheadLog",
    "apply_catchup",
]
