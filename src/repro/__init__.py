"""repro — census-polymorphic choreographic programming for Python.

A reproduction of "Efficient, Portable, Census-Polymorphic Choreographic
Programming" (Bates et al., PLDI 2025), grown into a service-shaped system.

The sixty-second tour: write one global program against the ``ChoreoOp``
operator record, decorate it, and run it on a persistent engine session —
the same object serves every backend (threads, TCP, simulated, centralized)
and pipelines independent instances::

    from repro import ChoreoEngine, choreography

    @choreography(census=["buyer", "seller"])
    def bookstore(op, title):
        wanted = op.locally("buyer", lambda _un: title)
        request = op.comm("buyer", "seller", wanted)
        price = op.locally("seller", lambda un: 80 if un(request) else None)
        return op.broadcast("seller", price)

    with ChoreoEngine(["buyer", "seller"], backend="tcp") as engine:
        result = engine.run(bookstore, args=("TAPL",))     # blocking
        future = engine.submit(bookstore, args=("HoTT",))  # pipelined

(``examples/quickstart.py`` is the runnable version; ``docs/api.md``
documents the execution surface and ``docs/architecture.md`` the layering.)

The package provides:

* :mod:`repro.core` — locations, censuses, multiply-located values, faceted
  values, quires, and the ``ChoreoOp`` operator record (EPP-as-DI).
* :mod:`repro.chor` — the ``@choreography`` decorator making choreographies
  first-class, runnable, checkable objects (``.run()``, ``.check()``,
  ``.cost()``, ``.bind()``).
* :mod:`repro.runtime` — persistent :class:`ChoreoEngine` sessions over
  five named backends, coalescing transports, and the centralized
  reference semantics.
* :mod:`repro.cluster` — the sharded KVS service layer: a consistent-hash
  :class:`ShardRouter`, a :class:`ClusterEngine` multiplexing one warm
  engine per shard — with dead-replica detection, backup demotion, primary
  failover (epoch-fenced promotion of the senior surviving backup, recorded
  as :class:`PromotionReport`), crash-restart replica re-join
  (its ``rejoin_backup``), choreographic two-phase commit for cross-shard
  transactions (``submit_txn``, with a durable coordinator decision log and
  presumed-abort in-doubt recovery), and ``health()``/``probe()`` — and the
  :class:`ClusterClient` ``put/get/delete/scan/txn`` facade with quorum
  reads, read repair, and retrying idempotent reads.
* :mod:`repro.gateway` — the network front door: a RESP-like TCP protocol
  served by :class:`~repro.gateway.GatewayServer` over the cluster, with
  per-connection backpressure, cluster-wide ``BUSY`` admission shedding,
  ``MULTI .. EXEC`` transactions, structured JSON error frames, graceful
  drain, and the :class:`~repro.gateway.GatewayClient` wire client.
* :mod:`repro.storage` — per-replica persistence: the checksum-framed
  :class:`WriteAheadLog` with torn-tail repair and fsync policies, atomic
  :class:`SnapshotStore` checkpoints, and the :class:`~repro.storage.DurableState`
  store behind ``ClusterEngine(durability=...)``.
* :mod:`repro.faults` — deterministic fault injection: a seedable
  :class:`FaultPlan` DSL (delay jitter, bounded cross-channel reorder,
  crashes — now with restart/revive for recovery testing — and transient
  connect failures) behind the ``faults=`` backend option, reproducing
  identical message schedules from identical seeds.
* :mod:`repro.baselines` — a HasChor-style broadcast-KoC baseline.
* :mod:`repro.formal` — the λC / λL / λN formal model and property checkers.
* :mod:`repro.protocols` — the case studies: replicated KVS (with quorum
  reads and scans), DPrio lottery, and the GMW secure-computation protocol.
* :mod:`repro.analysis` — the pre-run checker, communication-cost model, and
  the Table-1 feature matrix.
"""

from .chor import ChoreographyDef, choreography
from .cluster import (
    ClusterClient,
    ClusterClosed,
    ClusterEngine,
    ClusterRebalancing,
    PromotionReport,
    RejoinError,
    RejoinReport,
    ShardHealth,
    ShardRouter,
    TxnAborted,
    TxnConflict,
    TxnResult,
)
from .core import (
    ABSENT,
    Census,
    CensusError,
    ChoreoOp,
    Choreography,
    ChoreographyError,
    ChoreographyRuntimeError,
    ChoreoTimeout,
    Faceted,
    Located,
    Location,
    OwnershipError,
    PlaceholderError,
    ProjectedOp,
    Quire,
    TransportError,
    as_census,
    project,
    single,
)
from .faults import FaultPlan
from .gateway import GatewayClient, GatewayError, GatewayServer, GatewaySettings
from .protocols.kvs import ShardEpoch, StaleEpoch
from .storage import Durability, DurableState, SnapshotStore, WriteAheadLog
from .runtime import (
    AsyncioTCPTransport,
    CentralBackend,
    CentralOp,
    ChannelStats,
    ChoreoEngine,
    ChoreographyResult,
    LocalTransport,
    SimulatedNetworkTransport,
    TCPTransport,
    run_centralized,
)

__version__ = "1.8.0"


__all__ = [
    "ABSENT",
    "AsyncioTCPTransport",
    "Census",
    "CensusError",
    "CentralBackend",
    "CentralOp",
    "ChannelStats",
    "ChoreoEngine",
    "ChoreoOp",
    "ChoreoTimeout",
    "Choreography",
    "ChoreographyDef",
    "ChoreographyError",
    "ChoreographyResult",
    "ChoreographyRuntimeError",
    "ClusterClient",
    "ClusterClosed",
    "ClusterEngine",
    "ClusterRebalancing",
    "Durability",
    "DurableState",
    "Faceted",
    "FaultPlan",
    "GatewayClient",
    "GatewayError",
    "GatewayServer",
    "GatewaySettings",
    "LocalTransport",
    "Located",
    "Location",
    "OwnershipError",
    "PlaceholderError",
    "ProjectedOp",
    "PromotionReport",
    "Quire",
    "RejoinError",
    "RejoinReport",
    "ShardEpoch",
    "ShardHealth",
    "ShardRouter",
    "SimulatedNetworkTransport",
    "SnapshotStore",
    "StaleEpoch",
    "TCPTransport",
    "TransportError",
    "TxnAborted",
    "TxnConflict",
    "TxnResult",
    "WriteAheadLog",
    "as_census",
    "choreography",
    "project",
    "run_centralized",
    "single",
    "__version__",
]
