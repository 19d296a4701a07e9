"""The blocking facade over a sharded cluster.

:class:`ClusterEngine` speaks in choreography runs; an application wants a
key-value API.  :class:`ClusterClient` is that thin layer: ``put``/``get``
return plain values (blocking), and ``scan`` issues one per-shard scan
choreography and merges the sorted results.  Pipelined traffic submits
straight to the cluster: ``kvs.cluster.submit_put/get/delete/txn`` return
Futures (of :class:`~repro.protocols.kvs.Response`, or of a
:class:`~repro.cluster.TxnResult`).

The client either *wraps* an existing :class:`ClusterEngine` (borrowed —
``close()`` leaves it open) or *builds* one from the same keyword options
(owned — ``close()`` tears it down)::

    with ClusterClient(shards=4, replication=2) as kvs:
        kvs.put("user:42", "ada")
        kvs.get("user:42")            # -> "ada"
        kvs.get("user:42", quorum=True)
        kvs.scan("user:")             # -> [("user:42", "ada")]

The blocking read paths are **retrying**: ``get`` and ``scan`` are
idempotent, so when a shard run fails under them — a transient connect
failure, a replica dying mid-read before the cluster's failover has demoted
it — the client simply re-issues the request (``retries`` times) against the
possibly-degraded shard rather than surfacing a failure the next attempt
would not reproduce.  ``retries`` applies **only** to those idempotent
reads: ``put``, ``delete``, ``batch``, and ``txn`` are *never* auto-retried
here, whatever ``retries`` says.  The cluster layer already replays writes
whose failure is attributable to a dead backup, blindly re-running a write
that failed for any other reason could double-apply it, and re-running a
transaction would re-contend for intents its own first attempt may still
hold.  A retried read costs the client nothing extra per attempt beyond the
re-issue: a quorum ``get`` is still exactly two client-side messages per
attempt (key out, majority answer back — the quorum traffic stays inside
the replica conclave).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.errors import ChoreographyRuntimeError
from ..protocols.kvs import Request, Response, ResponseKind
from .engine import ClusterEngine, ShardHealth
from .router import ShardId
from .txn import TxnResult


class ClusterClient:
    """``put``/``get``/``scan`` over a sharded, replicated KVS cluster.

    Args:
        cluster: An existing :class:`ClusterEngine` to borrow.  When omitted,
            a cluster is built from the remaining keyword options and owned
            by this client.
        retries: How many times the blocking ``get``/``scan`` paths re-issue
            an idempotent read whose shard run failed (see the module
            docstring); ``0`` disables client-side retry.  Writes —
            ``put``/``delete``/``batch``/``txn`` — ignore this knob and are
            never auto-retried by the client.
        **cluster_options: Forwarded to :class:`ClusterEngine` when building
            (``shards=``, ``replication=``, ``backend=``, ...).

    Raises:
        ValueError: If both a pre-built cluster and build options are given,
            or ``retries`` is negative.
    """

    def __init__(self, cluster: Optional[ClusterEngine] = None, *,
                 retries: int = 2, **cluster_options: Any):
        if cluster is not None and cluster_options:
            raise ValueError(
                "pass either a pre-built ClusterEngine or build options, not both"
            )
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries!r}")
        if cluster is None:
            cluster = ClusterEngine(**cluster_options)
            self._owns_cluster = True
        else:
            self._owns_cluster = False
        self.cluster = cluster
        self.retries = retries

    def _retrying_read(self, attempt: Callable[[], Any]) -> Any:
        """Run an idempotent read, re-issuing it on choreography failure."""
        for _ in range(self.retries):
            try:
                return attempt()
            except ChoreographyRuntimeError:
                continue
        return attempt()

    # ---------------------------------------------------------- blocking surface --

    def put(self, key: str, value: str) -> Optional[str]:
        """Store ``value`` under ``key``, replicated across the shard.

        Returns:
            The previous value bound to ``key``, or ``None`` for a fresh key.
        """
        response = self.cluster.submit_put(key, value).result()
        return response.value if response.kind is ResponseKind.FOUND else None

    def get(
        self, key: str, *, quorum: bool = False, read_repair: bool = True
    ) -> Optional[str]:
        """Read ``key`` from its shard.

        Args:
            key: The key to read.
            quorum: Ask every replica and take the majority answer instead of
                trusting the shard primary alone.
            read_repair: With ``quorum``, resynchronise the replicas from the
                primary when their answers diverge.

        Returns:
            The value, or ``None`` when the key is unbound.

        A failed shard run is transparently re-issued up to ``retries``
        times (reads are idempotent); the final attempt's failure, if any,
        propagates.
        """
        response = self._retrying_read(
            lambda: self.cluster.submit_get(
                key, quorum=quorum, read_repair=read_repair).result()
        )
        return response.value if response.kind is ResponseKind.FOUND else None

    def delete(self, key: str) -> Optional[str]:
        """Unbind ``key`` across its shard's replica group.

        A write, so it is not retried here (see the module docstring); the
        cluster layer's dead-backup replay still applies.

        Returns:
            The value that was bound to ``key``, or ``None`` when the key
            was already absent.
        """
        response = self.cluster.submit_delete(key).result()
        return response.value if response.kind is ResponseKind.FOUND else None

    def batch(self, requests: Sequence[Request]) -> List[Response]:
        """Serve a mixed Put/Get batch, one group-commit round per shard.

        The throughput-shaped entry point: requests are routed by key,
        grouped, and served by one
        :func:`~repro.protocols.kvs.kvs_serve_batch` instance per touched
        shard (see :meth:`ClusterEngine.submit_batch_answers`).  Per-key
        order within the batch is preserved.

        Args:
            requests: Any mix of :meth:`Request.put` / :meth:`Request.get` /
                :meth:`Request.delete`.

        Returns:
            One :class:`Response` per request, in the order given.
        """
        return self.cluster.submit_batch_answers(requests).result()

    def txn(
        self,
        requests: Sequence[Request],
        *,
        expects: "Optional[Dict[str, Optional[str]]]" = None,
        txn_id: Optional[str] = None,
    ) -> TxnResult:
        """Atomically apply a multi-key write set, across shards, or nothing.

        Two-phase commit over the participating shards
        (:meth:`ClusterEngine.submit_txn`), answered at the commit point:
        every write in ``requests`` commits — atomically per shard, all
        shards or none, visible to anything issued after this returns — or
        the transaction aborts with a typed error and nothing is applied.

        A transaction is *never* auto-retried, whatever ``retries`` says: a
        conflict is an answer (re-read, rebuild the write set, try a fresh
        transaction), and a failure mid-commit must surface rather than
        re-contend for the intents the first attempt may still hold.

        Args:
            requests: The write set — :meth:`Request.put` /
                :meth:`Request.delete` only.
            expects: Optimistic-concurrency guards: ``key ->`` the committed
                value the caller read (``None`` expects the key unbound).
                Any mismatch at prepare time aborts the transaction.
            txn_id: Pin the transaction id (tests); auto-generated when
                omitted.

        Returns:
            The :class:`~repro.cluster.TxnResult` on commit.

        Raises:
            TxnConflict: A shard refused the prepare — conflicting write
                intent or failed ``expects`` guard; nothing was applied.
            TxnAborted: A participant failed in a way failover could not
                heal; nothing was committed.
        """
        return self.cluster.submit_txn(requests, expects=expects, txn_id=txn_id).result()

    def scan(self, prefix: str = "") -> List[Tuple[str, str]]:
        """All bindings under ``prefix``, across every shard, in key order.

        One scan choreography runs per shard (they pipeline concurrently),
        merged by :meth:`ClusterEngine.submit_scan_items`.

        Returns:
            The matching ``(key, value)`` pairs, sorted by key.

        Like ``get``, a scan is idempotent and re-issued (whole) up to
        ``retries`` times when any shard's run fails.
        """
        return self._retrying_read(lambda: self.cluster.submit_scan_items(prefix).result())

    # ------------------------------------------------------------------ plumbing --

    @property
    def stats(self):
        """Cluster-wide :class:`~repro.runtime.stats.ChannelStats` rollup."""
        return self.cluster.stats

    @property
    def shards(self) -> Tuple[ShardId, ...]:
        """The live shard ids."""
        return self.cluster.shards

    def health(self) -> Dict[ShardId, ShardHealth]:
        """Per-shard replica liveness (see :meth:`ClusterEngine.health`)."""
        return self.cluster.health()

    def close(self) -> None:
        """Close the cluster if this client built it; otherwise leave it open."""
        if self._owns_cluster:
            self.cluster.close()

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()
