"""Durable replica stores: a dict that write-ahead-logs every mutation.

The KVS choreographies mutate replica stores through ordinary dict
operations — ``state[key] = value`` in ``update_state``, ``clear()`` +
``update()`` in ``resynch``, ``pop()`` in ``add_shard``'s migration.
:class:`DurableState` subclasses :class:`dict` and intercepts exactly those
mutators, so wiring persistence into the cluster changes *no protocol call
site*: the choreography code keeps treating state as a plain mapping while
every acknowledged mutation hits the WAL first (write-ahead) and the
in-memory store second.

Layout on disk, one directory per replica::

    <root>/<shard_id>/<replica>/
        snapshot.bin    # latest checkpoint: (seq, full contents)
        wal.bin         # mutations since that checkpoint

Opening the directory *is* crash recovery: load the snapshot, replay the
WAL suffix (records with ``seq`` greater than the snapshot's), and the
store holds exactly the acknowledged state at the moment of death — minus
whatever tail the configured fsync policy was allowed to lose.  Once the
WAL accumulates ``snapshot_every`` records the store checkpoints itself
(snapshot + WAL reset), bounding both file size and restart time.

The module-level helpers (:func:`high_water_of`, :func:`delta_since`,
:func:`apply_catchup`) are the bridge the ``kvs_catchup`` choreography uses:
they degrade gracefully to plain dicts (no durability → no delta, full
transfer) so the same choreography serves durable and ephemeral clusters.

Two-phase commit (the ``kvs_txn`` round's decides and prepare) adds two more
WAL record kinds.  A *prepare* parks a transaction's write set as an
**intent** in the store's in-doubt table without touching the items; a
*decide* resolves it — commit applies the writes atomically (one record,
however many keys), abort just drops the intent.  Both are replayed on
restart, so a crashed participant recovers its prepared-but-undecided
transactions and the cluster layer can resolve them against the
coordinator's durable decision record.  :class:`EphemeralState` gives
non-durable clusters the same intent table minus the disk.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .snapshot import SnapshotStore
from .wal import FSYNC_POLICIES, WalRecord, WriteAheadLog

#: The WAL file's name inside a replica's storage directory.
WAL_FILENAME = "wal.bin"

#: A prepared-transaction intent is presumed aborted — its coordinator died
#: before deciding — once this many *later* prepare attempts have touched the
#: store.  The clock is the count of prepare records (grants and refusals
#: both log one), so expiry is a pure function of the WAL stream and replays
#: identically on every replica and across restarts.
TXN_INTENT_TTL = 16


@dataclass(frozen=True)
class Durability:
    """Cluster-level persistence configuration.

    Args:
        root: Directory under which every replica gets
            ``<root>/<shard_id>/<replica>/``.
        fsync: WAL fsync policy, one of
            :data:`~repro.storage.wal.FSYNC_POLICIES`.
        snapshot_every: Checkpoint after this many WAL records; the knob
            trades write amplification against restart replay time.
    """

    root: str
    fsync: str = "batch"
    snapshot_every: int = 256

    def __post_init__(self) -> None:
        if self.fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync policy must be one of {FSYNC_POLICIES}, got {self.fsync!r}"
            )
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")

    def state_dir(self, shard_id: str, replica: str) -> str:
        """The storage directory for one replica of one shard."""
        return os.path.join(os.fspath(self.root), shard_id, replica)

    def open_state(self, shard_id: str, replica: str) -> "DurableState":
        """Open (and recover) the durable store for ``replica``."""
        return DurableState(
            self.state_dir(shard_id, replica),
            fsync=self.fsync,
            snapshot_every=self.snapshot_every,
        )


class DurableState(dict):
    """A ``Dict[str, str]`` whose mutations are write-ahead logged.

    Construction performs recovery: snapshot load, then WAL-suffix replay.
    :attr:`replayed_records` reports how many WAL records the replay
    applied — the number a restart surfaces as its recovery work.

    Mutations are logged *before* they land in memory; read paths
    (``__getitem__``, ``items``, ``len``, iteration…) are inherited
    untouched, so the choreographies' read-mostly traffic pays nothing.
    """

    def __init__(
        self,
        directory: "str | os.PathLike",
        *,
        fsync: str = "batch",
        snapshot_every: int = 256,
    ):
        super().__init__()
        self.directory = os.fspath(directory)
        self.snapshot_every = int(snapshot_every)
        self.snapshots = SnapshotStore(self.directory)
        snap_seq, contents, meta = self.snapshots.load_with_meta()
        self.shard_epoch = int(meta.get("epoch", 0))
        self.promoted_head: Optional[str] = meta.get("head")
        #: In-doubt transactions: ``txn_id -> {"writes": {key: value-or-None},
        #: "tick": int}`` — prepared but not yet decided.  Carried through
        #: snapshots (like the epoch) and rebuilt by WAL replay, so a crashed
        #: participant reopens with its prepared state intact.
        self.txns: Dict[str, Dict[str, Any]] = {
            txn_id: {"writes": dict(entry["writes"]), "tick": int(entry["tick"])}
            for txn_id, entry in meta.get("txns", {}).items()
        }
        #: The intent clock: how many prepare attempts this store has seen.
        self.txn_tick = int(meta.get("txn_tick", 0))
        dict.update(self, contents)
        self.wal = WriteAheadLog(
            os.path.join(self.directory, WAL_FILENAME), fsync=fsync
        )
        # A fresh WAL (reset after the snapshot, or torn back to empty) has
        # forgotten the snapshot's sequence number; appends must continue
        # after it, not restart from 1.
        if self.wal.last_seq < snap_seq:
            self.wal.last_seq = snap_seq
        self._snapshot_seq = snap_seq
        replayed = 0
        for seq, op in self.wal.records(since=snap_seq):
            self._apply_raw(op)
            replayed += 1
        self.replayed_records = replayed

    # ------------------------------------------------------------------ recovery --

    def _apply_raw(self, op: Tuple[Any, ...]) -> None:
        """Apply a WAL op to memory only (replay path: already logged)."""
        kind = op[0]
        if kind == "put":
            dict.__setitem__(self, op[1], op[2])
        elif kind == "del":
            dict.pop(self, op[1], None)
        elif kind == "clear":
            dict.clear(self)
        elif kind == "seal":
            pass  # sequence-number jump only; no state change
        elif kind == "promote":
            # ("promote", epoch, head): primary failover fence.  No item
            # mutation — it records which replica owns the shard from which
            # epoch on, so recovery reopens the correct head.  Epochs are
            # monotone; a stale record (delta replay of old history) loses.
            if int(op[1]) > self.shard_epoch:
                self.shard_epoch = int(op[1])
                self.promoted_head = op[2]
        elif kind == "txn_prepare":
            # ("txn_prepare", txn_id, writes, granted): two-phase commit,
            # phase one.  Every attempt — granted or refused — advances the
            # intent clock, and intents older than TXN_INTENT_TTL later
            # attempts are presumed aborted and dropped; a granted attempt
            # then parks its write set as this store's intent.  No item is
            # touched until the decide.
            self.txn_tick += 1
            horizon = self.txn_tick - TXN_INTENT_TTL
            for stale in [t for t, e in self.txns.items() if e["tick"] <= horizon]:
                del self.txns[stale]
            if op[3]:
                self.txns[op[1]] = {"writes": dict(op[2]), "tick": self.txn_tick}
        elif kind == "txn_decide":
            # ("txn_decide", txn_id, verdict, writes): phase two.  Commit
            # applies the write set atomically — one record, however many
            # keys — and the record carries the writes itself, so a replica
            # that never saw the prepare (a full-transfer rejoiner, an
            # already-expired intent) still lands the commit.  Abort just
            # drops the intent.
            entry = self.txns.pop(op[1], None)
            if op[2] == "commit":
                writes = dict(op[3]) or dict((entry or {}).get("writes", {}))
                for key, value in writes.items():
                    if value is None:
                        dict.pop(self, key, None)
                    else:
                        dict.__setitem__(self, key, value)
        else:
            raise ValueError(f"unknown WAL op kind {kind!r}")

    @property
    def high_water(self) -> int:
        """The last logged sequence number (what a rejoiner reports)."""
        return self.wal.last_seq

    def _meta(self) -> Dict[str, Any]:
        """The non-item metadata a snapshot must carry to survive WAL resets."""
        meta: Dict[str, Any] = {}
        if self.shard_epoch:
            meta["epoch"] = self.shard_epoch
            meta["head"] = self.promoted_head
        if self.txn_tick:
            meta["txn_tick"] = self.txn_tick
        if self.txns:
            meta["txns"] = {
                txn_id: {"writes": dict(entry["writes"]), "tick": entry["tick"]}
                for txn_id, entry in self.txns.items()
            }
        return meta

    # ------------------------------------------------------------------ mutators --

    def _log(self, op: Tuple[Any, ...]) -> None:
        self.wal.append(op)

    def __setitem__(self, key: str, value: str) -> None:
        self._log(("put", key, value))
        dict.__setitem__(self, key, value)
        self._maybe_snapshot()

    def __delitem__(self, key: str) -> None:
        if key not in self:
            raise KeyError(key)
        self._log(("del", key))
        dict.__delitem__(self, key)
        self._maybe_snapshot()

    def pop(self, key: str, *default: Any) -> Any:
        if key in self:
            self._log(("del", key))
            value = dict.pop(self, key)
            self._maybe_snapshot()
            return value
        if default:
            return default[0]
        raise KeyError(key)

    def popitem(self) -> Tuple[str, str]:
        if not self:
            raise KeyError("popitem(): dictionary is empty")
        key = next(reversed(self))
        self._log(("del", key))
        item = (key, dict.pop(self, key))
        self._maybe_snapshot()
        return item

    def clear(self) -> None:
        self._log(("clear",))
        dict.clear(self)
        self._maybe_snapshot()

    def update(self, *args: Any, **kwargs: str) -> None:
        for key, value in dict(*args, **kwargs).items():
            self[key] = value

    def setdefault(self, key: str, default: str = None) -> str:  # type: ignore[assignment]
        if key in self:
            return self[key]
        self[key] = default
        return default

    # ------------------------------------------------------------- checkpointing --

    def _maybe_snapshot(self) -> None:
        if self.wal.record_count >= self.snapshot_every:
            self.snapshot()

    def snapshot(self) -> int:
        """Checkpoint now: persist the full store, reset the WAL.

        Returns the sequence number the snapshot covers.
        """
        seq = self.wal.last_seq
        self.snapshots.save(seq, dict(self), meta=self._meta())
        self.wal.reset(seq)
        self._snapshot_seq = seq
        return seq

    # ------------------------------------------------------------------ catch-up --

    def ops_since(self, since: int) -> Optional[List[WalRecord]]:
        """The WAL records after ``since``, or ``None`` if compacted away.

        ``None`` means a snapshot has folded some of the requested range
        into itself — the caller (the catch-up primary) must fall back to a
        full transfer.
        """
        if since < self._snapshot_seq:
            return None
        return list(self.wal.records(since))

    def apply_record(self, seq: int, op: Tuple[Any, ...]) -> None:
        """Log-and-apply one record from a catch-up delta, preserving ``seq``.

        Records at or below the local high-water mark are skipped (the
        replay already covered them), keeping delta application idempotent.
        """
        if seq <= self.wal.last_seq:
            return
        self.wal.append(op, seq=seq)
        self._apply_raw(op)
        self._maybe_snapshot()

    def seal(self, target_seq: int) -> None:
        """Jump the sequence counter to ``target_seq`` (no state change)."""
        if target_seq > self.wal.last_seq:
            self.wal.append(("seal",), seq=target_seq)
            self._maybe_snapshot()

    def log_promotion(self, epoch: int, head: str) -> None:
        """Durably record that ``head`` owns this shard from ``epoch`` on.

        Written to every surviving replica's WAL at promotion time (and to a
        rejoiner's after catch-up), so a cluster restart recovers the
        promoted head instead of falling back to census order.  Idempotent:
        a stale or repeated epoch is a no-op, matching the monotone-epoch
        fence the cluster layer enforces in memory.
        """
        if int(epoch) <= self.shard_epoch:
            return
        op = ("promote", int(epoch), str(head))
        self._log(op)
        self._apply_raw(op)
        self._maybe_snapshot()

    def log_txn_prepare(
        self,
        txn_id: str,
        writes: Dict[str, Optional[str]],
        *,
        granted: bool = True,
    ) -> None:
        """Durably record one two-phase-commit prepare attempt.

        A granted prepare parks ``writes`` (``key -> value``, ``None`` for a
        delete) as this store's intent for ``txn_id``; later conflicting
        prepares vote no until the decide arrives.  A refusal
        (``granted=False``) parks nothing but still logs the attempt, so the
        intent clock — and with it the presumed-abort expiry of abandoned
        intents — replays identically from the WAL.
        """
        op = ("txn_prepare", str(txn_id), dict(writes), bool(granted))
        self._log(op)
        self._apply_raw(op)
        self._maybe_snapshot()

    def log_txn_decide(
        self,
        txn_id: str,
        verdict: str,
        writes: Optional[Dict[str, Optional[str]]] = None,
    ) -> None:
        """Durably resolve a prepared transaction: ``"commit"`` or ``"abort"``.

        Commit applies the write set atomically (the whole set rides in one
        WAL record) and is idempotent — values are absolute, so a replayed
        decide re-applies to the same result.  The record carries ``writes``
        explicitly so a replica whose intent is missing (full-transfer
        rejoin, expired intent) still lands the commit.  Abort drops the
        intent; deciding an unknown transaction is a no-op beyond the
        record.
        """
        op = ("txn_decide", str(txn_id), str(verdict), dict(writes or {}))
        self._log(op)
        self._apply_raw(op)
        self._maybe_snapshot()

    def install(self, contents: Dict[str, str], seq: int) -> None:
        """Replace the whole store (full catch-up transfer) at ``seq``.

        Installs via an immediate snapshot rather than a logged ``clear`` +
        N ``put`` records: one atomic rename instead of N WAL appends, and
        the sequence counter lands exactly on the primary's.
        """
        dict.clear(self)
        dict.update(self, contents)
        self.snapshots.save(seq, dict(self), meta=self._meta())
        self.wal.reset(seq)
        self._snapshot_seq = seq

    # ----------------------------------------------------------------- lifecycle --

    def sync(self) -> None:
        """Force the WAL to stable storage (policy permitting)."""
        self.wal.sync()

    def close(self) -> None:
        """Flush and close the WAL.  Idempotent; the store stays readable."""
        self.wal.close()

    def __repr__(self) -> str:
        return (
            f"DurableState({self.directory!r}, entries={len(self)}, "
            f"high_water={self.high_water})"
        )


class EphemeralState(dict):
    """An in-memory replica store with the transaction surface of durable ones.

    Non-durable clusters still need two-phase commit: an in-doubt intent
    table, the intent clock, and the prepare/decide transitions — everything
    :class:`DurableState` does minus the WAL.  The cluster opens one of
    these per ephemeral replica so the KVS transaction choreographies run
    unchanged against both store kinds; a plain ``dict`` (no ``txns``
    attribute) degrades to conflict-blind prepares and is only suitable for
    the non-transactional choreographies.
    """

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        #: In-doubt transactions, same shape as :attr:`DurableState.txns`.
        self.txns: Dict[str, Dict[str, Any]] = {}
        #: The intent clock (prepare attempts seen).
        self.txn_tick = 0

    def log_txn_prepare(
        self,
        txn_id: str,
        writes: Dict[str, Optional[str]],
        *,
        granted: bool = True,
    ) -> None:
        """Record one prepare attempt (see :meth:`DurableState.log_txn_prepare`)."""
        self.txn_tick += 1
        horizon = self.txn_tick - TXN_INTENT_TTL
        for stale in [t for t, e in self.txns.items() if e["tick"] <= horizon]:
            del self.txns[stale]
        if granted:
            self.txns[str(txn_id)] = {"writes": dict(writes), "tick": self.txn_tick}

    def log_txn_decide(
        self,
        txn_id: str,
        verdict: str,
        writes: Optional[Dict[str, Optional[str]]] = None,
    ) -> None:
        """Resolve a prepared transaction (see :meth:`DurableState.log_txn_decide`)."""
        entry = self.txns.pop(str(txn_id), None)
        if verdict == "commit":
            pending = dict(writes or {}) or dict((entry or {}).get("writes", {}))
            for key, value in pending.items():
                if value is None:
                    self.pop(key, None)
                else:
                    self[key] = value


# ---------------------------------------------------------------- catch-up bridge --


def txns_of(state: Dict[str, str]) -> Dict[str, Dict[str, Any]]:
    """A store's in-doubt transaction table (an empty view for plain dicts).

    The table maps ``txn_id`` to ``{"writes": {key: value-or-None},
    "tick": int}``.  Both :class:`DurableState` and :class:`EphemeralState`
    expose one; a plain ``dict`` has none, so callers see no intents and a
    prepare against it cannot detect conflicts.
    """
    return getattr(state, "txns", {})


def high_water_of(state: Dict[str, str]) -> int:
    """A store's replayed high-water mark; 0 for a plain (ephemeral) dict."""
    return state.high_water if isinstance(state, DurableState) else 0


def promotion_of(state: Dict[str, str]) -> Tuple[int, Optional[str]]:
    """A store's recovered ``(shard_epoch, promoted_head)``.

    ``(0, None)`` for ephemeral dicts and for durable stores that never saw
    a promotion — census order then decides the head, as before failover
    existed.
    """
    if isinstance(state, DurableState):
        return state.shard_epoch, state.promoted_head
    return 0, None


def delta_since(
    state: Dict[str, str], since: int
) -> Optional[List[WalRecord]]:
    """The mutation records after ``since``, or ``None`` if unavailable.

    ``None`` (ephemeral store, or the range was compacted into a snapshot)
    tells the catch-up primary to send a full transfer instead.
    """
    if isinstance(state, DurableState):
        return state.ops_since(since)
    return None


def apply_op(store: Dict[str, str], op: Tuple[Any, ...]) -> None:
    """Apply one catch-up op through a store's ordinary mutators."""
    kind = op[0]
    if kind == "put":
        store[op[1]] = op[2]
    elif kind == "del":
        store.pop(op[1], None)
    elif kind == "clear":
        store.clear()
    elif kind == "seal":
        pass
    elif kind == "promote":
        # Epoch fencing lives in the cluster layer; an ephemeral store has
        # nothing durable to stamp, so a promote record in a replayed delta
        # is inert here (DurableState handles it in _apply_raw).
        pass
    elif kind == "txn_prepare":
        log = getattr(store, "log_txn_prepare", None)
        if log is not None:
            log(op[1], op[2], granted=op[3])
    elif kind == "txn_decide":
        log = getattr(store, "log_txn_decide", None)
        if log is not None:
            log(op[1], op[2], op[3])
        elif op[2] == "commit":
            # A plain dict tracks no intents; the decide record is
            # self-contained, so the committed writes still land.
            for key, value in dict(op[3]).items():
                if value is None:
                    store.pop(key, None)
                else:
                    store[key] = value
    else:
        raise ValueError(f"unknown catch-up op kind {kind!r}")


def apply_catchup(
    state: Dict[str, str],
    mode: str,
    data: Any,
    target_seq: int,
) -> int:
    """Apply a catch-up transfer to ``state``; returns records applied.

    ``mode`` is ``"delta"`` (``data`` is a list of ``(seq, op)`` records)
    or ``"full"`` (``data`` is the primary's complete store).  Durable
    stores preserve the primary's sequence numbering (explicit-seq appends
    for deltas, an atomic :meth:`DurableState.install` for full transfers);
    plain dicts just mutate.
    """
    if mode == "full":
        contents = dict(data)
        if isinstance(state, DurableState):
            state.install(contents, target_seq)
        else:
            state.clear()
            state.update(contents)
        return len(contents)
    if mode != "delta":
        raise ValueError(f"unknown catch-up mode {mode!r}")
    applied = 0
    if isinstance(state, DurableState):
        for seq, op in data:
            state.apply_record(int(seq), tuple(op))
            applied += 1
        state.seal(target_seq)
    else:
        for _seq, op in data:
            apply_op(state, tuple(op))
            applied += 1
    return applied
