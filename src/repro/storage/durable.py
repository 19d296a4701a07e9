"""Replica stores: one record interpreter, with or without a write-ahead log.

The KVS choreographies mutate replica stores through ordinary dict
operations — ``state[key] = value`` in ``update_state``, ``clear()`` +
``update()`` in ``resynch``, ``pop()`` in ``add_shard``'s migration.  Every
replica store is an :class:`EphemeralState`: a :class:`dict` whose items
those operations write directly, plus the replica metadata the cluster's
failover and two-phase commit need (the in-doubt intent table ``txns``, the
intent clock ``txn_tick``, and the promotion fence ``shard_epoch`` /
``promoted_head``).  :meth:`EphemeralState.apply` is the one meaning of
every store record kind; nothing else branches on one.

:class:`DurableState` is the same store with a write-ahead log under it.
It intercepts the dict mutators and turns each into a record, and every
record goes through :meth:`DurableState.record`: WAL first, then
:meth:`~EphemeralState.apply`, then a checkpoint if one is due.  Wiring
persistence into the cluster therefore changes *no protocol call site*,
and crash recovery replays a record through the very ``apply`` that
normal processing used.

Layout on disk, one directory per replica::

    <root>/<shard_id>/<replica>/
        snapshot.bin    # latest checkpoint: (seq, full contents)
        wal.<seq>.bin   # while a checkpoint is in flight: the rotated
                        # segment, ending at record <seq>
        wal.bin         # the live segment: mutations after that
        wal.spare.bin   # after a checkpoint: the next live segment, empty

Opening the directory *is* crash recovery: load the snapshot, replay the
rotated segment and then the live one (records with ``seq`` greater than
the snapshot's), and the store holds exactly the acknowledged state at the
moment of death — minus whatever tail the configured fsync policy was
allowed to lose.  Once the live segment holds ``snapshot_every`` records
the store checkpoints itself, bounding both file size and restart time.
The appending thread only copies the store and renames the live segment
aside and the spare into its place; a checkpoint thread, at the lowest CPU
priority, writes the snapshot, deletes the segment and makes the next spare.

The ``kvs_catchup`` choreography reads both kinds of store through the
same surface: :attr:`~EphemeralState.high_water`,
:meth:`~EphemeralState.ops_since` and :func:`apply_catchup`.  An ephemeral
store has no log, so it reports mark 0 and no delta, and a re-join always
takes the full transfer.

Two-phase commit (the ``kvs_txn`` round's decides and prepare) adds two
record kinds.  A *prepare* parks a transaction's write set as an
**intent** in the store's in-doubt table without touching the items; a
*decide* resolves it — commit applies the writes atomically (one record,
however many keys), abort just drops the intent.  A durable store replays
both on restart, so a crashed participant recovers its prepared-but-
undecided transactions and the cluster layer can resolve them against the
coordinator's durable decision record.
"""

from __future__ import annotations

import contextlib
import os
import sys
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .snapshot import SnapshotStore
from .wal import (
    FSYNC_POLICIES, WalCorruption, WalRecord, WriteAheadLog, fsync_directory,
    read_records,
)

#: The live WAL segment's name inside a replica's storage directory.
WAL_FILENAME = "wal.bin"

#: A prepared-transaction intent is presumed aborted — its coordinator died
#: before deciding — once this many *later* prepare attempts have touched the
#: store.  The clock is the count of prepare records (grants and refusals
#: both log one), so expiry is a pure function of the record stream and
#: replays identically on every replica and across restarts.
TXN_INTENT_TTL = 16


def _yield_the_cpu() -> None:
    """Lower the calling thread to nice 19, so checkpoints yield to serving.
    Linux only: nice is per thread there, elsewhere a thread id could name
    another process.  A refusal leaves the priority as it was."""
    if sys.platform.startswith("linux"):
        with contextlib.suppress(OSError):
            os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), 19)


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


class EphemeralState(dict):
    """One replica's store: the items plus its transaction and failover state.

    The items are the dict itself, and the choreographies write them
    through the dict's own mutators, which this class leaves alone.  The
    rest of what a replica knows changes only through records, applied by
    :meth:`apply`; :meth:`record` is where a record enters the store, and
    :class:`DurableState` overrides it to log write-ahead.  The catch-up
    hooks below are those of a store without a log: mark 0, no delta, and
    a full transfer that just replaces the items.
    """

    #: The last logged sequence number (what a rejoiner reports); a store
    #: without a log has none.
    high_water = 0
    #: How many log records opening the store replayed.
    replayed_records = 0

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        #: In-doubt transactions: ``txn_id -> {"writes": {key: value-or-None},
        #: "tick": int}`` — prepared but not yet decided.
        self.txns: Dict[str, Dict[str, Any]] = {}
        #: The intent clock: how many prepare attempts this store has seen.
        self.txn_tick = 0
        #: The highest promotion epoch recorded, and the head it elected;
        #: ``(0, None)`` until a promotion, and census order decides the head.
        self.shard_epoch = 0
        self.promoted_head: Optional[str] = None

    def apply(self, op: Tuple[Any, ...]) -> None:
        """Apply one store record to memory: the meaning of every record kind."""
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
            raise ValueError(f"unknown store record kind {kind!r}")

    def record(self, op: Tuple[Any, ...]) -> None:
        """Make one record part of the store (a durable store logs it first)."""
        self.apply(op)

    def log_promotion(self, epoch: int, head: str) -> None:
        """Record that ``head`` owns this shard from ``epoch`` on.

        Written to every surviving replica at promotion time (and to a
        rejoiner's after catch-up), so a durable cluster's restart recovers
        the promoted head instead of falling back to census order.
        Idempotent: a stale or repeated epoch records nothing, matching the
        monotone-epoch fence the cluster layer enforces in memory.
        """
        if int(epoch) > self.shard_epoch:
            self.record(("promote", int(epoch), str(head)))

    def log_txn_prepare(
        self,
        txn_id: str,
        writes: Dict[str, Optional[str]],
        *,
        granted: bool = True,
    ) -> None:
        """Record one two-phase-commit prepare attempt.

        A granted prepare parks ``writes`` (``key -> value``, ``None`` for a
        delete) as this store's intent for ``txn_id``; later conflicting
        prepares vote no until the decide arrives.  A refusal
        (``granted=False``) parks nothing but is still a record, so the
        intent clock — and with it the presumed-abort expiry of abandoned
        intents — replays identically from a WAL.
        """
        self.record(("txn_prepare", str(txn_id), dict(writes), bool(granted)))

    def log_txn_decide(
        self,
        txn_id: str,
        verdict: str,
        writes: Optional[Dict[str, Optional[str]]] = None,
    ) -> None:
        """Resolve a prepared transaction: ``"commit"`` or ``"abort"``.

        Commit applies the write set atomically (the whole set rides in one
        record) and is idempotent — values are absolute, so a replayed
        decide re-applies to the same result.  The record carries ``writes``
        explicitly so a replica whose intent is missing (full-transfer
        rejoin, expired intent) still lands the commit.  Abort drops the
        intent; deciding an unknown transaction is a no-op beyond the
        record.
        """
        self.record(("txn_decide", str(txn_id), str(verdict), dict(writes or {})))

    # ------------------------------------------------------------------ catch-up --

    def ops_since(self, since: int) -> Optional[List[WalRecord]]:
        """The log records after ``since``; ``None`` means "send everything"."""
        return None

    def apply_record(self, seq: int, op: Tuple[Any, ...]) -> None:
        """Apply one record from a catch-up delta."""
        self.record(op)

    def seal(self, target_seq: int) -> None:
        """Jump the sequence counter to ``target_seq`` (no log, nothing to do)."""

    def install(self, contents: Dict[str, str], seq: int) -> None:
        """Replace the items wholesale (a full catch-up transfer) at ``seq``."""
        dict.clear(self)
        dict.update(self, contents)

    def close(self) -> None:
        """Release the store's resources (none without a log)."""


class DurableState(EphemeralState):
    """A replica store whose records are write-ahead logged.

    Construction performs recovery: rotated segments, then the snapshot,
    then the live segment, replayed through :meth:`~EphemeralState.apply`.
    :attr:`replayed_records` reports how many WAL records the replay
    applied — the number a restart surfaces as its recovery work.

    Mutations are logged *before* they land in memory; read paths
    (``__getitem__``, ``items``, ``len``, iteration…) are inherited
    untouched, so the choreographies' read-mostly traffic pays nothing.
    At most one checkpoint is in flight: the next one, :meth:`install` and
    :meth:`close` wait for it, and raise its error if it failed.
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
        # Rotated segments are read *before* the snapshot: a checkpoint in
        # flight (an un-closed store's) deletes its segment only after its
        # snapshot is in place, so what this open misses, the other holds.
        segments = []
        for name in os.listdir(self.directory):
            if name.startswith("wal.") and name.endswith(".bin") and name[4:-4].isdigit():
                path = os.path.join(self.directory, name)
                try:
                    segments.append((int(name[4:-4]), path, read_records(path)))
                except FileNotFoundError:
                    pass  # its checkpoint finished: the snapshot covers it
        segments.sort()
        snap_seq, contents, meta = self.snapshots.load_with_meta()
        dict.update(self, contents)
        wal_path = os.path.join(self.directory, WAL_FILENAME)
        #: Rotated segments on disk that no finished checkpoint has deleted.
        self._segments: List[str] = []
        for index, (last, path, records) in enumerate(segments):
            if last > snap_seq and (not records or records[-1][0] < last):
                # Power loss took this segment's unsynced tail, so the
                # records after it are no suffix of what survived: it
                # becomes the live segment, and what followed it goes.
                for _last, later, _records in segments[index + 1:]:
                    os.remove(later)
                os.replace(path, wal_path)
                fsync_directory(self.directory)
                del segments[index:]
                break
            self._segments.append(path)
        self.wal = WriteAheadLog(wal_path, fsync=fsync)
        # Every frame read here passed its checksum, which no torn write
        # leaves behind: one that is no store record is corruption.
        path, seq = self.snapshots.path, snap_seq
        try:
            self.shard_epoch = int(meta.get("epoch", 0))
            self.promoted_head = meta.get("head")
            # The intent table and its clock ride in snapshot metadata (like
            # the epoch) and are rebuilt by WAL replay, so a crashed
            # participant reopens with its prepared state intact.
            self.txns = {
                txn_id: {"writes": dict(entry["writes"]), "tick": int(entry["tick"])}
                for txn_id, entry in meta.get("txns", {}).items()
            }
            self.txn_tick = int(meta.get("txn_tick", 0))
            applied = snap_seq
            replayed = 0
            for _last, path, records in segments:
                for seq, op in records:
                    if seq > applied:
                        self.apply(op)
                        applied = seq
                        replayed += 1
            path = wal_path
            for seq, op in self.wal.records(since=applied):
                self.apply(op)
                replayed += 1
        except (AttributeError, LookupError, OverflowError, TypeError, ValueError) as exc:
            self.wal.close()
            raise WalCorruption(
                f"{path}: ill-shaped store record at seq {seq}: {exc!r}"
            ) from exc
        # A fresh live segment has forgotten the sequence numbers before it;
        # appends must continue after them, not restart from 1.
        if self.wal.last_seq < applied:
            self.wal.last_seq = applied
        #: Records up to here are no longer in the live segment.
        self._snapshot_seq = applied
        self.replayed_records = replayed
        self._checkpointer = ThreadPoolExecutor(1, thread_name_prefix="checkpoint",
                                                initializer=_yield_the_cpu)
        #: The checkpoint in flight, and the segments it is to delete.
        self._in_flight: Optional[Tuple[Future, List[str]]] = None

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

    def record(self, op: Tuple[Any, ...]) -> None:
        """Log ``op`` write-ahead, apply it, then checkpoint if one is due."""
        self.wal.append(op)
        self.apply(op)
        self._maybe_snapshot()

    def __setitem__(self, key: str, value: str) -> None:
        self.record(("put", key, value))

    def __delitem__(self, key: str) -> None:
        if key not in self:
            raise KeyError(key)
        self.record(("del", key))

    def pop(self, key: str, *default: Any) -> Any:
        if key in self:
            value = dict.__getitem__(self, key)
            self.record(("del", key))
            return value
        if default:
            return default[0]
        raise KeyError(key)

    def popitem(self) -> Tuple[str, str]:
        if not self:
            raise KeyError("popitem(): dictionary is empty")
        key = next(reversed(self))
        return key, self.pop(key)

    def clear(self) -> None:
        self.record(("clear",))

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
        """Start a checkpoint of the whole store; returns the seq it covers.

        Copies the store and rotates the live segment aside; the checkpoint
        thread writes the snapshot, deletes the segment and prepares the
        spare the next rotation renames into place.  Waits for the
        previous checkpoint first, raising its ``OSError`` if it failed.
        """
        self._settle()
        seq = self.wal.last_seq
        image, meta = dict(self), self._meta()
        if self.wal.record_count:
            aside = os.path.join(self.directory, f"wal.{seq}.bin")
            self.wal.rotate(aside)
            self._segments.append(aside)
        segments, self._segments = self._segments, []
        future = self._checkpointer.submit(self._checkpoint, seq, image, meta, segments)
        self._in_flight = (future, segments)
        self._snapshot_seq = seq
        return seq

    def _checkpoint(self, seq: int, image: Dict[str, str], meta: Dict[str, Any],
                    segments: List[str]) -> None:
        """The checkpoint thread's part: the snapshot, the segments it covers,
        then the next live segment."""
        self.snapshots.save(seq, image, meta=meta)
        for path in segments:
            os.remove(path)
        self.wal.prepare_spare()

    def _settle(self) -> None:
        """Wait for the checkpoint in flight; raise its error if it failed."""
        if self._in_flight is None:
            return
        future, segments = self._in_flight
        error = future.exception()
        self._in_flight = None
        if error is not None:
            self._segments[:0] = [path for path in segments if os.path.exists(path)]
            raise error

    # ------------------------------------------------------------------ catch-up --

    def ops_since(self, since: int) -> Optional[List[WalRecord]]:
        """The WAL records after ``since``, or ``None`` if compacted away.

        ``None`` means a checkpoint has folded some of the requested range
        into its snapshot — the caller (the catch-up primary) must fall
        back to a full transfer.
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
        self.apply(op)
        self._maybe_snapshot()

    def seal(self, target_seq: int) -> None:
        """Jump the sequence counter to ``target_seq`` (no state change)."""
        if target_seq > self.wal.last_seq:
            self.wal.append(("seal",), seq=target_seq)
            self._maybe_snapshot()

    def install(self, contents: Dict[str, str], seq: int) -> None:
        """Replace the whole store (full catch-up transfer) at ``seq``.

        Installs via an immediate checkpoint rather than a logged ``clear`` +
        N ``put`` records: one atomic rename instead of N WAL appends, and
        the sequence counter lands on the primary's.  Returns once the
        snapshot is on disk; until then the rotated segment's name is past
        its last record, so a crash reopens the store as before the install.
        """
        self._settle()
        super().install(contents, seq)
        self.wal.last_seq = max(self.wal.last_seq, seq)
        self.snapshot()
        self._settle()

    # ----------------------------------------------------------------- lifecycle --

    def sync(self) -> None:
        """Force the WAL to stable storage (policy permitting)."""
        self.wal.sync()

    def close(self) -> None:
        """Finish the checkpoint in flight (raising its error), join the
        checkpoint thread, and flush and close the WAL.  Idempotent; the
        store stays readable."""
        try:
            self._settle()
        finally:
            self._checkpointer.shutdown()
            self.wal.close()

    def __repr__(self) -> str:
        return (
            f"DurableState({self.directory!r}, entries={len(self)}, "
            f"high_water={self.high_water})"
        )


def apply_catchup(
    state: EphemeralState,
    mode: str,
    data: Any,
    target_seq: int,
) -> int:
    """Apply a catch-up transfer to ``state``; returns records applied.

    ``mode`` is ``"delta"`` (``data`` is a list of ``(seq, op)`` records)
    or ``"full"`` (``data`` is the primary's complete store).  A durable
    store keeps the primary's sequence numbering (explicit-seq appends for
    deltas, an atomic :meth:`DurableState.install` for full transfers).  An
    ill-shaped delta record or target raises :class:`ValueError` first.
    """
    if type(target_seq) is not int:
        raise ValueError(f"catch-up target {target_seq!r} is not an int")
    if mode == "full":
        contents = dict(data)
        state.install(contents, target_seq)
        return len(contents)
    if mode != "delta":
        raise ValueError(f"unknown catch-up mode {mode!r}")
    trial = EphemeralState()  # the whole delta is checked before any append
    for record in data:
        try:
            seq, op = record
            if type(seq) is not int:
                raise TypeError(f"seq {seq!r} is not an int")
            trial.apply(tuple(op))
        except (AttributeError, LookupError, OverflowError, TypeError, ValueError) as exc:
            raise ValueError(f"ill-shaped catch-up record {record!r}: {exc!r}") from None
    for seq, op in data:
        state.apply_record(seq, tuple(op))
    state.seal(target_seq)
    return len(data)
