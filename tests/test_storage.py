"""The storage subsystem: WAL framing and repair, snapshots, durable stores.

Everything here runs against real files in pytest's ``tmp_path`` — the
torn-tail and corruption tests damage the bytes on disk exactly the way a
crash or bit-rot would, then check that reopening recovers (or refuses)
correctly.
"""

import os
import random

import pytest

from repro.storage import (
    TXN_INTENT_TTL,
    Durability,
    DurableState,
    EphemeralState,
    SnapshotStore,
    WalCorruption,
    WriteAheadLog,
    apply_catchup,
)
from repro.storage import snapshot as snapshot_mod
from repro.storage import wal as wal_mod


# -- WriteAheadLog --------------------------------------------------------------------


class TestWriteAheadLog:
    def test_append_and_read_back(self, tmp_path):
        log = WriteAheadLog(tmp_path / "wal.bin")
        assert log.append(("put", "a", "1")) == 1
        assert log.append(("del", "a")) == 2
        assert log.append(("clear",)) == 3
        assert list(log.records()) == [
            (1, ("put", "a", "1")), (2, ("del", "a")), (3, ("clear",)),
        ]
        assert list(log.records(since=2)) == [(3, ("clear",))]
        log.close()

    def test_reopen_restores_counters(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal.bin") as log:
            for i in range(5):
                log.append(("put", f"k{i}", str(i)))
        reopened = WriteAheadLog(tmp_path / "wal.bin")
        assert reopened.last_seq == 5
        assert reopened.record_count == 5
        assert reopened.append(("put", "next", "x")) == 6
        reopened.close()

    def test_explicit_seq_jump_and_monotonicity(self, tmp_path):
        log = WriteAheadLog(tmp_path / "wal.bin")
        log.append(("put", "a", "1"))
        assert log.append(("seal",), seq=10) == 10
        assert log.append(("put", "b", "2")) == 11
        with pytest.raises(ValueError, match="not after"):
            log.append(("put", "c", "3"), seq=5)
        log.close()

    @pytest.mark.parametrize("chop", [1, 3, 5])
    def test_torn_tail_is_truncated(self, tmp_path, chop):
        path = tmp_path / "wal.bin"
        with WriteAheadLog(path) as log:
            log.append(("put", "a", "1"))
            log.append(("put", "b", "longer-value-to-chop"))
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - chop)
        reopened = WriteAheadLog(path)
        assert reopened.record_count == 1
        assert list(reopened.records()) == [(1, ("put", "a", "1"))]
        # The torn bytes are gone from disk; appending continues cleanly.
        assert reopened.append(("put", "c", "3")) == 2
        reopened.close()
        final = WriteAheadLog(path)
        assert list(final.records()) == [(1, ("put", "a", "1")), (2, ("put", "c", "3"))]
        final.close()

    def test_tail_checksum_damage_is_truncated(self, tmp_path):
        path = tmp_path / "wal.bin"
        with WriteAheadLog(path) as log:
            log.append(("put", "a", "1"))
            log.append(("put", "b", "2"))
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a payload byte of the last record
        path.write_bytes(bytes(data))
        reopened = WriteAheadLog(path)
        assert list(reopened.records()) == [(1, ("put", "a", "1"))]
        reopened.close()

    def test_midfile_corruption_raises(self, tmp_path):
        path = tmp_path / "wal.bin"
        with WriteAheadLog(path) as log:
            first_end = None
            log.append(("put", "a", "1"))
            log.sync()
            first_end = os.path.getsize(path)
            log.append(("put", "b", "2"))
        data = bytearray(path.read_bytes())
        data[first_end - 1] ^= 0xFF  # damage the FIRST record, intact data follows
        path.write_bytes(bytes(data))
        with pytest.raises(WalCorruption):
            WriteAheadLog(path)

    def test_bad_magic_refused(self, tmp_path):
        path = tmp_path / "wal.bin"
        path.write_bytes(b"NOTAWAL!" + b"\x00" * 16)
        with pytest.raises(WalCorruption, match="magic"):
            WriteAheadLog(path)

    def test_truncated_magic_restarts_fresh(self, tmp_path):
        path = tmp_path / "wal.bin"
        path.write_bytes(wal_mod.MAGIC[:4])  # crash while writing the header
        log = WriteAheadLog(path)
        assert log.record_count == 0
        assert log.append(("put", "a", "1")) == 1
        log.close()

    def test_fsync_policy_validation(self, tmp_path):
        for policy in ("always", "batch", "never"):
            WriteAheadLog(tmp_path / f"{policy}.bin", fsync=policy).close()
        with pytest.raises(ValueError, match="fsync policy"):
            WriteAheadLog(tmp_path / "bad.bin", fsync="sometimes")

    def test_reset_keeps_sequence_numbers(self, tmp_path):
        log = WriteAheadLog(tmp_path / "wal.bin")
        for i in range(4):
            log.append(("put", f"k{i}", str(i)))
        log.reset(log.last_seq)
        assert log.record_count == 0
        assert list(log.records()) == []
        assert log.append(("put", "later", "x")) == 5
        log.close()

    def test_append_after_close_raises(self, tmp_path):
        log = WriteAheadLog(tmp_path / "wal.bin")
        log.close()
        log.close()  # idempotent
        with pytest.raises(ValueError, match="closed"):
            log.append(("put", "a", "1"))


# -- SnapshotStore --------------------------------------------------------------------


class TestSnapshotStore:
    def test_roundtrip_and_overwrite(self, tmp_path):
        store = SnapshotStore(tmp_path)
        assert store.load() == (0, {})
        store.save(7, {"a": "1", "b": "2"})
        assert store.load() == (7, {"a": "1", "b": "2"})
        store.save(12, {"c": "3"})
        assert store.load() == (12, {"c": "3"})

    def test_no_temp_file_left_behind(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(1, {"a": "1"})
        assert not os.path.exists(store.path + ".tmp")
        assert os.path.exists(store.path)

    def test_corrupt_snapshot_raises(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(3, {"a": "1"})
        data = bytearray(open(store.path, "rb").read())
        data[-1] ^= 0xFF
        open(store.path, "wb").write(bytes(data))
        with pytest.raises(WalCorruption, match="checksum"):
            store.load()

    def test_bad_magic_raises(self, tmp_path):
        store = SnapshotStore(tmp_path)
        open(store.path, "wb").write(b"garbage-here")
        with pytest.raises(WalCorruption, match="magic"):
            store.load()

    def test_truncated_payload_raises(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(3, {"a": "1"})
        data = open(store.path, "rb").read()
        open(store.path, "wb").write(data[:-2])
        with pytest.raises(WalCorruption, match="truncated"):
            store.load()

    def test_magic_is_distinct_from_wal(self):
        assert snapshot_mod.MAGIC != wal_mod.MAGIC


# -- DurableState ---------------------------------------------------------------------


class TestDurableState:
    def test_reopen_equals_original(self, tmp_path):
        state = DurableState(tmp_path / "r0")
        state["a"] = "1"
        state["b"] = "2"
        del state["a"]
        state.update({"c": "3", "d": "4"})
        state.pop("d")
        state.setdefault("e", "5")
        state.setdefault("e", "IGNORED")
        expected = dict(state)
        state.close()
        reopened = DurableState(tmp_path / "r0")
        assert dict(reopened) == expected == {"b": "2", "c": "3", "e": "5"}
        assert reopened.replayed_records == 7
        assert reopened.high_water == 7
        reopened.close()

    def test_missing_key_paths_do_not_log(self, tmp_path):
        state = DurableState(tmp_path / "r0")
        with pytest.raises(KeyError):
            del state["absent"]
        with pytest.raises(KeyError):
            state.pop("absent")
        assert state.pop("absent", "dflt") == "dflt"
        with pytest.raises(KeyError):
            state.popitem()
        assert state.high_water == 0  # nothing was written to the WAL
        state.close()

    def test_clear_and_popitem_replay(self, tmp_path):
        state = DurableState(tmp_path / "r0")
        state.update({"a": "1", "b": "2", "c": "3"})
        state.clear()
        state["x"] = "9"
        state["y"] = "8"
        assert state.popitem() == ("y", "8")
        state.close()
        reopened = DurableState(tmp_path / "r0")
        assert dict(reopened) == {"x": "9"}
        reopened.close()

    def test_snapshot_compaction_bounds_replay(self, tmp_path):
        state = DurableState(tmp_path / "r0", snapshot_every=10)
        for i in range(35):
            state[f"k{i}"] = str(i)
        assert state.wal.record_count < 10  # compaction ran
        expected = dict(state)
        state.close()
        reopened = DurableState(tmp_path / "r0", snapshot_every=10)
        assert dict(reopened) == expected
        assert reopened.replayed_records < 10  # replay is the suffix only
        assert reopened.high_water == 35
        reopened.close()

    def test_torn_tail_loses_only_unsynced_suffix(self, tmp_path):
        state = DurableState(tmp_path / "r0")
        state["kept"] = "yes"
        state["torn"] = "this-record-gets-chopped"
        state.close()
        wal_path = tmp_path / "r0" / "wal.bin"
        size = os.path.getsize(wal_path)
        with open(wal_path, "r+b") as handle:
            handle.truncate(size - 4)
        reopened = DurableState(tmp_path / "r0")
        assert dict(reopened) == {"kept": "yes"}
        assert reopened.high_water == 1
        reopened.close()

    def test_ops_since_and_compaction_fallback(self, tmp_path):
        state = DurableState(tmp_path / "r0", snapshot_every=1000)
        state["a"] = "1"
        mark = state.high_water
        state["b"] = "2"
        state["c"] = "3"
        delta = state.ops_since(mark)
        assert delta == [(2, ("put", "b", "2")), (3, ("put", "c", "3"))]
        state.snapshot()  # compacts the whole log
        assert state.ops_since(mark) is None  # range folded into the snapshot
        assert state.ops_since(state.high_water) == []
        state.close()

    def test_apply_record_is_idempotent(self, tmp_path):
        state = DurableState(tmp_path / "r0")
        state["a"] = "1"
        state.apply_record(1, ("put", "a", "SKIPPED"))  # at high-water: ignored
        assert state["a"] == "1"
        state.apply_record(5, ("put", "b", "2"))
        assert state.high_water == 5 and state["b"] == "2"
        state.seal(9)
        assert state.high_water == 9
        state.seal(4)  # behind: no-op
        assert state.high_water == 9
        state.close()

    def test_install_replaces_store_atomically(self, tmp_path):
        state = DurableState(tmp_path / "r0")
        state["old"] = "gone"
        state.install({"new": "here"}, 42)
        assert dict(state) == {"new": "here"}
        assert state.high_water == 42
        state.close()
        reopened = DurableState(tmp_path / "r0")
        assert dict(reopened) == {"new": "here"}
        assert reopened.high_water == 42
        assert reopened.replayed_records == 0  # install is a snapshot, not a log
        reopened.close()


# -- the catch-up bridge --------------------------------------------------------------


class TestCatchupBridge:
    def test_ephemeral_store_degrades_to_full(self):
        store = EphemeralState({"a": "1"})
        assert store.high_water == 0
        assert store.ops_since(0) is None
        applied = apply_catchup(store, "full", {"b": "2"}, 10)
        assert store == {"b": "2"} and applied == 1

    def test_delta_between_durable_stores(self, tmp_path):
        primary = DurableState(tmp_path / "p")
        follower = DurableState(tmp_path / "f")
        primary.update({"a": "1", "b": "2"})
        apply_catchup(follower, "full", dict(primary), primary.high_water)
        assert follower.high_water == primary.high_water
        primary["c"] = "3"
        del primary["a"]
        delta = primary.ops_since(follower.high_water)
        applied = apply_catchup(follower, "delta", delta, primary.high_water)
        assert applied == 2
        assert dict(follower) == dict(primary)
        assert follower.high_water == primary.high_water
        primary.close()
        follower.close()

    def test_apply_shapes(self):
        store = EphemeralState()
        store.apply(("put", "a", "1"))
        store.apply(("seal",))
        assert store == {"a": "1"}
        store.apply(("del", "a"))
        store.apply(("del", "a"))  # deleting a missing key is tolerated
        store.apply(("put", "b", "2"))
        store.apply(("clear",))
        assert store == {}
        with pytest.raises(ValueError, match="unknown"):
            store.apply(("frobnicate",))

    def test_unknown_catchup_mode_raises(self):
        with pytest.raises(ValueError, match="mode"):
            apply_catchup({}, "partial", [], 0)


# -- promotion records ----------------------------------------------------------------


class TestPromotionRecords:
    def test_log_promotion_survives_reopen(self, tmp_path):
        state = DurableState(tmp_path / "r0")
        assert (state.shard_epoch, state.promoted_head) == (0, None)
        state["k"] = "v"
        state.log_promotion(2, "shard0.r1")
        assert (state.shard_epoch, state.promoted_head) == (2, "shard0.r1")
        state.close()
        reopened = DurableState(tmp_path / "r0")
        assert (reopened.shard_epoch, reopened.promoted_head) == (2, "shard0.r1")
        assert dict(reopened) == {"k": "v"}
        reopened.close()

    def test_stale_promotion_is_a_noop(self, tmp_path):
        state = DurableState(tmp_path / "r0")
        state.log_promotion(3, "shard0.r2")
        before = state.wal.record_count
        state.log_promotion(3, "shard0.r1")  # equal epoch: fenced out
        state.log_promotion(1, "shard0.r0")  # lower epoch: fenced out
        assert state.wal.record_count == before  # nothing was written
        assert (state.shard_epoch, state.promoted_head) == (3, "shard0.r2")
        state.close()
        reopened = DurableState(tmp_path / "r0")
        assert (reopened.shard_epoch, reopened.promoted_head) == (3, "shard0.r2")
        reopened.close()

    def test_epoch_survives_snapshot_compaction(self, tmp_path):
        # Compaction rewrites the WAL from the snapshot; the promotion
        # record must ride along in the snapshot metadata or a cold
        # restart would forget who the head is.
        state = DurableState(tmp_path / "r0", snapshot_every=10)
        state.log_promotion(1, "shard0.r1")
        for i in range(35):
            state[f"k{i}"] = str(i)
        assert state.wal.record_count < 10  # compaction ran past the record
        state.close()
        reopened = DurableState(tmp_path / "r0", snapshot_every=10)
        assert (reopened.shard_epoch, reopened.promoted_head) == (1, "shard0.r1")
        reopened.close()

    def test_ephemeral_store_starts_unpromoted(self):
        store = EphemeralState({"a": "1"})
        assert (store.shard_epoch, store.promoted_head) == (0, None)

    def test_snapshot_meta_roundtrip(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(7, {"a": "1"}, meta={"epoch": 2, "head": "shard0.r1"})
        assert store.load_with_meta() == (
            7,
            {"a": "1"},
            {"epoch": 2, "head": "shard0.r1"},
        )
        assert store.load() == (7, {"a": "1"})  # legacy surface unchanged
        store.save(9, {"b": "2"})  # meta-less save drops the metadata
        assert store.load_with_meta() == (9, {"b": "2"}, {})


# -- Durability configuration ---------------------------------------------------------


class TestDurability:
    def test_layout_and_open(self, tmp_path):
        config = Durability(root=str(tmp_path), fsync="never", snapshot_every=8)
        assert config.state_dir("shard0", "shard0.r1") == str(
            tmp_path / "shard0" / "shard0.r1"
        )
        state = config.open_state("shard0", "shard0.r1")
        state["k"] = "v"
        state.close()
        reopened = config.open_state("shard0", "shard0.r1")
        assert dict(reopened) == {"k": "v"}
        reopened.close()

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="fsync"):
            Durability(root=str(tmp_path), fsync="bogus")
        with pytest.raises(ValueError, match="snapshot_every"):
            Durability(root=str(tmp_path), snapshot_every=0)


# -- the one record interpreter -------------------------------------------------------


def _record_stream(seed, length=600):
    """A seeded random stream of every store record kind.

    Promotions draw their epochs at random, so stale ones (at or below the
    store's epoch) are common; many prepares are never decided, so intents
    outlive ``TXN_INTENT_TTL`` later prepares and expire; decides name
    parked, expired and unknown transactions alike.
    """
    rng = random.Random(seed)
    keys = [f"k{index}" for index in range(6)]
    prepared = []
    records = []
    for serial in range(length):
        roll = rng.random()
        if roll < 0.25:
            records.append(("put", rng.choice(keys), str(rng.randrange(100))))
        elif roll < 0.33:
            records.append(("del", rng.choice(keys)))
        elif roll < 0.35:
            records.append(("clear",))
        elif roll < 0.38:
            records.append(("seal",))
        elif roll < 0.45:
            records.append(("promote", rng.randrange(1, 12), f"r{rng.randrange(3)}"))
        elif roll < 0.75:
            writes = {key: rng.choice([None, str(serial)])
                      for key in rng.sample(keys, rng.randrange(1, 3))}
            records.append(("txn_prepare", f"t{serial}", writes, rng.random() < 0.7))
            prepared.append((f"t{serial}", writes))
        else:
            txn_id, writes = rng.choice(prepared or [("t-unknown", {"k0": "x"})])
            verdict = rng.choice(["commit", "abort"])
            records.append(("txn_decide", txn_id, verdict,
                            writes if rng.random() < 0.5 else {}))
    return records


def _facts(store):
    return (dict(store), store.txns, store.txn_tick,
            store.shard_epoch, store.promoted_head)


class TestOneInterpreter:
    """Ephemeral and durable stores give every record one meaning."""

    @pytest.mark.parametrize("seed", [3, 11, 2024])
    def test_ephemeral_durable_and_replayed_stores_agree(self, tmp_path, seed):
        records = _record_stream(seed)
        ephemeral = EphemeralState()
        durable = DurableState(tmp_path / "r0", snapshot_every=37)
        for op in records:
            ephemeral.record(op)
            durable.record(op)
        durable.close()
        reopened = DurableState(tmp_path / "r0", snapshot_every=37)
        reopened.close()
        assert reopened.replayed_records > 0  # a WAL suffix past the snapshot
        assert _facts(ephemeral) == _facts(durable) == _facts(reopened)
        # What every store must agree *on*: the clock counts prepares, and
        # the first record at the highest epoch elects the head.
        promotions = [op for op in records if op[0] == "promote"]
        top = max(epoch for _kind, epoch, _head in promotions)
        assert ephemeral.txn_tick == sum(op[0] == "txn_prepare" for op in records)
        assert (ephemeral.shard_epoch, ephemeral.promoted_head) == next(
            (epoch, head) for _kind, epoch, head in promotions if epoch == top)

    @pytest.mark.parametrize("kind", ["ephemeral", "durable"])
    def test_stale_promote_record_loses(self, tmp_path, kind):
        store = EphemeralState() if kind == "ephemeral" else DurableState(tmp_path)
        store.record(("promote", 3, "r2"))
        store.record(("promote", 3, "r1"))  # as a delta replay of old history
        store.record(("promote", 1, "r0"))
        assert (store.shard_epoch, store.promoted_head) == (3, "r2")
        store.close()

    @pytest.mark.parametrize("kind", ["ephemeral", "durable"])
    def test_intent_expires_after_exactly_ttl_later_prepares(self, tmp_path, kind):
        store = EphemeralState() if kind == "ephemeral" else DurableState(tmp_path)
        store.log_txn_prepare("t0", {"k": "v"})
        for attempt in range(TXN_INTENT_TTL - 1):
            store.log_txn_prepare(f"refused{attempt}", {"k": "w"}, granted=False)
        assert "t0" in store.txns
        store.log_txn_prepare("last", {"k": "w"}, granted=False)
        assert "t0" not in store.txns
        store.close()

    def test_ephemeral_store_writes_through_dicts_own_mutators(self):
        # The request paths write items through these; an override would
        # put a Python-level call on every ephemeral write.
        for name in ("__setitem__", "__delitem__", "pop", "popitem",
                     "clear", "update", "setdefault"):
            assert getattr(EphemeralState, name) is getattr(dict, name), name
