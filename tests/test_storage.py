"""The storage subsystem: WAL framing and repair, snapshots, durable stores.

Everything here runs against real files in pytest's ``tmp_path`` — the
torn-tail and corruption tests damage the bytes on disk exactly the way a
crash or bit-rot would, then check that reopening recovers (or refuses)
correctly.
"""

import builtins
import contextlib
import os
import random
import re
import shutil
import stat
import sys
import threading
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
from repro.runtime import wire
from repro.storage import snapshot as snapshot_mod
from repro.storage import wal as wal_mod
from tests.test_wire import payloads


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

    @pytest.mark.parametrize("torn", [1, 4, 7])
    def test_truncated_magic_restarts_fresh(self, tmp_path, torn):
        path = tmp_path / "wal.bin"
        path.write_bytes(wal_mod.MAGIC[:torn])  # crash while writing the header
        log = WriteAheadLog(path)
        assert log.record_count == 0
        assert log.append(("put", "a", "1")) == 1
        log.close()
        assert path.read_bytes().startswith(wal_mod.MAGIC)

    def test_short_foreign_file_is_refused(self, tmp_path):
        # Shorter than the magic but no prefix of it: not a torn header.
        path = tmp_path / "wal.bin"
        path.write_bytes(b"abc")
        with pytest.raises(WalCorruption, match="magic"):
            WriteAheadLog(path)
        assert path.read_bytes() == b"abc"

    def test_fsync_policy_validation(self, tmp_path):
        for policy in ("always", "batch", "never"):
            WriteAheadLog(tmp_path / f"{policy}.bin", fsync=policy).close()
        with pytest.raises(ValueError, match="fsync policy"):
            WriteAheadLog(tmp_path / "bad.bin", fsync="sometimes")

    def test_rotate_keeps_sequence_numbers(self, tmp_path):
        log = WriteAheadLog(tmp_path / "wal.bin")
        for i in range(4):
            log.append(("put", f"k{i}", str(i)))
        log.rotate(str(tmp_path / "wal.4.bin"))
        assert log.record_count == 0
        assert list(log.records()) == []
        assert log.append(("put", "later", "x")) == 5
        log.close()
        assert [seq for seq, _op in wal_mod.read_records(tmp_path / "wal.4.bin")] == [1, 2, 3, 4]
        with WriteAheadLog(tmp_path / "wal.bin") as reopened:
            assert reopened.last_seq == 5

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


# -- the readers under damage ----------------------------------------------------------


def _frame(payload: bytes) -> bytes:
    """One CRC-valid ``[uvarint length][crc32][payload]`` frame."""
    frame = bytearray()
    wire.write_uvarint(frame, len(payload))
    return bytes(frame) + zlib.crc32(payload).to_bytes(4, "big") + payload


def _damaged(data: bytes, at: int, byte: int, how: str) -> bytes:
    at %= len(data) + 1
    if how == "cut":
        return data[:at]
    if how == "flip" and at < len(data):
        return data[:at] + bytes((byte,)) + data[at + 1:]
    if how == "insert":
        return data[:at] + bytes((byte,)) + data[at:]
    return data


ILL_SHAPED = [("a", ("put",)), (None, ("put", "k", "v")), (float("inf"), ("put", "k", "v")),
              (1, 5), 5, (5,), "ab"]

#: Payloads that are not ``P``-tagged: the pickle door stays shut to the fuzzer
#: until the unpickler's memo is bounded.
ill_payloads = st.one_of(
    payloads.map(wire.encode), st.sampled_from(ILL_SHAPED).map(wire.encode),
    st.binary(max_size=32),
).filter(lambda payload: payload[:1] != b"P")
record_ops = st.one_of(
    st.tuples(st.just("put"), st.text(max_size=6), st.text(max_size=6)),
    st.tuples(st.just("del"), st.text(max_size=6)), st.just(("clear",)),
)
#: Record fields of any shape, for records whose kind and arity may not fit.
loose_fields = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2), st.floats(), st.text(max_size=4),
    st.dictionaries(st.text(max_size=3), st.one_of(st.none(), st.text(max_size=3)),
                    max_size=2),
)
loose_ops = st.tuples(
    st.sampled_from(["put", "del", "clear", "seal", "promote", "txn_prepare",
                     "txn_decide", "bogus"]),
    st.lists(loose_fields, max_size=4),
).map(lambda parts: (parts[0], *parts[1]))
loose_metas = st.dictionaries(
    st.sampled_from(["epoch", "head", "txns", "txn_tick"]),
    st.one_of(loose_fields, st.dictionaries(
        st.text(max_size=2), st.fixed_dictionaries({"writes": loose_fields, "tick": loose_fields}),
        max_size=2)),
    max_size=3,
)
damage = st.tuples(st.integers(0, 2**16), st.integers(0, 255),
                   st.sampled_from(["none", "cut", "flip", "insert"]))


@st.composite
def wal_files(draw, parts=st.one_of(record_ops, ill_payloads)):
    """A log of record ``parts`` (ops, or raw ill-shaped CRC-valid frames), damaged."""
    frames, seq = [], 0
    for part in draw(st.lists(parts, max_size=6)):
        if isinstance(part, bytes):
            frames.append(_frame(part))
        else:
            seq += draw(st.integers(1, 3))
            frames.append(_frame(wire.encode((seq, part))))
    return _damaged(wal_mod.MAGIC + b"".join(frames), *draw(damage))


@st.composite
def snapshot_files(draw, metas=st.just({})):
    real = st.tuples(st.integers(0, 99), st.dictionaries(st.text(max_size=4), st.text(max_size=4),
                                                         max_size=3), metas).map(
        lambda parts: wire.encode(parts if parts[2] else parts[:2]))
    payload = draw(st.one_of(real, ill_payloads))
    return _damaged(snapshot_mod.MAGIC + _frame(payload), *draw(damage))


FUZZ = settings(max_examples=100, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much,
                                       HealthCheck.function_scoped_fixture])


class TestReadersRaiseOnlyWalCorruption:
    """Every byte string yields records or a snapshot, or :class:`WalCorruption`."""

    @pytest.mark.parametrize("payload", ILL_SHAPED, ids=repr)
    def test_an_ill_shaped_frame_is_a_damaged_one(self, tmp_path, payload):
        good = _frame(wire.encode((1, ("put", "k", "v"))))
        path = tmp_path / "wal.bin"
        path.write_bytes(wal_mod.MAGIC + good + _frame(wire.encode(payload)))
        assert wal_mod.read_records(path) == [(1, ("put", "k", "v"))]
        with WriteAheadLog(path) as log:  # a damaged last frame is a torn tail
            assert (log.last_seq, log.record_count) == (1, 1)
        path.write_bytes(wal_mod.MAGIC + _frame(wire.encode(payload)) + good)
        assert wal_mod.read_records(path) == []
        with pytest.raises(WalCorruption, match="mid-file"):
            WriteAheadLog(path)

    @pytest.mark.parametrize("payload", [5, (5,), "ab", (1, 5), ("a", {}), (1, {}, 7)], ids=repr)
    def test_an_ill_shaped_snapshot_is_a_damaged_one(self, tmp_path, payload):
        store = SnapshotStore(tmp_path)
        with open(store.path, "wb") as handle:
            handle.write(snapshot_mod.MAGIC + _frame(wire.encode(payload)))
        with pytest.raises(WalCorruption, match="ill-shaped"):
            store.load_with_meta()

    #: CRC-valid records that no store record kind accepts.
    ILL_RECORDS = [(), ("put",), ("del",), ("txn_prepare", "t", 5, True),
                   ("promote", "x", "h"), ("bogus",)]
    #: Snapshot metadata of the wrong shape.
    ILL_METAS = [{"epoch": "x"}, {"txn_tick": "q"}, {"txns": 7},
                 {"txns": {"t": {"writes": 5, "tick": 1}}}]

    @pytest.mark.parametrize("op", ILL_RECORDS, ids=repr)
    @pytest.mark.parametrize("segment", ["wal.bin", "wal.3.bin"])
    def test_an_ill_shaped_store_record_is_corruption(self, tmp_path, op, segment):
        records = [(1, ("put", "a", "1")), (2, op), (3, ("put", "k", "v"))]
        path = tmp_path / segment
        path.write_bytes(wal_mod.MAGIC + b"".join(_frame(wire.encode(r)) for r in records))
        assert wal_mod.read_records(path) == records
        with pytest.raises(WalCorruption, match=f"{segment}: .* at seq 2"):
            DurableState(tmp_path)

    @pytest.mark.parametrize("meta", ILL_METAS, ids=repr)
    def test_ill_shaped_snapshot_metadata_is_corruption(self, tmp_path, meta):
        SnapshotStore(tmp_path).save(4, {"k": "v"}, meta=meta)
        assert SnapshotStore(tmp_path).load_with_meta() == (4, {"k": "v"}, meta)
        with pytest.raises(WalCorruption, match="snapshot.bin: .* at seq 4"):
            DurableState(tmp_path)

    @given(snapshot=st.none() | snapshot_files(loose_metas),
           log=wal_files(st.one_of(record_ops, loose_ops)))
    @FUZZ
    def test_fuzz_opening_a_store(self, tmp_path, snapshot, log):
        directory = tmp_path / "store"  # each example rebuilds the one store
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir()
        if snapshot is not None:
            (directory / "snapshot.bin").write_bytes(snapshot)
        (directory / "wal.bin").write_bytes(log)
        with contextlib.suppress(WalCorruption):
            DurableState(directory, fsync="never").close()

    @given(data=wal_files())
    @FUZZ
    def test_fuzz_the_wal_readers(self, tmp_path, data):
        path = tmp_path / "wal.bin"  # each example rewrites the one file
        path.write_bytes(data)
        with contextlib.suppress(WalCorruption):
            wal_mod.read_records(path)
        with contextlib.suppress(WalCorruption):
            WriteAheadLog(path, fsync="never").close()

    @given(data=snapshot_files())
    @FUZZ
    def test_fuzz_the_snapshot_reader(self, tmp_path, data):
        store = SnapshotStore(tmp_path)
        with open(store.path, "wb") as handle:
            handle.write(data)
        with contextlib.suppress(WalCorruption):
            store.load_with_meta()


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


# -- checkpoints off the appending thread -----------------------------------------------


def _segments(directory):
    return sorted(name for name in os.listdir(directory)
                  if name.startswith("wal.") and name != "wal.bin")


def _checkpoint_threads():
    return [t for t in threading.enumerate() if t.name.startswith("checkpoint")]


class TestCheckpointsLeaveTheRound:
    """Count guard: a due checkpoint costs the appending thread no fsync."""

    def test_no_fsync_on_the_thread_whose_record_made_a_checkpoint_due(
            self, tmp_path, monkeypatch):
        fsyncs = []
        original = os.fsync

        def recording(fd):
            fsyncs.append(threading.get_ident())
            original(fd)

        monkeypatch.setattr(os, "fsync", recording)
        store = DurableState(tmp_path / "r0", fsync="batch", snapshot_every=8)
        for index in range(3 * 8):
            store[f"k{index}"] = str(index)
        on_appender = fsyncs.count(threading.get_ident())
        store.close()
        assert on_appender == 0  # the inline checkpoint made 3 per checkpoint
        # Each snapshot still fsyncs its file and directory, on the checkpoint
        # thread; close() fsyncs the live segment.
        assert len(fsyncs) == 3 * 2 + 1
        assert _segments(tmp_path / "r0") == []
        reopened = DurableState(tmp_path / "r0", snapshot_every=8)
        assert dict(reopened) == dict(store) and reopened.replayed_records == 0
        reopened.close()

    def test_always_makes_the_new_segment_durable_before_the_next_append(
            self, tmp_path, monkeypatch):
        store = DurableState(tmp_path / "r0", fsync="always", snapshot_every=8)
        events = []  # (on the appending thread, kind, inode), in fsync order
        original = os.fsync

        def recording(fd):
            info = os.fstat(fd)
            events.append((threading.current_thread() is threading.main_thread(),
                           "dir" if stat.S_ISDIR(info.st_mode) else "file", info.st_ino))
            original(fd)

        def on_appender():
            return [kind for mine, kind, _inode in events if mine]

        monkeypatch.setattr(os, "fsync", recording)
        for index in range(8):
            store[f"k{index}"] = str(index)
        synced = on_appender()
        # Eight appends, then the rotation: the new segment, then its entry.
        assert synced == ["file"] * 8 + ["file", "dir"]
        for index in range(8, 17):
            store[f"k{index}"] = str(index)
        # From the second rotation on the new segment is the spare, which the
        # checkpoint thread fsynced: the appending thread syncs only the
        # directory after the renames, then the next append.
        assert on_appender() == synced + ["file"] * 8 + ["dir", "file"]
        live = os.stat(tmp_path / "r0" / "wal.bin").st_ino
        spare_synced = events.index((False, "file", live))
        renamed, appended = [at for at, (mine, *_rest) in enumerate(events) if mine][-2:]
        assert events[renamed][:2] == (True, "dir") and spare_synced < renamed
        assert events[appended] == (True, "file", live)
        store.close()

    def test_the_appending_thread_creates_no_file_from_the_second_checkpoint_on(
            self, tmp_path, monkeypatch):
        store = DurableState(tmp_path / "r0", fsync="batch", snapshot_every=8)
        created = []
        original = open

        def recording(file, mode="r", *args, **kwargs):
            if threading.current_thread() is threading.main_thread() and (
                    set(mode) & set("wxa")):
                created.append(os.fspath(file))
            return original(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", recording)
        per_checkpoint = []
        for checkpoint in range(4):
            for index in range(8):
                store[f"k{index}"] = f"{checkpoint}.{index}"
            per_checkpoint.append(len(created))
            created.clear()
        # The parent created the new live segment at every rotation: [1, 1, 1, 1].
        assert per_checkpoint == [1, 0, 0, 0]
        store.close()
        assert _segments(tmp_path / "r0") == []  # close() removed the spare

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="nice is per thread on Linux only")
    def test_the_checkpoint_thread_runs_at_the_lowest_priority(self, tmp_path):
        threads = set(_checkpoint_threads())
        mine = os.getpriority(os.PRIO_PROCESS, threading.get_native_id())
        store = DurableState(tmp_path / "r0", snapshot_every=4)
        _fill(store, TestCheckpointInFlight.RECORDS[:4])
        (thread,) = set(_checkpoint_threads()) - threads
        try:
            assert os.getpriority(os.PRIO_PROCESS, thread.native_id) == 19
            # nice is the thread's own: the appending thread keeps its priority.
            assert os.getpriority(os.PRIO_PROCESS, threading.get_native_id()) == mine
        finally:
            store.close()


class _Pause:
    """Hold the checkpoint thread at one point until :meth:`release`.

    ``point`` is where: ``"rotated"`` (before the snapshot is written),
    ``"renamed"`` (just after the snapshot's rename) or ``"removing"``
    (before the rotated segment is deleted).  Only the ``skip + 1``-th
    checkpoint stops there.
    """

    def __init__(self, monkeypatch, point, skip=0):
        self.reached, self._go, self._left = threading.Event(), threading.Event(), skip
        save, replace, remove = SnapshotStore.save, os.replace, os.remove

        def stopping_save(store, *args, **kwargs):
            self._stop()
            save(store, *args, **kwargs)

        def stopping_replace(src, dst):
            replace(src, dst)
            if str(dst).endswith(snapshot_mod.FILENAME):
                self._stop()

        def stopping_remove(path):
            self._stop()
            remove(path)

        if point == "rotated":
            monkeypatch.setattr(SnapshotStore, "save", stopping_save)
        elif point == "renamed":
            monkeypatch.setattr(os, "replace", stopping_replace)
        else:
            monkeypatch.setattr(os, "remove", stopping_remove)

    def _stop(self):
        if self._left:
            self._left -= 1
            return
        self.reached.set()
        assert self._go.wait(10)

    def release(self):
        self._go.set()


def _fill(store, records):
    for op in records:
        store.record(op)


class TestCheckpointInFlight:
    """Reopening a directory is right wherever its checkpoint stands."""

    RECORDS = [("put", f"k{index}", str(index)) for index in range(6)] + [
        ("promote", 2, "r1"), ("txn_prepare", "t1", {"k0": None}, True),
        ("put", "k6", "6"), ("del", "k1"),
    ]

    @pytest.mark.parametrize("point", ["rotated", "renamed", "removing"])
    def test_reopen_without_close_holds_every_acknowledged_record(
            self, tmp_path, monkeypatch, point):
        pause = _Pause(monkeypatch, point, skip=1)
        store = DurableState(tmp_path / "r0", snapshot_every=4)
        _fill(store, self.RECORDS)  # checkpoints at 4 and 8; the second stops
        assert pause.reached.wait(10)
        assert _segments(tmp_path / "r0") == ["wal.8.bin"]
        twin = DurableState(tmp_path / "r0", snapshot_every=4)
        twin.close()
        assert _facts(twin) == _facts(store) and twin.high_water == 10
        pause.release()
        store.close()
        assert _segments(tmp_path / "r0") == []
        reopened = DurableState(tmp_path / "r0", snapshot_every=4)
        reopened.close()
        assert _facts(reopened) == _facts(store)
        assert (reopened.high_water, reopened.replayed_records) == (10, 2)

    def test_rotated_segment_cut_short_drops_the_live_segment(
            self, tmp_path, monkeypatch):
        pause = _Pause(monkeypatch, "rotated", skip=1)
        store = DurableState(tmp_path / "r0", snapshot_every=4)
        _fill(store, self.RECORDS)
        assert pause.reached.wait(10)
        crashed = tmp_path / "crashed"
        shutil.copytree(tmp_path / "r0", crashed)
        pause.release()
        store.close()
        rotated = crashed / "wal.8.bin"
        with open(rotated, "r+b") as handle:  # power loss: its tail never landed
            handle.truncate(os.path.getsize(rotated) - 3)
        prefix = EphemeralState()
        _fill(prefix, self.RECORDS[:7])
        reopened = DurableState(crashed, snapshot_every=4)
        assert reopened.high_water == 7 < 8  # and neither live record applied
        assert _facts(reopened) == _facts(prefix)
        assert _segments(crashed) == []  # the cut segment is the live one now
        reopened["k9"] = "9"
        assert reopened.high_water == 8
        reopened.close()
        again = DurableState(crashed, snapshot_every=4)
        again.close()
        assert again == {**prefix, "k9": "9"} and again.high_water == 8


class TestSpareSegment:
    """A crash around the spare loses nothing, and its file is never replayed."""

    @pytest.mark.parametrize("spare", [wal_mod.MAGIC, b"", wal_mod.MAGIC[:3]],
                             ids=["empty-log", "empty-file", "torn-magic"])
    def test_a_spare_left_by_a_crash_is_ignored(self, tmp_path, monkeypatch, spare):
        prepared = threading.Event()
        prepare = WriteAheadLog.prepare_spare

        def signalling(log):
            prepare(log)
            prepared.set()

        monkeypatch.setattr(WriteAheadLog, "prepare_spare", signalling)
        store = DurableState(tmp_path / "r0", snapshot_every=4)
        _fill(store, TestCheckpointInFlight.RECORDS[:6])  # the checkpoint at 4
        assert prepared.wait(10)
        crashed = tmp_path / "crashed"
        shutil.copytree(tmp_path / "r0", crashed)
        store.close()
        assert _segments(crashed) == ["wal.spare.bin"]
        (crashed / "wal.spare.bin").write_bytes(spare)  # however far it got
        reopened = DurableState(crashed, snapshot_every=4)
        assert _facts(reopened) == _facts(store)
        assert (reopened.high_water, reopened.replayed_records) == (6, 2)
        _fill(reopened, TestCheckpointInFlight.RECORDS[6:])  # a checkpoint at 8
        reopened.close()
        assert _segments(crashed) == []
        again = DurableState(crashed, snapshot_every=4)
        again.close()
        expected = EphemeralState()
        _fill(expected, TestCheckpointInFlight.RECORDS)
        assert _facts(again) == _facts(expected) and again.high_water == 10

    def test_a_crash_between_the_renames_replays_the_rotated_segment(
            self, tmp_path, monkeypatch):
        crashed = tmp_path / "crashed"
        replace = os.replace

        def crashing_between(src, dst):
            if str(src).endswith("wal.spare.bin") and not crashed.exists():
                shutil.copytree(tmp_path / "r0", crashed)  # the image at the crash
            replace(src, dst)

        monkeypatch.setattr(os, "replace", crashing_between)
        store = DurableState(tmp_path / "r0", snapshot_every=4)
        _fill(store, TestCheckpointInFlight.RECORDS)  # rotations at 4 and 8
        store.close()
        monkeypatch.undo()
        assert _segments(crashed) == ["wal.8.bin", "wal.spare.bin"]
        assert not (crashed / "wal.bin").exists()
        reopened = DurableState(crashed, snapshot_every=4)
        prefix = EphemeralState()
        _fill(prefix, TestCheckpointInFlight.RECORDS[:8])
        assert _facts(reopened) == _facts(prefix)
        assert (reopened.high_water, reopened.replayed_records) == (8, 4)
        _fill(reopened, TestCheckpointInFlight.RECORDS[8:])
        reopened.snapshot()
        reopened.close()
        assert _segments(crashed) == []
        again = DurableState(crashed, snapshot_every=4)
        again.close()
        assert _facts(again) == _facts(store) and again.high_water == 10


def _disk_full(*_args, **_kwargs):
    raise OSError(28, "No space left on device")


class TestFailedCheckpoint:
    """A checkpoint that fails surfaces its error and loses no record."""

    @pytest.mark.parametrize("surfaces_at", ["checkpoint", "install", "close"])
    def test_error_surfaces_and_a_reopen_recovers_everything(
            self, tmp_path, monkeypatch, surfaces_at):
        monkeypatch.setattr(SnapshotStore, "save", _disk_full)
        threads = set(_checkpoint_threads())
        store = DurableState(tmp_path / "r0", snapshot_every=4)
        _fill(store, TestCheckpointInFlight.RECORDS[:6])  # the checkpoint at 4 fails
        with pytest.raises(OSError, match="No space"):
            if surfaces_at == "checkpoint":
                _fill(store, TestCheckpointInFlight.RECORDS[6:8])  # due again at 8
            elif surfaces_at == "install":
                store.install({"other": "state"}, 99)
            else:
                store.close()
        assert "wal.4.bin" in _segments(tmp_path / "r0")
        expected = _facts(store)
        store.close()  # idempotent after a close that raised
        assert set(_checkpoint_threads()) <= threads
        monkeypatch.undo()
        reopened = DurableState(tmp_path / "r0", snapshot_every=4)
        assert _facts(reopened) == expected
        assert reopened.high_water == store.high_water
        reopened.snapshot()  # the next checkpoint covers the failed one's segment
        reopened.close()
        assert _segments(tmp_path / "r0") == []

    def test_the_next_checkpoint_retries_what_a_failed_one_left(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(SnapshotStore, "save", _disk_full)
        store = DurableState(tmp_path / "r0", snapshot_every=4)
        _fill(store, TestCheckpointInFlight.RECORDS[:4])
        monkeypatch.undo()
        with pytest.raises(OSError, match="No space"):
            store.snapshot()
        store.snapshot()
        _fill(store, TestCheckpointInFlight.RECORDS[4:6])
        store.close()
        assert _segments(tmp_path / "r0") == []
        reopened = DurableState(tmp_path / "r0", snapshot_every=4)
        reopened.close()
        assert _facts(reopened) == _facts(store) and reopened.replayed_records == 2


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


#: Ill-shaped catch-up deltas, each with the record that must be named:
#: an empty op, a short put, an unknown kind, a non-int seq, and a bad
#: record after good ones (nothing of the delta may land).
ILL_DELTAS = [
    ([(5, ())], (5, ())),
    ([(5, ("put", "k"))], (5, ("put", "k"))),
    ([(5, ("zap", "k"))], (5, ("zap", "k"))),
    ([("5", ("put", "k", "v"))], ("5", ("put", "k", "v"))),
    ([(5, ("put", "a", "9")), (6, ("del", "b")), (7, ("put",))], (7, ("put",))),
]
ILL_DELTA_IDS = ["empty-op", "short-put", "unknown-kind", "str-seq", "bad-after-good"]


class TestCatchupBoundary:
    """A catch-up delta is checked whole before its first record is logged
    or applied: an ill-shaped record raises ``ValueError`` naming it, and the
    store (reopened, if durable) keeps its contents and high-water mark."""

    @staticmethod
    def _prior(store):
        for key, value in (("a", "1"), ("b", "2")):
            store[key] = value
        return dict(store), store.high_water

    @pytest.mark.parametrize("delta,named", ILL_DELTAS, ids=ILL_DELTA_IDS)
    def test_an_ephemeral_store_refuses_the_whole_delta(self, delta, named):
        store = EphemeralState()
        prior = self._prior(store)
        with pytest.raises(ValueError, match=re.escape(repr(named))):
            apply_catchup(store, "delta", delta, 9)
        assert (dict(store), store.high_water) == prior

    @pytest.mark.parametrize("delta,named", ILL_DELTAS, ids=ILL_DELTA_IDS)
    def test_a_durable_store_logs_nothing_and_reopens(self, tmp_path, delta, named):
        store = DurableState(tmp_path / "store")
        prior = self._prior(store)
        with pytest.raises(ValueError, match=re.escape(repr(named))):
            apply_catchup(store, "delta", delta, 9)
        assert (dict(store), store.high_water) == prior
        store.close()
        reopened = DurableState(tmp_path / "store")
        assert (dict(reopened), reopened.high_water) == prior
        apply_catchup(reopened, "delta", [(5, ("put", "c", "3"))], 9)  # still usable
        assert (dict(reopened), reopened.high_water) == ({**prior[0], "c": "3"}, 9)
        reopened.close()

    @pytest.mark.parametrize("mode,data", [("delta", [(5, ("put", "c", "3"))]),
                                           ("full", {"c": "3"})])
    def test_a_non_int_target_changes_nothing(self, tmp_path, mode, data):
        # The delta used to land, unsealed, before the target raised TypeError.
        store = DurableState(tmp_path / "store")
        prior = self._prior(store)
        with pytest.raises(ValueError, match="target '9'"):
            apply_catchup(store, mode, data, "9")
        assert (dict(store), store.high_water) == prior
        store.close()


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
