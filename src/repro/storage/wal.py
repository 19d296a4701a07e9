"""Append-only write-ahead log with checksummed framing and torn-tail repair.

A replica that can crash must be able to *restart*: the cluster's failover
(PR 5) only demotes a dead backup, and re-admitting it requires the replica
to rebuild the state it held before dying.  The WAL is the first half of
that story (snapshots are the second, :mod:`repro.storage.snapshot`): every
mutation a replica applies to its store is appended here *before* it lands
in memory, so a restart can replay the log and recover exactly the
acknowledged state.

Format
------

The file starts with an 8-byte magic (:data:`MAGIC`, format version
included), followed by a flat sequence of records::

    [uvarint payload length][crc32 of payload, 4 bytes big-endian][payload]

The payload is ``wire.encode((seq, op))`` — the same compact codec the
transports frame messages with (:mod:`repro.runtime.wire`), so a WAL record
costs bytes proportional to its information content, not pickle overhead.
``seq`` is the store's monotonically increasing mutation counter (the
*high-water mark* after replay); ``op`` is a small tuple such as
``("put", key, value)``, ``("del", key)``, ``("clear",)``, or ``("seal",)``
(a sequence-number jump written by catch-up transfers).

Torn tails
----------

A crash mid-append leaves a half-written record at the end of the file: a
truncated varint, a short payload, or a checksum mismatch.  On open the log
is scanned front to back and **truncated at the last intact record** — the
torn tail is discarded, never "repaired", because an unacknowledged suffix
is exactly what a crashed process is allowed to lose.  Corruption *before*
the tail (a bad checksum followed by more valid data) is not recoverable
bit-rot and raises :class:`WalCorruption` instead of being silently dropped.

fsync policy
------------

``fsync=`` picks the durability/throughput trade-off (see
``docs/durability.md`` for measurements):

* ``"always"`` — ``os.fsync`` after every append: a record is on stable
  storage before the mutation is acknowledged; survives OS/power failure.
* ``"batch"`` — flush to the OS on every append, ``fsync`` only at
  explicit :meth:`sync` points (close): survives *process* crashes (the OS
  holds the pages), may lose the tail on power failure.
* ``"never"`` — flush to the OS, never ``fsync``: the benchmark baseline.
"""

from __future__ import annotations

import os
import zlib
from typing import Any, BinaryIO, Iterator, List, Optional, Tuple

from ..runtime import wire

#: File magic: "RWAL" + format version 1 + three reserved bytes.
MAGIC = b"RWAL\x01\x00\x00\x00"

#: The accepted ``fsync=`` policies, strongest first.
FSYNC_POLICIES = ("always", "batch", "never")

#: One decoded log record: ``(seq, op)``.
WalRecord = Tuple[int, Tuple[Any, ...]]


class WalCorruption(ValueError):
    """The log is damaged somewhere other than its (repairable) tail."""


def _has_magic(data: bytes, path: str) -> bool:
    """Whether ``data`` starts with :data:`MAGIC` (``False``: a torn prefix of it)."""
    if data[: len(MAGIC)] == MAGIC:
        return True
    if MAGIC.startswith(data):
        return False
    raise WalCorruption(
        f"{path}: bad WAL magic {data[:len(MAGIC)]!r}; refusing to "
        "append to a file this library did not write"
    )


def read_records(path: str, since: int = 0) -> List[WalRecord]:
    """The intact ``(seq, op)`` records with ``seq > since`` of the log at ``path``.

    Reads without repairing: the records stop at the first unreadable frame.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    out: List[WalRecord] = []
    if not _has_magic(data, path):
        return out
    pos = len(MAGIC)
    while pos < len(data):
        frame = WriteAheadLog._try_record(data, pos)
        if frame is None or not frame[0]:
            break  # unreadable suffix: open-time scanning decides its fate
        _ok, seq, op, pos = frame
        if seq > since:
            out.append((seq, op))
    return out


def fsync_directory(directory: str) -> None:
    """Make the entries of ``directory`` (creations, renames) durable."""
    directory_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(directory_fd)
    finally:
        os.close(directory_fd)


def _require_policy(fsync: str) -> str:
    if fsync not in FSYNC_POLICIES:
        raise ValueError(
            f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}"
        )
    return fsync


class WriteAheadLog:
    """An append-only, checksum-framed record log backing one replica store.

    Args:
        path: The log file; created (with its parent directory) if missing.
        fsync: One of :data:`FSYNC_POLICIES` — see the module docstring.

    Raises:
        ValueError: For an unknown fsync policy.
        WalCorruption: When the existing file's magic is wrong or a damaged
            record is followed by intact data (mid-file corruption; a torn
            *tail* is repaired by truncation instead).

    Opening scans the whole file once: torn tails are truncated, the last
    record's ``seq`` becomes :attr:`last_seq`, and :attr:`record_count`
    reports how many records survived — the numbers a restart's replay
    reports as its recovery work.
    """

    def __init__(self, path: "str | os.PathLike", *, fsync: str = "batch"):
        self.path = os.fspath(path)
        self.fsync = _require_policy(fsync)
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        #: Where :meth:`prepare_spare` makes the next rotation's file; no open reads it.
        self.spare_path = "{}.spare{}".format(*os.path.splitext(self.path))
        self._spare: Optional[BinaryIO] = None
        self.last_seq = 0
        self.record_count = 0
        self._closed = False
        valid_end = self._scan_and_repair()
        if valid_end is None:
            self._file = self._created(self.path)
        else:
            self._file = open(self.path, "r+b")
            self._file.seek(valid_end)

    # ------------------------------------------------------------------ opening --

    def _scan_and_repair(self) -> Optional[int]:
        """Validate the existing file, truncating a torn tail.

        Returns the offset of the first byte past the last intact record
        (the append position), or ``None`` for a log that must start fresh:
        a missing file, or one torn inside the magic itself.
        """
        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return None
        if not _has_magic(data, self.path):
            return None
        pos = len(MAGIC)
        valid_end = pos
        while pos < len(data):
            frame = self._try_record(data, pos)
            if frame is None or (not frame[0] and frame[3] >= len(data)):
                # A structurally torn frame, or a checksum/decode failure on
                # the *final* frame: both are what a crash mid-append leaves
                # behind — truncate to the last intact record.
                with open(self.path, "r+b") as handle:
                    handle.truncate(valid_end)
                break
            ok, seq, _op, pos = frame
            if not ok:
                # A damaged record with intact data *after* it cannot be a
                # torn tail; dropping it would silently skip acknowledged
                # mutations, so refuse instead.
                raise WalCorruption(
                    f"{self.path}: damaged record followed by intact data "
                    f"(mid-file corruption, not a torn tail)"
                )
            if seq <= self.last_seq:
                raise WalCorruption(
                    f"{self.path}: non-monotonic record seq {seq} after "
                    f"{self.last_seq}"
                )
            self.last_seq = seq
            self.record_count += 1
            valid_end = pos
        return valid_end

    @staticmethod
    def _try_record(
        data: bytes, pos: int
    ) -> "Optional[Tuple[bool, int, tuple, int]]":
        """Parse the frame at ``pos``.

        Returns ``None`` when the frame's *structure* is torn (truncated
        varint or short payload — the end of the frame cannot even be
        found), else ``(ok, seq, op, next_pos)`` where ``ok`` is False for a
        structurally whole frame whose checksum or payload decode failed
        (``seq``/``op`` are then meaningless).
        """
        try:
            length, body = wire.read_uvarint(data, pos)
        except ValueError:
            return None
        end = body + 4 + length
        if end > len(data):
            return None
        stored_crc = int.from_bytes(data[body : body + 4], "big")
        payload = data[body + 4 : end]
        if zlib.crc32(payload) != stored_crc:
            return (False, 0, (), end)
        try:  # an ill-shaped payload is as damaged as a bad checksum
            seq, op = wire.decode(payload)
            return (True, int(seq), tuple(op), end)
        except (ValueError, TypeError, OverflowError):
            return (False, 0, (), end)

    # ---------------------------------------------------------------- appending --

    def append(self, op: Tuple[Any, ...], *, seq: Optional[int] = None) -> int:
        """Append one record; returns its sequence number.

        ``seq`` defaults to ``last_seq + 1``; a catch-up transfer passes an
        explicit (larger) value to seal a sequence jump.  The record is
        flushed to the OS before returning, and fsynced per the policy.

        Raises:
            ValueError: On a closed log or a non-monotonic explicit ``seq``.
        """
        if self._closed:
            raise ValueError(f"{self.path}: append to a closed WAL")
        if seq is None:
            seq = self.last_seq + 1
        elif seq <= self.last_seq:
            raise ValueError(
                f"{self.path}: explicit seq {seq} not after last_seq {self.last_seq}"
            )
        payload = wire.encode((seq, tuple(op)))
        frame = bytearray()
        wire.write_uvarint(frame, len(payload))
        frame += zlib.crc32(payload).to_bytes(4, "big")
        frame += payload
        self._file.write(frame)
        self._file.flush()
        if self.fsync == "always":
            os.fsync(self._file.fileno())
        self.last_seq = seq
        self.record_count += 1
        return seq

    def sync(self) -> None:
        """Force the log to stable storage (a no-op under ``"never"``)."""
        if self._closed:
            return
        self._file.flush()
        if self.fsync != "never":
            os.fsync(self._file.fileno())

    # ------------------------------------------------------------------ reading --

    def records(self, since: int = 0) -> Iterator[WalRecord]:
        """Iterate the intact ``(seq, op)`` records with ``seq > since``.

        Reads back from disk (after flushing pending appends), so this is
        also how the catch-up choreography's primary side re-reads its own
        suffix; the open file position is untouched.
        """
        if not self._closed:
            self._file.flush()
        return iter(read_records(self.path, since))

    # ---------------------------------------------------------------- lifecycle --

    def rotate(self, aside: str) -> None:
        """Move the log's file to ``aside`` and continue, numbering on, in a fresh one.

        The fresh file is the spare, renamed into place, when
        :meth:`prepare_spare` made one; otherwise it is created here.
        Nothing is fsynced unless the policy is ``"always"``; then the new
        file and its directory entry are durable before the next append.
        """
        self._file.close()
        os.replace(self.path, aside)
        if self._spare is None:
            self._file = self._created(self.path)
        else:
            os.replace(self.spare_path, self.path)
            self._file, self._spare = self._spare, None
        if self.fsync == "always":
            fsync_directory(os.path.dirname(self.path) or ".")
        self.record_count = 0

    def prepare_spare(self) -> None:
        """Create the file the next :meth:`rotate` continues in, if none is ready.

        A checkpoint thread calls this, so the appending thread's rotation
        creates nothing; it must not overlap :meth:`rotate` or :meth:`close`.
        """
        if self._spare is None:
            self._spare = self._created(self.spare_path)

    def _created(self, path: str) -> BinaryIO:
        """A new empty log at ``path`` (fsynced under ``"always"``), open for appends."""
        handle = open(path, "w+b")
        handle.write(MAGIC)
        handle.flush()
        if self.fsync == "always":
            os.fsync(handle.fileno())
        return handle

    def close(self) -> None:
        """Flush (and fsync, unless ``"never"``), close, and remove the spare.  Idempotent."""
        if self._closed:
            return
        self.sync()
        self._closed = True
        self._file.close()
        if self._spare is not None:
            self._spare.close()
            os.remove(self.spare_path)
            self._spare = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog({self.path!r}, fsync={self.fsync!r}, "
            f"last_seq={self.last_seq}, records={self.record_count})"
        )
