"""Point-in-time store snapshots: atomic write-then-rename, checksummed.

Replaying a WAL from the beginning of time makes restart cost grow with
history, not with state size.  A snapshot bounds it: every
``snapshot_every`` mutations the replica serializes its whole store (with
the WAL sequence number the snapshot covers), and the WAL segment it covers
is deleted — recovery is then *snapshot + WAL suffix*, a constant amount of
work per checkpoint interval.

Atomicity is the write-then-rename idiom: the new snapshot is written to a
sibling temp file, flushed and fsynced, then :func:`os.replace`\\ d over the
live name.  A crash at any point leaves either the old snapshot or the new
one — never a torn mix — so :meth:`SnapshotStore.load` needs no repair
logic: a checksum failure in the *live* file means real bit-rot and raises
:class:`~repro.storage.wal.WalCorruption` rather than silently serving an
empty store.

The payload rides the same compact codec as the WAL and the transports
(:mod:`repro.runtime.wire`): ``wire.encode((seq, contents))`` behind the
shared ``[magic][uvarint length][crc32][payload]`` framing.  Stores that
carry replication metadata beyond their items — the shard epoch a primary
promotion stamped, and which replica was promoted — persist it as an
optional third payload element, ``(seq, contents, meta)``; snapshots
written before the extension decode as an empty ``meta``, so old data
directories open unchanged.
"""

from __future__ import annotations

import os
import zlib
from typing import Any, Dict, Tuple

from ..runtime import wire
from .wal import WalCorruption, fsync_directory

#: File magic: "RSNP" + format version 1 + three reserved bytes.
MAGIC = b"RSNP\x01\x00\x00\x00"

#: The live snapshot's file name inside a replica's storage directory.
FILENAME = "snapshot.bin"


class SnapshotStore:
    """Saves and loads one replica store's point-in-time snapshots.

    Args:
        directory: Where the snapshot lives; created if missing.  One
            directory per replica — the same directory its WAL lives in.
    """

    def __init__(self, directory: "str | os.PathLike"):
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.path = os.path.join(self.directory, FILENAME)

    def save(
        self,
        seq: int,
        contents: Dict[str, str],
        meta: "Dict[str, Any] | None" = None,
    ) -> None:
        """Atomically persist ``contents`` as the snapshot covering ``seq``.

        The temp file is fsynced before the rename and the directory entry
        after it, so once :meth:`save` returns the snapshot survives a power
        failure regardless of the WAL's fsync policy — a snapshot that could
        vanish would break the "WAL suffix only" replay contract.

        ``meta`` carries non-item replica metadata (the promotion epoch);
        when empty or omitted the payload stays the legacy two-element
        form, byte-identical to pre-epoch snapshots.
        """
        if meta:
            payload = wire.encode((int(seq), dict(contents), dict(meta)))
        else:
            payload = wire.encode((int(seq), dict(contents)))
        frame = bytearray(MAGIC)
        wire.write_uvarint(frame, len(payload))
        frame += zlib.crc32(payload).to_bytes(4, "big")
        frame += payload
        temp = self.path + ".tmp"
        with open(temp, "wb") as handle:
            handle.write(frame)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, self.path)
        fsync_directory(self.directory)

    def load(self) -> Tuple[int, Dict[str, str]]:
        """The latest snapshot as ``(seq, contents)``; ``(0, {})`` if none.

        Raises:
            WalCorruption: When the live snapshot file exists but fails its
                magic/length/checksum validation or holds an ill-shaped
                payload (bit-rot, not a torn write — torn writes cannot
                survive the atomic rename).
        """
        seq, contents, _meta = self.load_with_meta()
        return seq, contents

    def load_with_meta(self) -> Tuple[int, Dict[str, str], Dict[str, Any]]:
        """The latest snapshot as ``(seq, contents, meta)``.

        ``meta`` is ``{}`` for a missing snapshot and for snapshots written
        before the metadata extension (legacy two-element payloads).
        """
        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return 0, {}, {}
        if len(data) < len(MAGIC) or data[: len(MAGIC)] != MAGIC:
            raise WalCorruption(f"{self.path}: bad snapshot magic")
        try:
            length, body = wire.read_uvarint(data, len(MAGIC))
        except ValueError as exc:
            raise WalCorruption(f"{self.path}: truncated snapshot header") from exc
        payload = data[body + 4 : body + 4 + length]
        if len(payload) != length:
            raise WalCorruption(f"{self.path}: truncated snapshot payload")
        stored_crc = int.from_bytes(data[body : body + 4], "big")
        if zlib.crc32(payload) != stored_crc:
            raise WalCorruption(f"{self.path}: snapshot checksum mismatch")
        try:  # an ill-shaped payload is as damaged as a bad checksum
            decoded = wire.decode(payload)
            if len(decoded) == 3:
                seq, contents, meta = decoded
            else:
                (seq, contents), meta = decoded, {}
            return int(seq), dict(contents), dict(meta)
        except (ValueError, TypeError, OverflowError) as exc:
            raise WalCorruption(f"{self.path}: ill-shaped snapshot payload") from exc

    def __repr__(self) -> str:
        return f"SnapshotStore({self.directory!r})"
