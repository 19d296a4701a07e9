"""Consistent-hash routing of keys to shards.

A sharded key-value service needs a key → shard mapping that is

* **deterministic across processes** — every client and every server must
  agree on where a key lives without coordination, so the hash cannot be
  Python's salted builtin ``hash``;
* **stable under membership change** — adding a shard must move only the
  keys the new shard takes over (≈ ``1/(n+1)`` of the keyspace), never
  reshuffle the survivors among themselves.

:class:`ShardRouter` provides both with a classic consistent-hash ring:
every shard contributes :data:`DEFAULT_VNODES` points (virtual nodes)
on a 64-bit ring, a key routes to the first shard point at or after the
key's own hash (wrapping at the top), and virtual nodes keep the expected
load per shard balanced even for small clusters.

The router maps keys to *shard ids* only.  What a shard id denotes — a
census of replica locations, a warm :class:`~repro.runtime.engine.ChoreoEngine`
session — is the cluster layer's business (:mod:`repro.cluster.engine`);
keeping the ring free of any transport state is what makes it cheap to hold
a copy anywhere a routing decision is needed.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Sequence, Tuple, Union

#: Ring points contributed per shard.  64 keeps the
#: max/min load ratio across shards within a few percent for realistic key
#: counts while the whole ring for a 16-shard cluster stays ~1k entries.
DEFAULT_VNODES = 64

ShardId = str


def _ring_hash(data: str) -> int:
    """A process-independent 64-bit hash used for ring points and keys.

    blake2b is deterministic (unlike ``hash(str)``, which is salted per
    process), fast for short inputs, and uniformly distributed.
    """
    digest = hashlib.blake2b(data.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ShardRouter:
    """A consistent-hash ring mapping keys to shard ids.

    Args:
        shards: The initial shards: either a count (shards are named
            ``"shard0"`` … ``"shardN-1"``) or an explicit sequence of shard
            ids.  At least one shard is required.

    Raises:
        ValueError: On zero shards or duplicate shard ids.

    Two routers built with the same shard ids (added in the same order)
    agree on every key, in every process — pinned by
    ``tests/test_cluster.py``.
    """

    def __init__(self, shards: Union[int, Sequence[ShardId]] = 4):
        self._shards: List[ShardId] = []
        self._points: List[int] = []
        self._owners: List[ShardId] = []
        if isinstance(shards, int):
            shard_ids: Sequence[ShardId] = [f"shard{i}" for i in range(shards)]
        else:
            shard_ids = list(shards)
        if not shard_ids:
            raise ValueError("a ShardRouter needs at least one shard")
        for shard_id in shard_ids:
            self.add_shard(shard_id)

    # ------------------------------------------------------------------ lookup --

    @property
    def shards(self) -> Tuple[ShardId, ...]:
        """The shard ids, in the order they were added."""
        return tuple(self._shards)

    def shard_for(self, key: str) -> ShardId:
        """The shard responsible for ``key``.

        Args:
            key: Any string key.

        Returns:
            The id of the shard owning the first ring point at or after the
            key's hash (wrapping past the top of the ring).
        """
        index = bisect.bisect_left(self._points, _ring_hash(key))
        if index == len(self._points):
            index = 0
        return self._owners[index]

    def assignment(self, keys: Iterable[str]) -> Dict[str, ShardId]:
        """Route many keys at once.

        Returns:
            ``{key: shard_id}`` for every key given.
        """
        return {key: self.shard_for(key) for key in keys}

    # -------------------------------------------------------------- membership --

    def add_shard(self, shard_id: ShardId) -> None:
        """Add a shard's ring points.

        Only keys whose first-point-at-or-after now belongs to ``shard_id``
        change owner; every other key keeps its shard — the ring-stability
        property a rebalance relies on.

        Args:
            shard_id: The new shard's id.

        Raises:
            ValueError: If the shard is already on the ring.
        """
        if shard_id in self._shards:
            raise ValueError(f"shard {shard_id!r} is already on the ring")
        self._shards.append(shard_id)
        for vnode in range(DEFAULT_VNODES):
            point = _ring_hash(f"{shard_id}#{vnode}")
            index = bisect.bisect_left(self._points, point)
            self._points.insert(index, point)
            self._owners.insert(index, shard_id)

    def __len__(self) -> int:
        return len(self._shards)

    def __repr__(self) -> str:
        return f"ShardRouter(shards={self._shards!r})"
