"""Message accounting.

Every experiment in the paper's efficiency story (broadcast KoC vs
conclaves-&-MLVs, KoC re-use, census-polymorphic scaling) reduces to *which
messages were sent*.  :class:`ChannelStats` records exactly that: a count and
byte total per ordered (sender, receiver) pair, thread-safely, so both the
projected runtime and the centralized reference semantics can report
communication costs on the same scale.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

from ..core.locations import Location

Channel = Tuple[Location, Location]


@dataclass
class ChannelStats:
    """Counts of messages and payload bytes per directed channel."""

    messages: Dict[Channel, int] = field(default_factory=dict)
    payload_bytes: Dict[Channel, int] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def _record_locked(self, channel: Channel, nbytes: int) -> None:
        """One message on ``channel``; the caller holds ``_lock``."""
        self.messages[channel] = self.messages.get(channel, 0) + 1
        self.payload_bytes[channel] = self.payload_bytes.get(channel, 0) + nbytes

    def record(self, sender: Location, receiver: Location, nbytes: int) -> None:
        """Record one message of ``nbytes`` payload bytes from sender to receiver."""
        with self._lock:
            self._record_locked((sender, receiver), nbytes)

    def record_broadcast(
        self, sender: Location, receivers: Iterable[Location], nbytes: int
    ) -> None:
        """Record one ``nbytes`` message from ``sender`` to *each* receiver.

        Equivalent to a loop over :meth:`record` but takes the lock once for
        the whole broadcast — the accounting analogue of the transports'
        serialize-once/coalescing batch paths.
        """
        with self._lock:
            for receiver in receivers:
                self._record_locked((sender, receiver), nbytes)

    # -- aggregate views ----------------------------------------------------------

    @property
    def total_messages(self) -> int:
        """Total number of messages recorded."""
        with self._lock:
            return sum(self.messages.values())

    @property
    def total_bytes(self) -> int:
        """Total payload bytes recorded."""
        with self._lock:
            return sum(self.payload_bytes.values())

    def messages_sent_by(self, sender: Location) -> int:
        """Messages whose sender is ``sender``."""
        with self._lock:
            return sum(count for (src, _dst), count in self.messages.items() if src == sender)

    def messages_received_by(self, receiver: Location) -> int:
        """Messages whose receiver is ``receiver``."""
        with self._lock:
            return sum(count for (_src, dst), count in self.messages.items() if dst == receiver)

    def messages_involving(self, location: Location) -> int:
        """Messages sent or received by ``location``."""
        return self.messages_sent_by(location) + self.messages_received_by(location)

    def channels(self) -> Iterable[Channel]:
        """The directed channels that carried at least one message."""
        with self._lock:
            return tuple(self.messages)

    def snapshot(self) -> Dict[Channel, int]:
        """A plain-dict copy of the per-channel message counts."""
        with self._lock:
            return dict(self.messages)

    def merge(self, other: "ChannelStats") -> "ChannelStats":
        """Return a new ChannelStats combining this one with ``other``."""
        return ChannelStats.merge_all((self, other))

    @classmethod
    def merge_all(cls, sources: Iterable["ChannelStats"]) -> "ChannelStats":
        """Combine any number of ChannelStats into one new instance.

        Each source is read under its own lock, so live stats (e.g. the
        per-shard engines of a running cluster) can be rolled up safely; the
        result is a consistent-per-source snapshot, not a global atomic one.

        Args:
            sources: The stats to combine; may be empty.

        Returns:
            A new :class:`ChannelStats` whose per-channel counts and byte
            totals are the sums over all sources.
        """
        merged = cls()
        for source in sources:
            with source._lock:
                for channel, count in source.messages.items():
                    merged.messages[channel] = merged.messages.get(channel, 0) + count
                for channel, nbytes in source.payload_bytes.items():
                    merged.payload_bytes[channel] = merged.payload_bytes.get(channel, 0) + nbytes
        return merged

    def reset(self) -> None:
        """Drop all recorded counts."""
        with self._lock:
            self.messages.clear()
            self.payload_bytes.clear()
