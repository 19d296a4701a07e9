"""Exception hierarchy for the choreography library.

Every error raised by :mod:`repro.core` derives from :class:`ChoreographyError`
so applications can catch choreography-level failures separately from
transport- or host-level failures.  The subclasses mirror the classes of
mistakes the paper's host-language type systems rule out statically:
census violations and ownership violations.
"""

from __future__ import annotations


class ChoreographyError(Exception):
    """Base class for all errors raised by the choreography library."""


class CensusError(ChoreographyError):
    """An operator referred to a location outside the current census.

    The census is the set of parties eligible to participate in the current
    (sub-)choreography.  Instructions naming parties outside the census are
    erroneous (paper, definition of *census*).
    """


class OwnershipError(ChoreographyError):
    """A located value was used by a party that does not own it.

    Raised when unwrapping a :class:`~repro.core.located.Located` or
    :class:`~repro.core.located.Faceted` value at a non-owner, or when a
    communication operator names a sender that does not own its payload.
    """


class EmptyCensusError(CensusError):
    """A census or ownership set that must be non-empty was empty."""


class PlaceholderError(OwnershipError):
    """A placeholder (the projection of a value to a non-owner) was used as data.

    Corresponds to evaluating ``Empty`` / ``⊥`` in the paper's formalism.
    """


class TransportError(ChoreographyError):
    """A message could not be sent or received by the transport layer."""


class ChoreoTimeout(TransportError):
    """A receive timed out: ``waiter`` gave up waiting on ``peer``.

    The typed form of a transport receive timeout, carrying the structured
    fields a failure handler needs: who was waiting, which peer never
    delivered, and how long the waiter held on.  Timeouts are the raw signal
    behind failure detection — :class:`repro.cluster.ClusterEngine` follows
    the chain of ``waiter → peer`` blames across a failed instance to find
    the replica that actually went silent — so they must be distinguishable
    from other transport failures without parsing message text.
    """

    def __init__(self, waiter: str, peer: str, seconds: float):
        self.waiter = waiter
        self.peer = peer
        self.seconds = seconds
        super().__init__(
            f"{waiter!r} timed out after {seconds}s waiting for a message from {peer!r}"
        )


class ChoreographyRuntimeError(ChoreographyError):
    """A projected endpoint raised an exception while executing its role.

    Wraps the original exception and records which location failed so the
    engine can report a single coherent failure for the whole execution.
    ``failures`` holds *every* location's failure (location → exception) when
    several endpoints of one instance failed together — the usual shape of a
    crash, where the crashed location's error and its peers' induced
    :class:`ChoreoTimeout` s arrive as one bundle.
    """

    def __init__(
        self,
        location: str,
        original: BaseException,
        failures: "dict[str, BaseException] | None" = None,
    ):
        self.location = location
        self.original = original
        self.failures: "dict[str, BaseException]" = dict(
            failures if failures is not None else {location: original}
        )
        super().__init__(
            f"endpoint {location!r} failed: {type(original).__name__}: {original}"
        )
