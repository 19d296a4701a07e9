"""Centralized (single-threaded) reference semantics.

The paper gives λC a centralized semantics and proves it sound and complete
with respect to the distributed network semantics.  :class:`CentralOp` plays
the same role for the Python library: it executes a choreography in one
thread, holding every located value's real contents, while

* enforcing *every* census and ownership constraint globally (not just the
  ones a single endpoint would notice), and
* recording the messages the distributed execution *would* send, on the same
  :class:`~repro.runtime.stats.ChannelStats` scale as the real transports.

It therefore doubles as the library's pre-run checker and as the
communication-cost model used by the benchmarks.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, TypeVar

from ..core.epp import _make_unwrapper
from ..core.errors import OwnershipError
from ..core.located import Faceted, Located
from ..core.locations import Census, Location, LocationsLike, as_census, single
from ..core.ops import _NOT_CENSUS_WIDE, _NOT_EVERY_REPLICA, ChoreoOp, Choreography, Unwrapper, _require_kind
from .stats import ChannelStats
from .transport import DEFAULT_TIMEOUT, serialize

T = TypeVar("T")


def _central_unwrapper(required_owners: Optional[Census] = None) -> Unwrapper:
    """An unwrapper that sees every value but still checks ownership shape."""

    def unwrap(value: Any, owner: Optional[Location] = None) -> Any:
        if isinstance(value, Located):
            if required_owners is not None:
                value.require_owned_by(required_owners, _NOT_EVERY_REPLICA)
            return value.peek()
        if isinstance(value, Faceted):
            if owner is None:
                raise OwnershipError(
                    "centralized unwrapping of a Faceted value must name the owner"
                )
            return value.facet_for(owner, owner)
        raise TypeError(
            f"unwrapper expects a Located or Faceted value, got {type(value).__name__}"
        )

    return unwrap


class CentralOp(ChoreoOp):
    """Single-threaded execution of a choreography with global checking."""

    def __init__(self, census: LocationsLike, stats: Optional[ChannelStats] = None):
        super().__init__(census)
        self.stats = stats if stats is not None else ChannelStats()

    # -------------------------------------------------------------- primitives --

    def locally(
        self, location: Location, computation: Callable[[Unwrapper], T]
    ) -> Located[T]:
        here = single(self._require_member(location))
        return Located(here, computation(_make_unwrapper(location)))

    def multicast(
        self, sender: Location, recipients: LocationsLike, value: Located[T]
    ) -> Located[T]:
        self._require_member(sender)
        receivers = self._require_subset(recipients)
        if not isinstance(value, Located):
            raise OwnershipError(
                f"multicast payload must be a Located value, got {type(value).__name__}"
            )
        payload = value.unwrap_for(sender)
        nbytes = len(serialize(payload))
        for receiver in receivers:
            if receiver != sender:
                self.stats.record(sender, receiver, nbytes)
        return Located(receivers, payload)

    def naked(self, value: Located[T]) -> T:
        _require_kind(value, Located, "naked")
        if value.owners is None:
            raise OwnershipError("naked requires a value with a known ownership set")
        value.require_owned_by(self._census, _NOT_CENSUS_WIDE)
        return value.peek()

    def congruently(
        self, locations: LocationsLike, computation: Callable[[Unwrapper], T]
    ) -> Located[T]:
        replicas = self._require_subset(locations)
        return Located(replicas, computation(_central_unwrapper(required_owners=replicas)))

    def conclave(
        self, sub_census: LocationsLike, choreography: Choreography, *args: Any, **kwargs: Any
    ) -> Located[Any]:
        sub = self._require_subset(sub_census)
        child = CentralOp(sub, self.stats)
        result = choreography(child, *args, **kwargs)
        return Located(sub, result)


class CentralBackend:
    """The centralized reference semantics as an engine backend.

    Unlike the transports, the centralized semantics has no endpoints: the
    whole choreography executes in one thread on a :class:`CentralOp`, holding
    every located value's real contents while enforcing every census and
    ownership constraint globally.  Registering this class under the name
    ``"central"`` lets :class:`repro.runtime.engine.ChoreoEngine` offer it
    through the same ``engine.run``/``engine.submit`` surface as ``"local"``,
    ``"tcp"``, and ``"simulated"``.
    """

    def __init__(self, census: LocationsLike, timeout: float = DEFAULT_TIMEOUT, **_options: Any):
        self.census: Census = as_census(census).require_nonempty()
        self.stats = ChannelStats()
        self.timeout = timeout

    def close(self) -> None:
        """Nothing to release; present for lifecycle symmetry with Transport."""


def localize_return(value: Any, location: Location) -> Any:
    """Project a centralized return value to what ``location`` would hold.

    The distributed runtime hands each endpoint its own copy of the
    choreography's return value: owners of a :class:`Located` hold the value,
    non-owners a placeholder; a :class:`Faceted` shows each endpoint only the
    facets it is entitled to see.  The centralized semantics computes one
    global value; this helper restores the per-endpoint view so
    ``ChoreographyResult`` behaves identically across backends.  Only the
    top-level wrapper is localized — values nested inside plain containers
    are returned as-is, matching what a reference backend can know.
    """
    if isinstance(value, Located):
        if value.owners is None or location in value.owners:
            return value
        return Located.absent(value.owners)
    if isinstance(value, Faceted):
        facets = value.visible_facets()
        if location in value.common:
            visible = facets
        elif location in value.owners and location in facets:
            visible = {location: facets[location]}
        else:
            visible = {}
        return Faceted(value.owners, visible, value.common)
    return value


def run_centralized(
    choreography: Choreography,
    census: LocationsLike,
    *args: Any,
    stats: Optional[ChannelStats] = None,
    **kwargs: Any,
) -> Any:
    """Execute ``choreography`` under the centralized reference semantics.

    Returns the choreography's return value; pass ``stats`` to collect the
    messages the distributed execution would send.
    """
    op = CentralOp(census, stats)
    return choreography(op, *args, **kwargs)
