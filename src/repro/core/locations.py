"""Locations, censuses, and membership/subset relations.

In the paper's Haskell implementation (MultiChor) locations are type-level
strings and membership is witnessed by term-level proof objects; in ChoRus
membership is a trait; in ChoreoTS it is union-type subtyping.  Python has no
comparable static machinery, so this module provides the *runtime* half of
the same design: locations are plain strings, a :class:`Census` is an ordered,
duplicate-free collection of locations, and the membership/subset checks that
the host type systems perform statically are explicit functions that raise
:class:`~repro.core.errors.CensusError` when violated.  Each distinct
set is checked once: :func:`as_census`, :func:`single` and the census algebra
intern their results, so re-proving a known census is an identity test, and
each census remembers the subsets it has proved, so a warm subset proof is
one set lookup.

The ordering of a census is significant: census-polymorphic loops (fan-out,
fan-in, gather, …) iterate the census in order at *every* endpoint, which is
what keeps the projected send/receive sequences aligned.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, List, Sequence, Set, Tuple, Union

from .errors import CensusError, EmptyCensusError

#: A location (party / role / endpoint) is identified by a string,
#: mirroring MultiChor's type-level ``Symbol`` locations.
Location = str

LocationsLike = Union["Census", Sequence[Location], Iterable[Location]]


def _as_location_tuple(locations: LocationsLike) -> Tuple[Location, ...]:
    """Normalize any iterable of locations to a tuple, validating entries."""
    if isinstance(locations, Census):
        return locations.members
    if isinstance(locations, str):
        # A bare string is almost always a mistake ("abc" would iterate chars).
        raise CensusError(
            f"expected a collection of locations, got the single string {locations!r}; "
            "wrap it in a list, e.g. ['" + locations + "']"
        )
    items = tuple(locations)
    for item in items:
        if not isinstance(item, str) or not item:
            raise CensusError(f"locations must be non-empty strings, got {item!r}")
    return items


class Census:
    """An ordered, duplicate-free set of locations.

    A census is the list of parties eligible to participate in a
    choreographic expression.  Conclaves narrow the census to a subset;
    census-polymorphic operators loop over it.

    Censuses compare equal when they contain the same locations in the same
    order, are hashable, and support the usual containment and subset
    operations.
    """

    __slots__ = ("_members", "_index", "_hash", "_proved")

    def __init__(self, locations: LocationsLike):
        members = _as_location_tuple(locations)
        seen = {}
        for position, member in enumerate(members):
            if member in seen:
                raise CensusError(
                    f"duplicate location {member!r} in census {members!r}"
                )
            seen[member] = position
        self._members: Tuple[Location, ...] = members
        self._index = seen
        self._hash = hash(members)
        #: Censuses proved subsets of this one (bounded; failures never enter).
        self._proved: Set["Census"] = set()

    # -- basic container protocol -------------------------------------------------

    @property
    def members(self) -> Tuple[Location, ...]:
        """The locations of this census, in order."""
        return self._members

    def __iter__(self) -> Iterator[Location]:
        return iter(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, location: object) -> bool:
        return location in self._index

    def __getitem__(self, index: int) -> Location:
        return self._members[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Census):
            return self._members == other._members
        if isinstance(other, (tuple, list)):
            return self._members == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):  # the cached hash and proofs are this process's
        return as_census, (self._members,)

    def __repr__(self) -> str:
        return f"Census({list(self._members)!r})"

    # -- membership / subset relations --------------------------------------------

    def index_of(self, location: Location) -> int:
        """Return the position of ``location``, raising if it is not a member.

        This is the runtime analogue of MultiChor's ``Member l ls`` proof
        witness, whose underlying form is exactly such an index.
        """
        try:
            return self._index[location]
        except KeyError:
            raise CensusError(
                f"location {location!r} is not in census {list(self._members)!r}"
            ) from None

    def require_member(self, location: Location) -> Location:
        """Assert that ``location`` is a member and return it."""
        self.index_of(location)
        return location

    def require_subset(self, locations: LocationsLike) -> "Census":
        """Assert that ``locations`` are all members; return them as a Census.

        The returned census preserves the *argument's* ordering, matching the
        paper's ``Subset`` witnesses which are functions from member indices.
        """
        subset = as_census(locations)
        if not self.covers(subset):
            raise CensusError(
                f"locations {self._missing(subset)!r} are not in census {list(self._members)!r}"
            )
        return subset

    def covers(self, subset: "Census") -> bool:
        """True when every member of ``subset`` is a member here.

        A success is remembered (identity first, then equality, as for any
        set), so a warm proof walks no members; a failure is never cached.
        """
        if subset is self or subset in self._proved:
            return True
        if self._missing(subset):
            return False
        if len(self._proved) < _PROOF_BOUND:
            self._proved.add(subset)
        return True

    def _missing(self, subset: "Census") -> List[Location]:
        """The members of ``subset`` outside this census: the one member walk."""
        return [member for member in subset._members if member not in self._index]

    def require_nonempty(self) -> "Census":
        """Assert that this census has at least one member."""
        if not self._members:
            raise EmptyCensusError("census must contain at least one location")
        return self

    # -- construction helpers ------------------------------------------------------

    def restricted_to(self, locations: LocationsLike) -> "Census":
        """Return the sub-census of members that also appear in ``locations``.

        This is the runtime analogue of the paper's mask operator ``▷`` applied
        to an ownership set: the result preserves *this* census's ordering.
        """
        other = as_census(locations)
        return _interned(tuple(member for member in self._members if member in other._index))

    def union(self, locations: LocationsLike) -> "Census":
        """Return a census with the members of both, preserving first-seen order."""
        others = dict.fromkeys(_as_location_tuple(locations))  # first-seen order, no repeats
        added = tuple(member for member in others if member not in self._index)
        return _interned(self._members + added) if added else self

    def without(self, locations: LocationsLike) -> "Census":
        """Return a census excluding the given locations (which need not be members)."""
        excluded = set(_as_location_tuple(locations))
        return _interned(tuple(member for member in self._members if member not in excluded))


#: Distinct censuses kept interned; past it the least recently used is dropped.
_INTERN_BOUND = 4096
#: Subset proofs one census remembers; past it, later subsets are re-walked.
_PROOF_BOUND = 32


@lru_cache(maxsize=_INTERN_BOUND)
def _interned(members: Tuple[Location, ...]) -> Census:
    """The census over ``members``, built and validated once per distinct tuple;
    a rejected tuple raises out of ``Census`` and is never cached."""
    return Census(members)


def as_census(locations: LocationsLike) -> Census:
    """Coerce a census-like value to a :class:`Census` (interned: equal inputs share one)."""
    if isinstance(locations, Census):
        return locations
    # A bare string goes through whole, for Census to reject (not its letters).
    members = locations if isinstance(locations, str) else tuple(locations)
    try:
        return _interned(members)
    except TypeError:  # an unhashable entry: let Census name it
        return Census(members)


def single(location: Location) -> Census:
    """The one-member census containing ``location`` (MultiChor's ``l @@ nobody``)."""
    if not isinstance(location, str) or not location:
        raise CensusError(f"locations must be non-empty strings, got {location!r}")
    return _interned((location,))
