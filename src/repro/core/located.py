"""Located values (MLVs), faceted values, and quires.

These are the three data abstractions the paper builds its Knowledge-of-Choice
and census-polymorphism story on:

* :class:`Located` — a *multiply-located value* (MLV): one value annotated with
  a non-empty set of owners.  Projection to an owner yields the value;
  projection to anyone else yields a placeholder.  All owners hold the *same*
  value (the MLV invariant).
* :class:`Faceted` — a value annotated with a set of owners where each owner
  holds its *own*, possibly different, value; non-owners hold a placeholder.
  Optionally a set of *common* owners know every facet (the return type of
  ``scatter`` has the sender as a common owner).
* :class:`Quire` — a plain, non-choreographic vector of values indexed by
  location.  Endpoint projection has no effect on a quire; it is the shape of
  ``gather``'s payload.

Construction of :class:`Located` and :class:`Faceted` is reserved to the
library (the ``ChoreoOp`` implementations); user code only ever *unwraps* them
through the unwrappers passed to ``locally`` / ``parallel`` / ``congruently``
or through ``naked`` / ``broadcast``.  This mirrors how MultiChor hides the
``Wrap``/``Empty`` constructors inside its core module.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable, Dict, Generic, Iterator, Mapping, Optional, Tuple, TypeVar

from .errors import OwnershipError, PlaceholderError
from .locations import _INTERN_BOUND, Census, Location, LocationsLike, as_census, single

T = TypeVar("T")


class _Absent:
    """The placeholder a non-owner holds in place of a located value.

    Corresponds to ``Empty`` in HasChor/MultiChor and ``⊥`` in the paper's
    formal model: not an error, simply "somebody else's problem".
    """

    _instance: Optional["_Absent"] = None

    def __new__(cls) -> "_Absent":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ABSENT"

    def __bool__(self) -> bool:
        raise PlaceholderError(
            "a placeholder (the projection of a located value to a non-owner) "
            "was used as data; only owners may inspect a located value"
        )


#: Singleton placeholder for "this endpoint does not own the value".
ABSENT = _Absent()


class Located(Generic[T]):
    """A multiply-located value: one value owned by one or more locations.

    At an owning endpoint the instance carries the actual value; at any other
    endpoint it carries :data:`ABSENT`.  The ``owners`` annotation may be
    ``None`` at endpoints that received the wrapper second-hand (e.g. the
    result of a conclave they did not participate in); such endpoints can pass
    the wrapper around but can never unwrap it.
    """

    __slots__ = ("_owners", "_value", "_present")

    def __init__(self, owners: Optional[LocationsLike], value: Any = ABSENT):
        if owners is not None:
            owners = as_census(owners).require_nonempty()
        self._owners: Optional[Census] = owners
        self._value = value
        self._present = value is not ABSENT

    # -- introspection -------------------------------------------------------------

    @property
    def owners(self) -> Optional[Census]:
        """The ownership set, or ``None`` when unknown at this endpoint."""
        return self._owners

    def is_present(self) -> bool:
        """True when this endpoint holds the actual value (i.e. it is an owner)."""
        return self._present

    def owned_by(self, location: Location) -> bool:
        """True when ``location`` is a known owner of this value."""
        return self._owners is not None and location in self._owners

    def require_owned_by(self, census: Census, why: str) -> None:
        """Raise :class:`OwnershipError` (``why``) unless all of ``census``
        owns this value; an unknown ownership set passes."""
        if self._owners is not None and not self._owners.covers(census):
            missing = [loc for loc in census if loc not in self._owners]
            raise OwnershipError(f"{why}; missing owners {missing!r} of {self!r}")

    def __repr__(self) -> str:
        owner_list = list(self._owners) if self._owners is not None else "?"
        if self._present:
            return f"Located(owners={owner_list}, value={self._value!r})"
        return f"Located(owners={owner_list}, <absent>)"

    # -- controlled access ---------------------------------------------------------

    def unwrap_for(self, location: Location) -> T:
        """Return the value on behalf of ``location``, which must be an owner.

        This is the library-internal unwrapping primitive; user code receives
        it pre-applied as the ``un`` argument of ``locally`` and friends.
        """
        if self._owners is not None and location not in self._owners:
            raise OwnershipError(
                f"location {location!r} is not an owner of {self!r}"
            )
        if not self._present:
            raise PlaceholderError(
                f"endpoint {location!r} holds only a placeholder for {self!r}; "
                "it cannot unwrap a value it never received"
            )
        return self._value

    def peek(self) -> T:
        """Return the value without an ownership check.

        Reserved for the centralized (reference) semantics and for analyses;
        projected endpoints never call this.
        """
        if not self._present:
            raise PlaceholderError(f"cannot peek an absent located value {self!r}")
        return self._value

    # -- structural helpers --------------------------------------------------------

    def map(self, fn: Callable[[T], Any]) -> "Located[Any]":
        """Apply a pure function to the value, preserving ownership.

        The function must be pure: it runs congruently at every owner, so an
        impure function would break the MLV invariant.  (In MultiChor this is
        ``congruently`` specialised to one argument.)
        """
        if self._present:
            return Located(self._owners, fn(self._value))
        return Located.absent(self._owners)

    @staticmethod
    def absent(owners: Optional[LocationsLike] = None) -> "Located[Any]":
        """A placeholder wrapper (what EPP hands to non-owners): one shared,
        immutable instance per ownership set."""
        return _placeholder(None if owners is None else as_census(owners))


@lru_cache(maxsize=_INTERN_BOUND)
def _placeholder(owners: Optional[Census]) -> "Located[Any]":
    return Located(owners)


class Faceted(Generic[T]):
    """A per-party value: each owner holds its own facet.

    ``owners`` is the list of parties that each hold a facet.  ``common`` is
    the (possibly empty) list of parties that know *all* facets — e.g. the
    sender of a ``scatter``.  At a projected endpoint only the facets that
    endpoint is entitled to see are populated.
    """

    __slots__ = ("_owners", "_common", "_facets")

    def __init__(
        self,
        owners: LocationsLike,
        facets: Mapping[Location, Any],
        common: LocationsLike = (),
    ):
        self._owners = as_census(owners).require_nonempty()
        self._common = as_census(common)
        unknown = [loc for loc in facets if loc not in self._owners]
        if unknown:
            raise OwnershipError(
                f"facets supplied for non-owners {unknown!r} of Faceted over "
                f"{list(self._owners)!r}"
            )
        self._facets: Dict[Location, Any] = dict(facets)

    @property
    def owners(self) -> Census:
        """The parties that each hold a facet."""
        return self._owners

    @property
    def common(self) -> Census:
        """The parties that know every facet (may be empty)."""
        return self._common

    def has_facet(self, location: Location) -> bool:
        """True when this endpoint's copy actually holds ``location``'s facet."""
        return location in self._facets

    def facet_for(self, viewer: Location, owner: Optional[Location] = None) -> T:
        """Return the facet visible to ``viewer``.

        A plain owner sees only its own facet; a *common* owner may name any
        ``owner`` whose facet it wants.  Mirrors MultiChor's ``viewFacet``/
        ``localize``.
        """
        owner = viewer if owner is None else owner
        if owner not in self._owners:
            raise OwnershipError(
                f"{owner!r} is not an owner of Faceted over {list(self._owners)!r}"
            )
        if viewer != owner and viewer not in self._common:
            raise OwnershipError(
                f"{viewer!r} may not view {owner!r}'s facet; only common owners "
                f"{list(self._common)!r} see every facet"
            )
        if owner not in self._facets:
            raise PlaceholderError(
                f"endpoint holds no facet for {owner!r}; it only has "
                f"{sorted(self._facets)!r}"
            )
        return self._facets[owner]

    def localize(self, owner: Location) -> Located[T]:
        """View one party's facet as a singly-located value (MultiChor ``localize``)."""
        self._owners.require_member(owner)
        if owner in self._facets:
            return Located(single(owner), self._facets[owner])
        return Located.absent(single(owner))

    def to_quire(self) -> "Quire[T]":
        """Collapse to a quire.  Only meaningful where every facet is visible
        (the centralized semantics, or a common owner)."""
        missing = [loc for loc in self._owners if loc not in self._facets]
        if missing:
            raise PlaceholderError(
                f"cannot build a quire: facets for {missing!r} are not visible here"
            )
        return Quire(self._owners, {loc: self._facets[loc] for loc in self._owners})

    def visible_facets(self) -> Dict[Location, Any]:
        """The facets populated at this endpoint (a copy)."""
        return dict(self._facets)

    def __repr__(self) -> str:
        return (
            f"Faceted(owners={list(self._owners)!r}, common={list(self._common)!r}, "
            f"facets={self._facets!r})"
        )


class Quire(Generic[T]):
    """A vector of same-typed values indexed by location.

    A quire is *not* a choreographic data type: endpoint projection has no
    effect on it.  It is how ``gather`` hands a recipient the full collection
    of values, one per sender, and how ``scatter`` accepts the values to
    distribute.
    """

    __slots__ = ("_census", "_values")

    def __init__(self, census: LocationsLike, values: Mapping[Location, T]):
        self._census = as_census(census).require_nonempty()
        missing = [loc for loc in self._census if loc not in values]
        if missing:
            raise OwnershipError(f"quire over {list(self._census)!r} missing values for {missing!r}")
        extra = [loc for loc in values if loc not in self._census]
        if extra:
            raise OwnershipError(f"quire over {list(self._census)!r} has extra values for {extra!r}")
        self._values: Dict[Location, T] = {loc: values[loc] for loc in self._census}

    @classmethod
    def from_function(cls, census: LocationsLike, fn: Callable[[Location], T]) -> "Quire[T]":
        """Build a quire by applying ``fn`` to each location of ``census``."""
        members = as_census(census)
        return cls(members, {loc: fn(loc) for loc in members})

    @property
    def census(self) -> Census:
        """The locations indexing this quire, in order."""
        return self._census

    def __getitem__(self, location: Location) -> T:
        self._census.require_member(location)
        return self._values[location]

    def __iter__(self) -> Iterator[Tuple[Location, T]]:
        return iter(self._values.items())

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Quire):
            return self._census == other._census and self._values == other._values
        return NotImplemented

    def values(self) -> Tuple[T, ...]:
        """The values in census order."""
        return tuple(self._values[loc] for loc in self._census)

    def to_dict(self) -> Dict[Location, T]:
        """A plain dict copy of the quire."""
        return dict(self._values)

    def map(self, fn: Callable[[T], Any]) -> "Quire[Any]":
        """Apply a function to every entry, preserving the index."""
        return Quire(self._census, {loc: fn(value) for loc, value in self._values.items()})

    def modify(self, location: Location, fn: Callable[[T], T]) -> "Quire[T]":
        """Return a copy with ``location``'s entry replaced by ``fn(old)``
        (MultiChor's ``qModify``)."""
        self._census.require_member(location)
        updated = dict(self._values)
        updated[location] = fn(updated[location])
        return Quire(self._census, updated)

    def __repr__(self) -> str:
        return f"Quire({self._values!r})"
