"""A HasChor-style baseline: broadcast-based Knowledge of Choice.

HasChor (Shen et al., ICFP 2023) is the library-level CP system the paper
improves on.  Its three primitive operators are ``locally``, ``comm`` (``~>``)
and ``cond``; its Knowledge-of-Choice strategy is "admittedly heavy-handed":
the scrutinee of every conditional is broadcast to *all* parties in the
choreography, whether or not they participate in either branch (paper §2.2).
It has singly-located values only — no MLVs, no conclaves, no census
polymorphism.

This module reimplements that design on the same
:class:`~repro.runtime.engine.ChoreoEngine` and transports that run
:mod:`repro.core`, so the message-count difference asserted by
``tests/test_paper_experiments.py::TestE2KnowledgeOfChoice`` isolates the
KoC strategy itself (exactly the comparison the paper's efficiency argument
makes).
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Dict, Optional, Sequence, TypeVar, Union

from ..core.epp import Endpoint
from ..core.errors import OwnershipError, PlaceholderError
from ..core.locations import Census, Location, LocationsLike, as_census
from ..runtime.engine import ChoreoEngine, ChoreographyResult
from ..runtime.stats import ChannelStats
from ..runtime.transport import DEFAULT_TIMEOUT, Transport, serialize

T = TypeVar("T")

#: A HasChor-style choreography: a callable taking a :class:`HasChorOp`.
HasChorChoreography = Callable[..., Any]


class At:
    """A singly-located value: HasChor's ``t @ l``.

    Unlike :class:`repro.core.located.Located`, an ``At`` has exactly one
    owner; that is the expressiveness gap the paper's MLVs close.
    """

    __slots__ = ("owner", "_value", "_present")

    def __init__(self, owner: Location, value: Any = None, *, present: bool = True):
        self.owner = owner
        self._value = value
        self._present = present

    def unwrap_for(self, location: Location) -> Any:
        if location != self.owner:
            raise OwnershipError(f"{location!r} does not own {self!r}")
        if not self._present:
            raise PlaceholderError(f"placeholder for {self!r} cannot be unwrapped")
        return self._value

    def peek(self) -> Any:
        if not self._present:
            raise PlaceholderError(f"cannot peek absent value {self!r}")
        return self._value

    def is_present(self) -> bool:
        return self._present

    def __repr__(self) -> str:
        if self._present:
            return f"At({self.owner!r}, {self._value!r})"
        return f"At({self.owner!r}, <absent>)"


class HasChorOp(abc.ABC):
    """HasChor's three primitives: ``locally``, ``comm``, and ``cond``."""

    def __init__(self, census: LocationsLike):
        self._census = as_census(census).require_nonempty()

    @property
    def census(self) -> Census:
        """All parties of the choreography.  HasChor has no conclaves: the
        census is fixed for the whole program."""
        return self._census

    @abc.abstractmethod
    def locally(self, location: Location, computation: Callable[[Callable[[At], Any]], T]) -> At:
        """Run ``computation`` at ``location``; others skip."""

    @abc.abstractmethod
    def comm(self, sender: Location, receiver: Location, value: At) -> At:
        """Send a located value point-to-point (HasChor's ``~>``)."""

    @abc.abstractmethod
    def cond(self, scrutinee: At, branches: Callable[[Any], T]) -> T:
        """Branch on a located value.

        The owner broadcasts the scrutinee to **every** party in the
        choreography — including parties with nothing to do in either branch —
        and then every party evaluates ``branches`` with the plain value.
        """

    # -- conveniences shared by implementations ------------------------------------

    def locally_(self, location: Location, computation: Callable[[], T]) -> At:
        """``locally`` for computations needing no located inputs."""
        return self.locally(location, lambda _un: computation())


class HasChorProjectedOp(HasChorOp):
    """Endpoint projection for the baseline, also via dependency injection."""

    def __init__(self, census: LocationsLike, target: Location, endpoint: Endpoint):
        super().__init__(census)
        self._target = target
        self._endpoint = endpoint

    @property
    def location(self) -> Location:
        return self._target

    def locally(self, location: Location, computation: Callable[[Callable[[At], Any]], T]) -> At:
        self._census.require_member(location)
        if location != self._target:
            return At(location, present=False)

        def unwrap(value: At) -> Any:
            return value.unwrap_for(location)

        return At(location, computation(unwrap))

    def comm(self, sender: Location, receiver: Location, value: At) -> At:
        self._census.require_member(sender)
        self._census.require_member(receiver)
        if not isinstance(value, At):
            raise OwnershipError(f"comm payload must be an At value, got {type(value).__name__}")
        if sender == receiver:
            if self._target == sender:
                return At(receiver, value.unwrap_for(sender))
            return At(receiver, present=False)
        if self._target == sender:
            self._endpoint.send(receiver, value.unwrap_for(sender))
            return At(receiver, present=False)
        if self._target == receiver:
            return At(receiver, self._endpoint.recv(sender))
        return At(receiver, present=False)

    def cond(self, scrutinee: At, branches: Callable[[Any], T]) -> T:
        if not isinstance(scrutinee, At):
            raise OwnershipError(
                f"cond scrutinee must be an At value, got {type(scrutinee).__name__}"
            )
        owner = scrutinee.owner
        self._census.require_member(owner)
        if self._target == owner:
            value = scrutinee.unwrap_for(owner)
            for receiver in self._census:
                if receiver != owner:
                    self._endpoint.send(receiver, value)
        else:
            value = self._endpoint.recv(owner)
        return branches(value)


class HasChorCentralOp(HasChorOp):
    """Centralized reference semantics for the baseline (used for cost models)."""

    def __init__(self, census: LocationsLike, stats: Optional[ChannelStats] = None):
        super().__init__(census)
        self.stats = stats if stats is not None else ChannelStats()

    def locally(self, location: Location, computation: Callable[[Callable[[At], Any]], T]) -> At:
        self._census.require_member(location)

        def unwrap(value: At) -> Any:
            return value.unwrap_for(location)

        return At(location, computation(unwrap))

    def comm(self, sender: Location, receiver: Location, value: At) -> At:
        self._census.require_member(sender)
        self._census.require_member(receiver)
        payload = value.unwrap_for(sender)
        if sender != receiver:
            self.stats.record(sender, receiver, len(serialize(payload)))
        return At(receiver, payload)

    def cond(self, scrutinee: At, branches: Callable[[Any], T]) -> T:
        owner = scrutinee.owner
        self._census.require_member(owner)
        value = scrutinee.peek()
        nbytes = len(serialize(value))
        for receiver in self._census:
            if receiver != owner:
                self.stats.record(owner, receiver, nbytes)
        return branches(value)


def run_haschor(
    choreography: HasChorChoreography,
    census: LocationsLike,
    args: Sequence[Any] = (),
    kwargs: Optional[Dict[str, Any]] = None,
    *,
    transport: Union[str, Transport] = "local",
    timeout: float = DEFAULT_TIMEOUT,
) -> ChoreographyResult:
    """Run a HasChor-style choreography on every endpoint concurrently.

    One :class:`~repro.runtime.engine.ChoreoEngine` instance whose workers
    project with :class:`HasChorProjectedOp` instead of the paper's
    operator; ``At`` returns are unwrapped to plain values (``None`` for a
    placeholder).  ``transport`` is a backend name or a pre-built
    :class:`~repro.runtime.transport.Transport` (borrowed, left open); the
    result's ``stats`` are this run's messages only, even on a pre-built
    transport that has carried earlier traffic.

    Raises:
        ValueError: For ``"central"``: a HasChor operator needs one endpoint
            per location.
        ChoreographyRuntimeError: When any location fails.
    """

    def projected(op: Any, *args: Any, **kwargs: Any) -> Any:
        haschor_op = HasChorProjectedOp(op.census, op.location, op.endpoint)
        return choreography(haschor_op, *args, **kwargs)

    with ChoreoEngine(census, backend=transport, timeout=timeout) as engine:
        if engine.transport is None:
            raise ValueError(
                f"backend {transport!r} is not a transport; run_haschor needs "
                "one endpoint per location"
            )
        result = engine.run(projected, args, kwargs)
    result.returns = {
        location: (value.peek() if value.is_present() else None) if isinstance(value, At) else value
        for location, value in result.returns.items()
    }
    return result
