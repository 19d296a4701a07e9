"""Endpoint projection as dependency injection (EPP-as-DI).

A choreography is an ordinary Python callable whose first argument is a
:class:`~repro.core.ops.ChoreoOp`.  Projecting the choreography to an endpoint
means calling it with a :class:`ProjectedOp` — an operator implementation that
performs only the projection target's share of the work: its own local
computations, its own sends, its own receives, and placeholders for everything
else.  This is the pattern the paper introduces for host languages without
free monads (§5.2); Python's first-class functions make it direct.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, Iterable, Mapping, Optional, Protocol, TypeVar, runtime_checkable

from .errors import CensusError, OwnershipError, PlaceholderError
from .located import ABSENT, Faceted, Located, Quire
from .locations import Census, Location, LocationsLike, as_census, single
from .ops import _NOT_CENSUS_WIDE, _NOT_EVERY_REPLICA, _NOT_THE_DEALERS, ChoreoOp, Choreography, Unwrapper, _require_kind

if TYPE_CHECKING:
    from ..runtime.transport import TransportEndpoint

T = TypeVar("T")


@runtime_checkable
class Endpoint(Protocol):
    """The transport interface one endpoint needs: point-to-point send/recv.

    This is the whole interface a projected program depends on.  The real
    implementations are :class:`repro.runtime.transport.TransportEndpoint`
    subclasses; anything with compatible ``send``/``recv`` methods (e.g. a
    test double) also works.
    """

    location: Location

    def send(self, receiver: Location, payload: Any) -> None:
        """Deliver ``payload`` to ``receiver`` (eventually, in FIFO order per pair)."""

    def recv(self, sender: Location) -> Any:
        """Block until the next payload from ``sender`` arrives and return it."""

    # Endpoints may additionally provide ``send_many(receivers, payload)`` —
    # a serialize-once broadcast of the same payload.  ``multicast`` uses it
    # when present and falls back to a loop of ``send`` otherwise, so minimal
    # two-method endpoints (test doubles, the HasChor baseline's) keep
    # working unchanged.
    #
    # A ``TransportEndpoint`` defines all of these once, over two byte-level
    # primitives each transport implements (accept one encoded frame for
    # one-or-many receivers; hand back the next ``(instance, bytes)`` from a
    # sender), and may defer sends into per-receiver write buffers that drain
    # on ``flush()``, on a byte high-watermark, and always before it blocks
    # in a receive (the flush-before-block rule — see
    # repro.runtime.transport).  Projected operators never need to call
    # ``flush``: a projected program only ever blocks in ``recv``, which
    # flushes first, and the engine flushes at instance boundaries for
    # trailing sends.


class InstanceScopedEndpoint:
    """Scope a transport endpoint to a single choreography *instance*.

    A persistent session (:class:`repro.runtime.engine.ChoreoEngine`) pipelines
    many independent choreography instances over one warm transport.  Each
    location runs the instances in submission order, but different locations
    may be executing *different* instances at the same moment, so messages of
    two instances can coexist on one directed channel.  This wrapper keeps them
    apart: every send passes the instance id as the frame tag
    (``send(..., instance=k)`` — the tag rides beside the payload bytes, so
    recorded payload bytes stay exact), and receives demultiplex on the tag
    ``recv_tagged`` returns.

    Because each location executes instances in increasing id order and every
    channel is FIFO, tags on a channel are non-decreasing.  That holds when an
    instance runs at a sub-census only (``engine.submit(..., census=...)``):
    ids are still drawn from one global counter, a location skips ids it is
    not a member of, and a projection over the sub-census cannot address a
    non-member, so every tag a location receives belongs to an instance it
    runs — a stashed tag is one still ahead of it, and the engine's purge of
    keys ≤ a finished instance drops nothing live.  A received tag can
    therefore only be

    * equal to ours — deliver it;
    * greater — a frame of a later instance, which per-channel FIFO and an
      exact projection let arrive first only when an earlier instance
      failed at the sender (it raised before its sends and ran ahead): a
      healthy pipelined run never stashes (0 in 800 programs,
      ``tests/test_formal_runtime.py::TestPipelinedTagsUnderFaults``).
      Stash the payload for the worker's future self
      (``stash[instance][sender]``); or
    * smaller — a leftover from an earlier instance that failed mid-protocol
      before consuming it; drop it.

    One worker thread drives each location, so neither the wrapped endpoint
    nor the stash needs additional locking here.
    """

    __slots__ = ("location", "_inner", "_instance", "_stash")

    def __init__(
        self,
        inner: "TransportEndpoint",
        instance: int,
        stash: Dict[int, Dict[Location, Deque[Any]]],
    ):
        self.location = inner.location
        self._inner = inner
        self._instance = instance
        self._stash = stash

    def send(self, receiver: Location, payload: Any) -> None:
        self._inner.send(receiver, payload, self._instance)

    def send_many(self, receivers: Iterable[Location], payload: Any) -> None:
        self._inner.send_many(receivers, payload, self._instance)

    def flush(self) -> None:
        """Drain the wrapped endpoint's deferred writes."""
        self._inner.flush()

    def recv(self, sender: Location) -> Any:
        stashed = self._stash.get(self._instance, {}).get(sender)
        if stashed:
            return stashed.popleft()
        while True:
            instance, payload = self._inner.recv_tagged(sender)
            if instance == self._instance:
                return payload
            if instance > self._instance:
                per_sender = self._stash.setdefault(instance, {})
                per_sender.setdefault(sender, deque()).append(payload)
            # Tags below the current instance are leftovers of an earlier,
            # already-finished (failed) run at this location: drop them.


def _make_unwrapper(viewer: Location, required_owners: Optional[Census] = None) -> Unwrapper:
    """Build the ``un`` function handed to local/replicated computations.

    ``required_owners`` is set for ``congruently``: every replica location must
    own any located value the computation reads, otherwise the replicas could
    not all perform the same computation.
    """

    def unwrap(value: Any, owner: Optional[Location] = None) -> Any:
        if isinstance(value, Located):
            if required_owners is not None:
                value.require_owned_by(required_owners, _NOT_EVERY_REPLICA)
            return value.unwrap_for(viewer)
        if isinstance(value, Faceted):
            return value.facet_for(viewer, owner)
        raise TypeError(
            f"unwrapper expects a Located or Faceted value, got {type(value).__name__}"
        )

    return unwrap


class ProjectedOp(ChoreoOp):
    """The choreographic operators as seen by a single endpoint.

    Parameters
    ----------
    census:
        The census of the (sub-)choreography being projected.
    target:
        The endpoint this projection is for.  It need not be a member of the
        census (a conclave projects to non-members as a skip), but operators
        will then only ever produce placeholders.
    endpoint:
        The transport endpoint used for this target's sends and receives.
    """

    def __init__(self, census: LocationsLike, target: Location, endpoint: Endpoint):
        super().__init__(census)
        self._target = target
        self._endpoint = endpoint

    # ------------------------------------------------------------------ basics --

    @property
    def location(self) -> Location:
        """The endpoint this operator is projected to."""
        return self._target

    @property
    def endpoint(self) -> Endpoint:
        """The transport endpoint backing this projection."""
        return self._endpoint

    # -------------------------------------------------------------- primitives --

    def locally(
        self, location: Location, computation: Callable[[Unwrapper], T]
    ) -> Located[T]:
        here = single(self._require_member(location))
        if location != self._target:
            return Located.absent(here)
        return Located(here, computation(_make_unwrapper(location)))

    def multicast(
        self, sender: Location, recipients: LocationsLike, value: Located[T]
    ) -> Located[T]:
        self._require_member(sender)
        receivers = self._require_subset(recipients)
        if not isinstance(value, Located):
            raise OwnershipError(
                f"multicast payload must be a Located value, got {type(value).__name__}; "
                "wrap constants with op.locally or op.congruently first"
            )
        if sender == self._target:
            payload = value.unwrap_for(sender)
            others = [receiver for receiver in receivers if receiver != sender]
            send_many = getattr(self._endpoint, "send_many", None)
            if send_many is not None and len(others) > 1:
                # Serialize-once broadcast: one serialization, N deliveries.
                send_many(others, payload)
            else:
                for receiver in others:
                    self._endpoint.send(receiver, payload)
            if sender in receivers:
                return Located(receivers, payload)
            return Located.absent(receivers)
        if self._target in receivers:
            payload = self._endpoint.recv(sender)
            return Located(receivers, payload)
        return Located.absent(receivers)

    def naked(self, value: Located[T]) -> T:
        _require_kind(value, Located, "naked")
        value.require_owned_by(self._census, _NOT_CENSUS_WIDE)
        if self._target not in self._census:
            raise CensusError(
                f"endpoint {self._target!r} is outside the census "
                f"{list(self._census)!r} and cannot unwrap census-wide values"
            )
        return value.unwrap_for(self._target)

    def congruently(
        self, locations: LocationsLike, computation: Callable[[Unwrapper], T]
    ) -> Located[T]:
        replicas = self._require_subset(locations)
        if self._target not in replicas:
            return Located.absent(replicas)
        value = computation(_make_unwrapper(self._target, required_owners=replicas))
        return Located(replicas, value)

    def conclave(
        self, sub_census: LocationsLike, choreography: Choreography, *args: Any, **kwargs: Any
    ) -> Located[Any]:
        sub = self._require_subset(sub_census)
        if self._target not in sub:
            # EPP of a conclave to a non-member is a skip.
            return Located.absent(sub)
        child = ProjectedOp(sub, self._target, self._endpoint)
        result = choreography(child, *args, **kwargs)
        return Located(sub, result)

    # ------------------------------------------------ census-polymorphic layer --
    # Direct forms of ChoreoOp's loops: the loop's ordered sends and receives,
    # value and checks (in its order), but no iteration naming someone else.

    def parallel(
        self, locations: LocationsLike, computation: Callable[[Location, Unwrapper], T]
    ) -> Faceted[T]:
        members, target = self._require_subset(locations), self._target
        facets = {target: computation(target, _make_unwrapper(target))} if target in members else {}
        return Faceted(members, facets)

    def gather(
        self, senders: LocationsLike, recipients: LocationsLike, values: Faceted[T]
    ) -> Located[Quire[T]]:
        sources, receivers = self._require_subset(senders), self._require_subset(recipients)
        _require_kind(values, Faceted, "gather")
        target, collected = self._target, {}
        for sender in sources:
            if sender == target:  # the loop's serialize-once multicast
                mine = self.multicast(sender, receivers, values.localize(sender))
                collected[sender] = mine.peek() if mine.is_present() else None
            else:
                values.owners.require_member(sender)
                if target in receivers:
                    collected[sender] = self._endpoint.recv(sender)
        if target not in receivers:
            return Located.absent(receivers)
        return Located(receivers, Quire(sources, collected))

    def scatter(
        self, sender: Location, recipients: LocationsLike, values: Located[Quire[T]]
    ) -> Faceted[T]:
        self._require_member(sender)
        receivers = self._require_subset(recipients)
        _require_kind(values, Located, "scatter")
        values.require_owned_by(single(sender), _NOT_THE_DEALERS)
        target, facets = self._target, {}
        if sender == target:
            quire = values.unwrap_for(sender)
            for member in receivers:
                facets[member] = quire[member]
                if member != sender:
                    self._endpoint.send(member, facets[member])
        elif target in receivers:
            facets[target] = self._endpoint.recv(sender)
        return Faceted(receivers, facets, single(sender))

    def exchange(
        self, parties: LocationsLike, outboxes: Faceted[Mapping[Location, T]]
    ) -> Faceted[Dict[Location, T]]:
        members = self._require_subset(parties)
        _require_kind(outboxes, Faceted, "exchange")
        target, inbox = self._target, {}
        for source in members:
            outboxes.owners.require_member(source)
            if source == target:
                for peer in members:
                    if peer != source:
                        self._endpoint.send(peer, outboxes.facet_for(source)[peer])
            elif target in members:
                inbox[source] = self._endpoint.recv(source)
        return Faceted(members, {target: inbox} if target in members else {})


def project(
    choreography: Choreography,
    census: LocationsLike,
    target: Location,
    endpoint: Endpoint,
) -> Callable[..., Any]:
    """Return the endpoint program for ``target``: a plain callable.

    Calling the returned function with the choreography's arguments executes
    ``target``'s role.  This is the run-time analogue of the paper's EPP
    ``⟦·⟧_p``.
    """
    full_census = as_census(census)

    def endpoint_program(*args: Any, **kwargs: Any) -> Any:
        op = ProjectedOp(full_census, target, endpoint)
        return choreography(op, *args, **kwargs)

    endpoint_program.__name__ = f"{getattr(choreography, '__name__', 'choreography')}@{target}"
    return endpoint_program
