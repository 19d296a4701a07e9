"""The choreographic operator surface (``ChoreoOp``).

This is the *dependency-injection record* of the paper's EPP-as-DI pattern
(§5.2): a choreography is an ordinary Python callable whose first argument is
a :class:`ChoreoOp`; endpoint projection consists of calling the choreography
with an operator implementation specialised to one endpoint
(:class:`repro.core.epp.ProjectedOp`) or with the centralized reference
implementation (:class:`repro.runtime.central.CentralOp`).

Only a small set of operators is primitive — ``locally``, ``multicast``,
``naked``, ``congruently``, and ``conclave`` — mirroring MultiChor's four
core constructors.  Everything else (point-to-point ``comm``, ``broadcast``,
``parallel``, ``fanout``, ``fanin``, ``scatter``, ``gather``, ``exchange``)
is *derived* here from the primitives, exactly as the paper argues they can
be (§3.4, §5.4): census polymorphism needs no new primitives, only a loop
over the census.  The loops are the reference semantics, which
:class:`~repro.runtime.central.CentralOp` runs.  Under projection most of a
loop's iterations name someone else, so :class:`~repro.core.epp.ProjectedOp`
gives the four whose bodies are fixed (``parallel``, ``gather``, ``scatter``
and ``exchange``) direct forms that do only the target's share; ``fanout``
and ``fanin`` stay derived because their bodies may communicate.

Choreographies written against this surface are oblivious to *how* they are
executed: under the centralized reference semantics, or as one of many
pipelined instances inside a persistent :class:`~repro.runtime.engine.ChoreoEngine`
session, where the endpoint behind the projected operators is scoped to a
single instance (:class:`~repro.core.epp.InstanceScopedEndpoint`).  Nothing
here may assume exclusive ownership of a transport.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Dict, Mapping, Optional, TypeVar

from .errors import CensusError, OwnershipError, PlaceholderError
from .located import ABSENT, Faceted, Located, Quire
from .locations import Census, Location, LocationsLike, as_census, single

T = TypeVar("T")
R = TypeVar("R")

#: A choreography is any callable taking a ChoreoOp as its first argument.
Choreography = Callable[..., Any]

#: The unwrapper handed to ``locally`` / ``parallel`` / ``congruently`` bodies.
#: ``un(located)`` yields the value; ``un(faceted)`` yields the caller's facet;
#: ``un(faceted, owner)`` yields ``owner``'s facet when the caller may see it.
Unwrapper = Callable[..., Any]

#: Why ``congruently`` / ``naked`` / ``scatter`` refuse a value, shared by every ChoreoOp.
_NOT_EVERY_REPLICA = "congruent computation reads a value not owned by every replica"
_NOT_CENSUS_WIDE = "naked requires the whole census to own the value"
_NOT_THE_DEALERS = "scatter values must be owned by the sender"


def _require_kind(value: Any, kind: type, what: str) -> None:
    """Refuse a mistyped operand at every endpoint, before any message."""
    if not isinstance(value, kind):
        raise OwnershipError(f"{what} expects a {kind.__name__} value, got {type(value).__name__}")


class ChoreoOp(abc.ABC):
    """Abstract choreographic operators, parameterised by a census.

    Concrete subclasses provide the five primitives; this base class supplies
    the derived, census-polymorphic layer on top of them.
    """

    def __init__(self, census: LocationsLike):
        self._census = as_census(census).require_nonempty()

    # ------------------------------------------------------------------ census --

    @property
    def census(self) -> Census:
        """The parties eligible to participate in the current (sub-)choreography."""
        return self._census

    @property
    def location(self) -> Optional[Location]:
        """The endpoint this operator is projected to, or ``None`` for the
        centralized semantics."""
        return None

    def _require_member(self, location: Location) -> Location:
        return self._census.require_member(location)

    def _require_subset(self, locations: LocationsLike) -> Census:
        return self._census.require_subset(locations).require_nonempty()

    # -------------------------------------------------------------- primitives --

    @abc.abstractmethod
    def locally(
        self, location: Location, computation: Callable[[Unwrapper], T]
    ) -> Located[T]:
        """Run ``computation`` at ``location`` only.

        The computation receives an unwrapper valid for ``location`` and may
        be impure.  Every other endpoint skips it and receives a placeholder.
        """

    @abc.abstractmethod
    def multicast(
        self, sender: Location, recipients: LocationsLike, value: Located[T]
    ) -> Located[T]:
        """Send ``value`` (owned by ``sender``) to every recipient.

        Returns a multiply-located value owned by the recipient set.  If the
        sender is among the recipients it keeps its copy without a message.
        The recipient list must be a subset of the census.
        """

    @abc.abstractmethod
    def naked(self, value: Located[T]) -> T:
        """Unwrap a value owned by the *entire* census.

        Because every census member holds the value, the unwrapped result may
        drive plain host-language control flow: this is how conclaves-&-MLVs
        answers Knowledge of Choice without extra messages.
        """

    @abc.abstractmethod
    def congruently(
        self, locations: LocationsLike, computation: Callable[[Unwrapper], T]
    ) -> Located[T]:
        """Run a *pure* computation replicated at every location in ``locations``.

        All replicas must compute the same result (the MLV invariant); the
        library cannot enforce purity in Python, so the computation must not
        read local state or randomness.
        """

    @abc.abstractmethod
    def conclave(
        self, sub_census: LocationsLike, choreography: Choreography, *args: Any, **kwargs: Any
    ) -> Located[Any]:
        """Run ``choreography`` with the census narrowed to ``sub_census``.

        Endpoints outside the sub-census skip the body entirely (no messages,
        no branching) and receive a placeholder; endpoints inside receive the
        body's result as a value multiply-located at the sub-census.
        """

    # ------------------------------------------------------- derived operators --

    def comm(self, sender: Location, receiver: Location, value: Located[T]) -> Located[T]:
        """Point-to-point communication: the classic ``~>`` operator."""
        return self.multicast(sender, single(receiver), value)

    def broadcast(self, sender: Location, value: Located[T]) -> T:
        """Send ``value`` to the whole census and unwrap it everywhere.

        Inside a conclave the census is the conclave's census, so a broadcast
        only reaches the parties that actually need Knowledge of Choice.
        Under projection the underlying multicast is a serialize-once
        ``send_many``: one serialization shared by every receiver.
        """
        return self.naked(self.multicast(sender, self._census, value))

    def locally_(self, location: Location, computation: Callable[[], T]) -> Located[T]:
        """``locally`` for computations that need no located inputs."""
        return self.locally(location, lambda _un: computation())

    def flatten(self, value: Located[Any]) -> Located[Any]:
        """Un-nest ``Located(outer, Located(inner, x))`` to ``Located(inner, x)``.

        Needed when a conclave returns a located value: the conclave wraps it
        once more (MultiChor's ``flatten``).
        """
        if value.is_present():
            inner = value.peek()
            if isinstance(inner, Located):
                return inner
            raise OwnershipError(
                f"flatten expects a nested located value, found {type(inner).__name__}"
            )
        return Located.absent(None)

    def restrict(self, value: Located[T], owners: LocationsLike) -> Located[T]:
        """Shrink the ownership set of a located value (MultiChor ``othersForget``).

        Endpoints outside ``owners`` forget the value: their copy becomes a
        placeholder.  Used e.g. by secret sharing, where the dealer must not be
        considered an owner of the shares it dealt.
        """
        kept = self._require_subset(owners)
        endpoint = self.location  # None under the centralized semantics: keep it
        if value.is_present() and (endpoint is None or endpoint in kept):
            return Located(kept, value.peek())
        return Located.absent(kept)

    def forget_common(self, value: Faceted[T]) -> Faceted[T]:
        """Drop the *common* owners of a faceted value (MultiChor ``othersForget``).

        After forgetting, each owner may only view its own facet; the parties
        that used to see every facet (e.g. the dealer of a ``scatter``) lose
        that right.  Used by secret sharing, where the dealer of the shares
        must not be treated as knowing the shares it dealt.
        """
        _require_kind(value, Faceted, "forget_common")
        endpoint = self.location
        facets = value.visible_facets()
        if endpoint is not None:
            if endpoint in value.owners and endpoint in facets:
                facets = {endpoint: facets[endpoint]}
            else:
                facets = {}
        return Faceted(value.owners, facets, ())

    def conclave_to(
        self,
        sub_census: LocationsLike,
        result_owners: LocationsLike,
        choreography: Choreography,
        *args: Any,
        **kwargs: Any,
    ) -> Located[Any]:
        """Run a conclave whose body returns a located value, and flatten it.

        ``result_owners`` documents (and checks) who owns the flattened result;
        endpoints outside the conclave receive a placeholder annotated with
        that ownership set so later operators can still reason about it.
        """
        owners = self._require_subset(result_owners)
        wrapped = self.conclave(sub_census, choreography, *args, **kwargs)
        flattened = self.flatten(wrapped)
        if flattened.is_present():
            return Located(owners, flattened.peek())
        return Located.absent(owners)

    # ----------------------------------------------- census-polymorphic layer --

    def parallel(
        self,
        locations: LocationsLike,
        computation: Callable[[Location, Unwrapper], T],
    ) -> Faceted[T]:
        """Run ``computation`` at every location of ``locations`` in parallel.

        Unlike ``congruently`` the computation receives its own location and
        may be impure, so results may diverge: the result is faceted.
        """
        members = self._require_subset(locations)
        facets: Dict[Location, Any] = {}
        for member in members:
            result = self.locally(member, lambda un, _m=member: computation(_m, un))
            if result.is_present():
                facets[member] = result.peek()
        return Faceted(members, facets)

    def fanout(
        self,
        locations: LocationsLike,
        body: Callable[[Location], Located[T]],
        common: LocationsLike = (),
    ) -> Faceted[T]:
        """Loop over ``locations``; each iteration produces a value located at
        the loop variable (plus any ``common`` owners); aggregate as a Faceted.

        The whole census participates in every iteration (the body may
        communicate); conclave inside the body if that is not desired.
        """
        members = self._require_subset(locations)
        common_census = as_census(common)
        facets: Dict[Location, Any] = {}
        for member in members:
            produced = body(member)
            if not isinstance(produced, Located):
                raise OwnershipError(
                    f"fanout body for {member!r} must return a Located value, got "
                    f"{type(produced).__name__}"
                )
            if produced.is_present():
                facets[member] = produced.peek()
        return Faceted(members, facets, common_census)

    def fanin(
        self,
        locations: LocationsLike,
        recipients: LocationsLike,
        body: Callable[[Location], Located[T]],
    ) -> Located[Quire[T]]:
        """Loop over ``locations``; each iteration produces a value located at
        the (fixed) ``recipients``; aggregate the results into a quire owned by
        the recipients."""
        members = self._require_subset(locations)
        receivers = self._require_subset(recipients)
        collected: Dict[Location, Any] = {}
        complete = True
        for member in members:
            produced = body(member)
            if not isinstance(produced, Located):
                raise OwnershipError(
                    f"fanin body for {member!r} must return a Located value, got "
                    f"{type(produced).__name__}"
                )
            if produced.is_present():
                collected[member] = produced.peek()
            else:
                complete = False
        if complete:
            return Located(receivers, Quire(members, collected))
        return Located.absent(receivers)

    def scatter(
        self,
        sender: Location,
        recipients: LocationsLike,
        values: Located[Quire[T]],
    ) -> Faceted[T]:
        """Distribute one value per recipient from a quire owned by ``sender``.

        The sender keeps knowledge of every value it sent, so it is recorded
        as a *common* owner of the resulting faceted value.
        """
        self._require_member(sender)
        receivers = self._require_subset(recipients)
        _require_kind(values, Located, "scatter")
        values.require_owned_by(single(sender), _NOT_THE_DEALERS)

        def send_one(recipient: Location) -> Located[T]:
            payload = values.map(lambda quire, _r=recipient: quire[_r])
            destinations = [recipient] if recipient == sender else [recipient, sender]
            return self.multicast(sender, destinations, payload)

        return self.fanout(receivers, send_one, common=[sender])

    def gather(
        self,
        senders: LocationsLike,
        recipients: LocationsLike,
        values: Faceted[T],
    ) -> Located[Quire[T]]:
        """Collect every sender's facet at the recipients, as a quire.

        With multiple recipients each sender's multicast rides the
        serialize-once ``send_many`` path: its facet is serialized once and
        delivered to every recipient.
        """
        sources = self._require_subset(senders)
        receivers = self._require_subset(recipients)
        _require_kind(values, Faceted, "gather")

        def send_one(sender: Location) -> Located[T]:
            return self.multicast(sender, receivers, values.localize(sender))

        return self.fanin(sources, receivers, send_one)

    def exchange(
        self, parties: LocationsLike, outboxes: Faceted[Mapping[Location, T]]
    ) -> Faceted[Dict[Location, T]]:
        """All-to-all: each party's facet of ``outboxes`` maps every other party
        to what it sends that party.  The ``n · (n − 1)`` messages go source-major
        in census order, so a party's sends leave back to back; each party gets
        back its inbox, mapping every other party (in census order) to what it sent."""
        members = self._require_subset(parties)
        _require_kind(outboxes, Faceted, "exchange")
        inbox: Dict[Location, Dict[Location, Located[T]]] = {member: {} for member in members}
        for source in members:
            outbox = outboxes.localize(source)
            for peer in members:
                if peer != source:
                    entry = outbox.map(lambda sent, _peer=peer: sent[_peer])
                    inbox[peer][source] = self.comm(source, peer, entry)
        return self.parallel(members, lambda party, un: {s: un(v) for s, v in inbox[party].items()})
