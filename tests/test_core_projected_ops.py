"""Unit tests for the projected choreographic operators (EPP-as-DI).

These tests drive :class:`ProjectedOp` instances directly against an in-memory
fake endpoint, so each operator's per-endpoint behaviour (who computes, who
sends, who receives, who gets a placeholder) can be checked in isolation —
without threads.
"""

from __future__ import annotations

import collections
import threading
from typing import Any, Dict, List, Tuple

import pytest

from repro.core.epp import ProjectedOp, project
from repro.core.errors import CensusError, OwnershipError, PlaceholderError
from repro.core.located import Faceted, Located, Quire
from repro.core.locations import Census
from repro.core.ops import ChoreoOp
from repro.protocols import circuits
from repro.protocols.gmw import gmw
from repro.runtime import ChoreoEngine
from repro.runtime.local import LocalTransport


class FakeEndpoint:
    """Records sends; serves receives from a scripted queue."""

    def __init__(self, location: str):
        self.location = location
        self.sent: List[Tuple[str, Any]] = []
        self.inbox: Dict[str, List[Any]] = {}

    def send(self, receiver: str, payload: Any) -> None:
        self.sent.append((receiver, payload))

    def recv(self, sender: str) -> Any:
        return self.inbox[sender].pop(0)

    def expect(self, sender: str, *payloads: Any) -> None:
        self.inbox.setdefault(sender, []).extend(payloads)


def make_op(census, target) -> Tuple[ProjectedOp, FakeEndpoint]:
    endpoint = FakeEndpoint(target)
    return ProjectedOp(census, target, endpoint), endpoint


CENSUS = ["alice", "bob", "carol"]


class TestLocally:
    def test_runs_only_at_the_named_location(self):
        op, _ = make_op(CENSUS, "alice")
        value = op.locally("alice", lambda _un: 42)
        assert value.peek() == 42
        assert list(value.owners) == ["alice"]

    def test_other_endpoints_skip_and_get_placeholders(self):
        op, _ = make_op(CENSUS, "bob")
        calls = []
        value = op.locally("alice", lambda _un: calls.append(1))
        assert not value.is_present()
        assert calls == []

    def test_location_must_be_in_census(self):
        op, _ = make_op(CENSUS, "alice")
        with pytest.raises(CensusError):
            op.locally("mallory", lambda _un: 1)

    def test_unwrapper_reads_own_located_values(self):
        op, _ = make_op(CENSUS, "alice")
        first = op.locally("alice", lambda _un: 10)
        second = op.locally("alice", lambda un: un(first) + 1)
        assert second.peek() == 11

    def test_unwrapper_rejects_other_parties_values(self):
        op, _ = make_op(CENSUS, "bob")
        foreign = Located(["alice"], 10)
        with pytest.raises(OwnershipError):
            op.locally("bob", lambda un: un(foreign))

    def test_unwrapper_reads_faceted_own_facet(self):
        op, _ = make_op(CENSUS, "carol")
        faceted = Faceted(CENSUS, {"carol": 7})
        value = op.locally("carol", lambda un: un(faceted))
        assert value.peek() == 7

    def test_unwrapper_rejects_plain_values(self):
        op, _ = make_op(CENSUS, "alice")
        with pytest.raises(TypeError):
            op.locally("alice", lambda un: un(42))

    def test_locally_underscore_ignores_unwrapper(self):
        op, _ = make_op(CENSUS, "alice")
        assert op.locally_("alice", lambda: "hi").peek() == "hi"


class TestMulticastAndComm:
    def test_sender_sends_to_each_recipient_once(self):
        op, endpoint = make_op(CENSUS, "alice")
        payload = op.locally("alice", lambda _un: "msg")
        shared = op.multicast("alice", ["bob", "carol"], payload)
        assert endpoint.sent == [("bob", "msg"), ("carol", "msg")]
        assert not shared.is_present()  # alice is not among the recipients

    def test_sender_keeps_value_when_among_recipients(self):
        op, endpoint = make_op(CENSUS, "alice")
        payload = op.locally("alice", lambda _un: "msg")
        shared = op.multicast("alice", ["alice", "bob"], payload)
        assert shared.peek() == "msg"
        assert endpoint.sent == [("bob", "msg")]

    def test_recipient_receives(self):
        op, endpoint = make_op(CENSUS, "bob")
        endpoint.expect("alice", "msg")
        shared = op.multicast("alice", ["bob", "carol"], Located.absent(["alice"]))
        assert shared.peek() == "msg"
        assert list(shared.owners) == ["bob", "carol"]

    def test_bystander_gets_placeholder_and_no_traffic(self):
        op, endpoint = make_op(CENSUS, "carol")
        shared = op.multicast("alice", ["bob"], Located.absent(["alice"]))
        assert not shared.is_present()
        assert endpoint.sent == []

    def test_sender_must_own_the_payload(self):
        op, _ = make_op(CENSUS, "alice")
        foreign = Located(["bob"], 1)
        with pytest.raises(OwnershipError):
            op.multicast("alice", ["bob"], foreign)

    def test_payload_must_be_located(self):
        op, _ = make_op(CENSUS, "alice")
        with pytest.raises(OwnershipError, match="Located"):
            op.multicast("alice", ["bob"], 42)

    def test_recipients_must_be_in_census(self):
        op, _ = make_op(CENSUS, "alice")
        with pytest.raises(CensusError):
            op.multicast("alice", ["mallory"], Located(["alice"], 1))

    def test_comm_is_point_to_point(self):
        op, endpoint = make_op(CENSUS, "alice")
        payload = op.locally("alice", lambda _un: 5)
        result = op.comm("alice", "bob", payload)
        assert endpoint.sent == [("bob", 5)]
        assert not result.is_present()
        assert list(result.owners) == ["bob"]


class TestNakedAndBroadcast:
    def test_naked_requires_whole_census_ownership(self):
        op, _ = make_op(CENSUS, "alice")
        partial = Located(CENSUS[:2], 1)
        with pytest.raises(OwnershipError):
            op.naked(partial)

    def test_naked_unwraps_census_wide_value(self):
        op, _ = make_op(CENSUS, "bob")
        value = Located(CENSUS, "shared")
        assert op.naked(value) == "shared"

    def test_naked_rejects_non_located(self):
        op, _ = make_op(CENSUS, "alice")
        with pytest.raises(OwnershipError):
            op.naked("plain")

    def test_broadcast_from_sender_counts_messages(self):
        op, endpoint = make_op(CENSUS, "alice")
        payload = op.locally("alice", lambda _un: True)
        assert op.broadcast("alice", payload) is True
        assert [receiver for receiver, _ in endpoint.sent] == ["bob", "carol"]

    def test_broadcast_at_receiver(self):
        op, endpoint = make_op(CENSUS, "carol")
        endpoint.expect("alice", False)
        assert op.broadcast("alice", Located.absent(["alice"])) is False


class TestCongruently:
    def test_replicas_compute_and_share_ownership(self):
        op, _ = make_op(CENSUS, "bob")
        value = op.congruently(["alice", "bob"], lambda _un: 9)
        assert value.peek() == 9
        assert list(value.owners) == ["alice", "bob"]

    def test_non_replica_gets_placeholder(self):
        op, _ = make_op(CENSUS, "carol")
        value = op.congruently(["alice", "bob"], lambda _un: 9)
        assert not value.is_present()

    def test_reads_must_be_owned_by_every_replica(self):
        op, _ = make_op(CENSUS, "alice")
        only_alice = Located(["alice"], 3)
        with pytest.raises(OwnershipError, match="every"):
            op.congruently(["alice", "bob"], lambda un: un(only_alice))

    def test_reads_of_fully_shared_values_are_fine(self):
        op, _ = make_op(CENSUS, "alice")
        shared = Located(["alice", "bob"], 3)
        value = op.congruently(["alice", "bob"], lambda un: un(shared) * 2)
        assert value.peek() == 6


class TestConclave:
    def test_member_runs_sub_choreography_with_narrowed_census(self):
        op, _ = make_op(CENSUS, "alice")
        seen = {}

        def sub(inner):
            seen["census"] = list(inner.census)
            return "done"

        result = op.conclave(["alice", "bob"], sub)
        assert seen["census"] == ["alice", "bob"]
        assert result.peek() == "done"
        assert list(result.owners) == ["alice", "bob"]

    def test_non_member_skips_entirely(self):
        op, _ = make_op(CENSUS, "carol")
        calls = []
        result = op.conclave(["alice", "bob"], lambda inner: calls.append(1))
        assert calls == []
        assert not result.is_present()

    def test_sub_census_must_be_subset(self):
        op, _ = make_op(CENSUS, "alice")
        with pytest.raises(CensusError):
            op.conclave(["alice", "mallory"], lambda inner: None)

    def test_broadcast_inside_conclave_skips_outsiders(self):
        op, endpoint = make_op(CENSUS, "alice")

        def sub(inner):
            payload = inner.locally("alice", lambda _un: 1)
            return inner.broadcast("alice", payload)

        op.conclave(["alice", "bob"], sub)
        assert [receiver for receiver, _ in endpoint.sent] == ["bob"]

    def test_conclave_passes_extra_arguments(self):
        op, _ = make_op(CENSUS, "alice")
        result = op.conclave(["alice"], lambda inner, x, y=0: x + y, 1, y=2)
        assert result.peek() == 3

    def test_flatten_unnests_conclave_results(self):
        op, _ = make_op(CENSUS, "alice")
        nested = op.conclave(
            ["alice", "bob"], lambda inner: inner.locally("alice", lambda _un: 5)
        )
        flat = op.flatten(nested)
        assert flat.peek() == 5
        assert list(flat.owners) == ["alice"]

    def test_flatten_of_placeholder_is_placeholder(self):
        op, _ = make_op(CENSUS, "carol")
        nested = op.conclave(
            ["alice", "bob"], lambda inner: inner.locally("alice", lambda _un: 5)
        )
        assert not op.flatten(nested).is_present()

    def test_flatten_requires_nested_located(self):
        op, _ = make_op(CENSUS, "alice")
        flat_value = op.locally("alice", lambda _un: 5)
        with pytest.raises(OwnershipError):
            op.flatten(flat_value)

    def test_conclave_to_annotates_result_owners(self):
        op, _ = make_op(CENSUS, "carol")
        result = op.conclave_to(
            ["alice", "bob"], ["alice"],
            lambda inner: inner.locally("alice", lambda _un: 5),
        )
        assert not result.is_present()
        assert list(result.owners) == ["alice"]


class TestRestrictAndLocation:
    def test_restrict_shrinks_ownership_for_kept_member(self):
        op, _ = make_op(CENSUS, "alice")
        wide = Located(CENSUS, 1)
        narrow = op.restrict(wide, ["alice"])
        assert narrow.peek() == 1
        assert list(narrow.owners) == ["alice"]

    def test_restrict_drops_value_for_forgotten_member(self):
        op, _ = make_op(CENSUS, "bob")
        wide = Located(CENSUS, 1)
        narrow = op.restrict(wide, ["alice"])
        assert not narrow.is_present()

    def test_location_property(self):
        op, _ = make_op(CENSUS, "bob")
        assert op.location == "bob"

    def test_project_builds_named_endpoint_program(self):
        def chor(op):
            return op.broadcast("alice", op.locally("alice", lambda _un: 1))

        endpoint = FakeEndpoint("alice")
        program = project(chor, CENSUS, "alice", endpoint)
        assert "alice" in program.__name__
        assert program() == 1


# ---------------------------------------------------------------------------
# Direct forms against the derived loops.
#
# ProjectedOp implements parallel, gather, scatter and exchange directly,
# doing only the target's share.  ChoreoOp's loops are the reference: each
# direct form must make, at every endpoint, exactly the loop's ordered sends
# and receives, return the same value and raise the same errors.


class DerivedOp(ProjectedOp):
    """ProjectedOp with ChoreoOp's derived loops put back: the reference."""

    parallel = ChoreoOp.parallel
    gather = ChoreoOp.gather
    scatter = ChoreoOp.scatter
    exchange = ChoreoOp.exchange


class RecordingEndpoint:
    """Forwards to a LocalTransport endpoint and records the ordered calls."""

    def __init__(self, inner):
        self.location = inner.location
        self.inner = inner
        self.events: List[Tuple[Any, ...]] = []

    def send(self, receiver, payload):
        self.events.append(("send", receiver, payload))
        self.inner.send(receiver, payload)

    def send_many(self, receivers, payload):
        receivers = list(receivers)
        self.events.append(("send_many", tuple(receivers), payload))
        self.inner.send_many(receivers, payload)

    def recv(self, sender):
        payload = self.inner.recv(sender)
        self.events.append(("recv", sender, payload))
        return payload


def normal_form(value):
    """A comparable view of what an endpoint holds."""
    if isinstance(value, Located):
        owners = None if value.owners is None else tuple(value.owners)
        return ("L", owners, normal_form(value.peek()) if value.is_present() else "<absent>")
    if isinstance(value, Faceted):
        facets = {loc: normal_form(facet) for loc, facet in value.visible_facets().items()}
        return ("F", tuple(value.owners), tuple(value.common), facets)
    if isinstance(value, Quire):
        return ("Q", tuple(value.census), {loc: normal_form(v) for loc, v in value})
    if isinstance(value, dict):
        return ("D", [(key, normal_form(v)) for key, v in value.items()])
    if isinstance(value, tuple):
        return tuple(normal_form(v) for v in value)
    return value


def run_everywhere(op_class, parties, op_census, scenario, timeout=5.0):
    """Run ``scenario(op)`` at every party of a LocalTransport, one thread
    each; return ``({party: (outcome, events)}, channel stats)``."""
    outcomes: Dict[str, Any] = {}
    with LocalTransport(parties, timeout=timeout) as transport:
        endpoints = {party: RecordingEndpoint(transport.endpoint(party)) for party in parties}

        def drive(party):
            try:
                outcomes[party] = ("value", scenario(op_class(op_census, party, endpoints[party])))
            except Exception as exc:  # noqa: BLE001 - the error *is* the outcome
                outcomes[party] = ("raised", type(exc))
            finally:
                endpoints[party].inner.flush()

        threads = [threading.Thread(target=drive, args=(party,)) for party in parties]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        stats = (dict(transport.stats.messages), dict(transport.stats.payload_bytes))
    return {party: (outcomes[party], endpoints[party].events) for party in parties}, stats


def assert_direct_matches_derived(parties, op_census, scenario, timeout=5.0):
    direct, direct_stats = run_everywhere(ProjectedOp, parties, op_census, scenario, timeout)
    derived, derived_stats = run_everywhere(DerivedOp, parties, op_census, scenario, timeout)

    def comparable(outcome):
        kind, result = outcome
        return kind, normal_form(result) if kind == "value" else result

    for party in parties:
        (direct_outcome, direct_events), (derived_outcome, derived_events) = (
            direct[party], derived[party],
        )
        assert direct_events == derived_events, party
        assert comparable(direct_outcome) == comparable(derived_outcome), party
    assert direct_stats == derived_stats
    return direct


def all_four(senders, recipients):
    """One choreography calling each direct form once, with every role."""

    def scenario(op):
        values = op.parallel(senders, lambda party, _un: f"value of {party}")
        gathered = op.gather(senders, recipients, values)
        dealer = senders[-1]
        dealt = op.locally(
            dealer, lambda _un: Quire(recipients, {r: f"{dealer} deals {r}" for r in recipients})
        )
        scattered = op.scatter(dealer, recipients, dealt)
        outboxes = op.parallel(
            recipients,
            lambda party, _un: {peer: f"{party} to {peer}" for peer in recipients if peer != party},
        )
        inboxes = op.exchange(recipients, outboxes)
        return values, gathered, scattered, inboxes

    return scenario


def role_patterns(members):
    """(senders, recipients) pairs giving sender-only, receiver-only, both
    and bystander parties: whole census, one end, halves, every other."""
    n = len(members)
    subsets = [members, members[:1], members[-1:], members[: (n + 1) // 2], members[n // 2 :]]
    subsets.append(members[::2])
    unique = list(dict.fromkeys(tuple(subset) for subset in subsets))
    return [(list(a), list(b)) for a in unique for b in unique]


def party_names(n):
    return [f"p{i}" for i in range(n)]


class TestDirectFormsMatchDerivedLoops:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("narrowed", [False, True], ids=["census", "sub-census"])
    def test_every_role_sends_receives_and_returns_alike(self, n, narrowed):
        parties = party_names(n)
        # A narrowed operator census leaves p0 outside it: a projection to a
        # non-member must still do nothing and hold only placeholders.
        op_census = parties[1:] if narrowed and n > 1 else parties
        for senders, recipients in role_patterns(op_census):
            outcomes = assert_direct_matches_derived(
                parties, op_census, all_four(senders, recipients)
            )
            for party, ((kind, returned), _events) in outcomes.items():
                assert kind == "value"
                for result in returned:
                    if isinstance(result, Faceted) and party not in result.common:
                        # a projected Faceted holds the target's facet only
                        expected = {party} if party in result.owners else set()
                        assert set(result.visible_facets()) == expected

    def test_a_gather_to_many_keeps_its_serialize_once_send(self):
        parties = party_names(4)
        outcomes = assert_direct_matches_derived(
            parties, parties, all_four(parties[:2], parties)
        )
        assert outcomes["p0"][1][0] == ("send_many", ("p1", "p2", "p3"), "value of p0")

    def test_exchange_sends_between_its_receives(self):
        parties = party_names(3)
        outcomes = assert_direct_matches_derived(
            parties, parties, lambda op: op.exchange(
                parties, op.parallel(parties, lambda me, _un: {p: (me, p) for p in parties})
            )
        )
        assert outcomes["p1"][1] == [
            ("recv", "p0", ("p0", "p1")),
            ("send", "p0", ("p1", "p0")),
            ("send", "p2", ("p1", "p2")),
            ("recv", "p2", ("p2", "p1")),
        ]


def misuses(parties):
    """Misused operators, by what is wrong, and the loop's error for it."""
    outsiders = parties + ["mallory"]
    quire = Quire(parties, {party: party for party in parties})

    def outboxes(op, owners):
        return op.parallel(owners, lambda party, _un: {peer: party for peer in parties})

    def dealt(op, dealer):
        return op.locally(dealer, lambda _un: quire)

    return {
        # a sender outside the census
        ("parallel", "outsider"): (
            CensusError, lambda op: op.parallel(outsiders, lambda party, _un: party)
        ),
        ("gather", "outsider"): (
            CensusError, lambda op: op.gather(outsiders, parties, outboxes(op, parties))
        ),
        ("scatter", "outsider"): (
            CensusError, lambda op: op.scatter("mallory", parties, dealt(op, parties[0]))
        ),
        ("exchange", "outsider"): (
            CensusError, lambda op: op.exchange(outsiders, outboxes(op, parties))
        ),
        # values not owned by a sender (the last one, after the others' traffic)
        ("gather", "not owned"): (
            CensusError, lambda op: op.gather(parties, parties, outboxes(op, parties[:-1]))
        ),
        ("scatter", "not owned"): (
            OwnershipError, lambda op: op.scatter(parties[0], parties, dealt(op, parties[-1]))
        ),
        ("exchange", "not owned"): (
            CensusError, lambda op: op.exchange(parties, outboxes(op, parties[:-1]))
        ),
        # a payload of the wrong kind
        ("gather", "not located"): (
            OwnershipError, lambda op: op.gather(parties, parties, Located(parties, quire))
        ),
        ("scatter", "not located"): (
            OwnershipError, lambda op: op.scatter(parties[0], parties, quire)
        ),
        ("exchange", "not located"): (
            OwnershipError, lambda op: op.exchange(parties, Located(parties, {}))
        ),
    }


class TestMisuseRaisesTheLoopsError:
    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("case", list(misuses(party_names(2))), ids=" ".join)
    def test_every_endpoint_raises_what_the_loop_raises(self, case, n):
        parties = party_names(n)
        error, scenario = misuses(parties)[case]
        # Nothing may block: a projection that waits for a peer which already
        # raised would time out instead, and fail the comparison.
        outcomes = assert_direct_matches_derived(parties, parties, scenario, timeout=2.0)
        for party, (outcome, _events) in outcomes.items():
            assert outcome == ("raised", error), party


GMW_PARTIES = ["p1", "p2", "p3", "p4"]
GMW_CIRCUIT = circuits.and_tree(GMW_PARTIES)


def gmw_and_tree(op, my_inputs=None, *, seed=0):
    return gmw(op, GMW_PARTIES, GMW_CIRCUIT, my_inputs, seed=seed, rsa_bits=128)


class TestProjectedOperatorsDoOnlyTheirPart:
    """Count guard: a projected endpoint walks no iteration of ``parallel``,
    ``gather``, ``scatter`` or ``exchange`` that names someone else.

    Per warm four-party GMW run (the ``gmw_session`` circuit), summed over
    the four endpoints.  Through the derived loops these read 368
    ``ProjectedOp.locally`` / 288 ``ProjectedOp.multicast`` / 816
    ``Located.absent`` / 328 ``Located.__init__``.  Directly:

    * ``locally`` 32: the two ``op.locally`` of each of the 4 input dealers
      (its input bits, its shares), called at all 4 endpoints;
    * ``multicast`` 8: each party's own send in the two gathers (key
      publication, reveal);
    * ``absent`` 24: those ``locally`` calls at the 3 endpoints that are not
      the dealer;
    * ``__init__`` 32: those ``locally`` calls at the dealer (8), and per
      gather and party the own facet, the multicast's result and the
      gathered quire (3 × 2 × 4).
    """

    def test_per_warm_gmw_run(self, monkeypatch):
        counts = collections.Counter()

        def counting(name, real):
            def count(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)

            return count

        inputs = {party: ({"x": True},) for party in GMW_PARTIES}
        with ChoreoEngine(GMW_PARTIES, backend="local") as engine:

            def run(seed):
                result = engine.run(gmw_and_tree, kwargs={"seed": seed}, location_args=inputs)
                assert set(result.returns.values()) == {True}

            run(0)
            run(1)
            for name in ("locally", "multicast"):
                monkeypatch.setattr(ProjectedOp, name, counting(name, getattr(ProjectedOp, name)))
            monkeypatch.setattr(Located, "absent", staticmethod(counting("absent", Located.absent)))
            monkeypatch.setattr(Located, "__init__", counting("__init__", Located.__init__))
            runs = 20
            for seed in range(runs):
                run(seed)
        assert {name: count / runs for name, count in counts.items()} == {
            "locally": 32, "multicast": 8, "absent": 24, "__init__": 32,
        }
