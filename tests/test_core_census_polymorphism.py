"""Tests for the census-polymorphic operator layer (parallel, fan-out/in, scatter, gather).

These operators are *derived* from the primitives (the paper argues no new
primitives are needed); the tests run them under the centralized reference
semantics, where every facet is observable, and additionally check the
projected message pattern where it matters.
"""

from __future__ import annotations

import pytest

from repro import ChoreoEngine
from repro.core.errors import CensusError, OwnershipError
from repro.core.located import Faceted, Located, Quire
from repro.runtime.central import CentralOp


def run_once(chor, census):
    """One instance of ``chor`` on a throwaway engine."""
    with ChoreoEngine(census) as engine:
        return engine.run(chor)


def central(census):
    return CentralOp(census)


PARTIES = ["p1", "p2", "p3", "p4"]


class TestParallel:
    def test_each_member_computes_its_own_facet(self):
        op = central(PARTIES)
        faceted = op.parallel(PARTIES, lambda loc, _un: loc.upper())
        assert faceted.to_quire().to_dict() == {p: p.upper() for p in PARTIES}

    def test_subset_of_census(self):
        op = central(PARTIES)
        faceted = op.parallel(["p2", "p4"], lambda loc, _un: 1)
        assert list(faceted.owners) == ["p2", "p4"]

    def test_members_must_be_in_census(self):
        op = central(PARTIES)
        with pytest.raises(CensusError):
            op.parallel(["p1", "zz"], lambda loc, _un: 1)

    def test_computation_can_read_own_facets(self):
        op = central(PARTIES)
        base = op.parallel(PARTIES, lambda loc, _un: len(loc))
        doubled = op.parallel(PARTIES, lambda loc, un: un(base) * 2)
        assert doubled.to_quire().values() == (4, 4, 4, 4)

    def test_results_may_diverge(self):
        op = central(PARTIES)
        faceted = op.parallel(PARTIES, lambda loc, _un: loc)
        values = set(faceted.to_quire().values())
        assert len(values) == len(PARTIES)


class TestFanOut:
    def test_collects_one_facet_per_location(self):
        op = central(PARTIES)
        faceted = op.fanout(PARTIES, lambda q: op.locally(q, lambda _un: q + "!"))
        assert faceted.to_quire().to_dict() == {p: p + "!" for p in PARTIES}

    def test_body_must_return_located(self):
        op = central(PARTIES)
        with pytest.raises(OwnershipError, match="Located"):
            op.fanout(PARTIES, lambda q: "oops")

    def test_common_owners_recorded(self):
        op = central(PARTIES)
        faceted = op.fanout(
            ["p2", "p3"],
            lambda q: op.multicast("p1", [q, "p1"], op.locally("p1", lambda _un: 0)),
            common=["p1"],
        )
        assert list(faceted.common) == ["p1"]

    def test_whole_census_participates_in_each_iteration(self):
        """fanout does not conclave its body: a cross-party comm inside works."""

        def chor(op):
            return op.fanout(
                ["p2", "p3"],
                lambda q: op.comm("p1", q, op.locally("p1", lambda _un: q)),
            )

        result = run_once(chor, PARTIES)
        assert result.stats.total_messages == 2


class TestFanIn:
    def test_aggregates_into_a_quire_at_the_recipients(self):
        op = central(PARTIES)
        collected = op.fanin(
            PARTIES, ["p1"], lambda q: op.comm(q, "p1", op.locally(q, lambda _un: len(q)))
        )
        assert isinstance(collected.peek(), Quire)
        assert collected.peek().to_dict() == {p: 2 for p in PARTIES}
        assert list(collected.owners) == ["p1"]

    def test_multiple_recipients(self):
        op = central(PARTIES)
        collected = op.fanin(
            ["p3", "p4"],
            ["p1", "p2"],
            lambda q: op.multicast(q, ["p1", "p2"], op.locally(q, lambda _un: q)),
        )
        assert list(collected.owners) == ["p1", "p2"]
        assert collected.peek().to_dict() == {"p3": "p3", "p4": "p4"}

    def test_body_must_return_located(self):
        op = central(PARTIES)
        with pytest.raises(OwnershipError, match="Located"):
            op.fanin(PARTIES, ["p1"], lambda q: 3)

    def test_projected_non_recipient_gets_placeholder(self):
        def chor(op):
            return op.fanin(
                PARTIES, ["p1"], lambda q: op.comm(q, "p1", op.locally(q, lambda _un: 1))
            )

        result = run_once(chor, PARTIES)
        assert result.returns["p1"].is_present()
        assert not result.returns["p2"].is_present()


class TestScatterGather:
    def test_scatter_delivers_one_entry_per_recipient(self):
        op = central(PARTIES)
        quire = op.locally("p1", lambda _un: Quire(PARTIES, {p: p.upper() for p in PARTIES}))
        faceted = op.scatter("p1", PARTIES, quire)
        assert faceted.to_quire().to_dict() == {p: p.upper() for p in PARTIES}

    def test_scatter_sender_is_common_owner(self):
        op = central(PARTIES)
        quire = op.locally("p1", lambda _un: Quire(PARTIES, {p: 0 for p in PARTIES}))
        faceted = op.scatter("p1", PARTIES, quire)
        assert list(faceted.common) == ["p1"]

    def test_scatter_message_count_excludes_self(self):
        def chor(op):
            quire = op.locally("p1", lambda _un: Quire(PARTIES, {p: 0 for p in PARTIES}))
            op.scatter("p1", PARTIES, quire)

        result = run_once(chor, PARTIES)
        assert result.stats.total_messages == len(PARTIES) - 1

    def test_gather_collects_every_facet(self):
        op = central(PARTIES)
        faceted = op.parallel(PARTIES, lambda loc, _un: len(loc))
        gathered = op.gather(PARTIES, ["p2"], faceted)
        assert gathered.peek().to_dict() == {p: 2 for p in PARTIES}

    def test_gather_message_count(self):
        def chor(op):
            faceted = op.parallel(PARTIES, lambda loc, _un: 1)
            op.gather(PARTIES, ["p1"], faceted)

        result = run_once(chor, PARTIES)
        # every party except the recipient sends one message
        assert result.stats.total_messages == len(PARTIES) - 1

    def test_scatter_then_gather_roundtrip(self):
        def chor(op):
            quire = op.locally(
                "p1", lambda _un: Quire(PARTIES, {p: i for i, p in enumerate(PARTIES)})
            )
            faceted = op.scatter("p1", PARTIES, quire)
            gathered = op.gather(PARTIES, ["p4"], faceted)
            total = op.locally("p4", lambda un: sum(un(gathered).values()))
            return op.broadcast("p4", total)

        result = run_once(chor, PARTIES)
        assert set(result.returns.values()) == {sum(range(len(PARTIES)))}


class TestForgetCommon:
    def test_drops_common_owners_and_foreign_facets(self):
        def chor(op):
            quire = op.locally("p1", lambda _un: Quire(PARTIES, {p: p for p in PARTIES}))
            dealt = op.scatter("p1", PARTIES, quire)
            private = op.forget_common(dealt)
            return private

        result = run_once(chor, PARTIES)
        at_dealer = result.returns["p1"]
        assert list(at_dealer.common) == []
        # the dealer keeps only its own facet after forgetting
        assert list(at_dealer.visible_facets()) == ["p1"]
        at_other = result.returns["p3"]
        assert list(at_other.visible_facets()) == ["p3"]

    def test_centralized_keeps_every_facet_for_analysis(self):
        op = central(PARTIES)
        quire = op.locally("p1", lambda _un: Quire(PARTIES, {p: 1 for p in PARTIES}))
        dealt = op.scatter("p1", PARTIES, quire)
        private = op.forget_common(dealt)
        assert private.to_quire().values() == (1, 1, 1, 1)

    def test_requires_faceted(self):
        op = central(PARTIES)
        with pytest.raises(OwnershipError):
            op.forget_common(Located(["p1"], 3))


class TestCensusPolymorphismScaling:
    """The same choreography works for any census size (the paper's headline feature)."""

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8])
    def test_gather_sum_for_any_number_of_parties(self, size):
        members = [f"w{i}" for i in range(size)]

        def chor(op):
            facets = op.parallel(members, lambda loc, _un: int(loc[1:]) + 1)
            gathered = op.gather(members, [members[0]], facets)
            total = op.locally(members[0], lambda un: sum(un(gathered).values()))
            return op.broadcast(members[0], total)

        result = run_once(chor, members)
        expected = sum(range(1, size + 1))
        assert all(value == expected for value in result.returns.values())
        assert result.stats.total_messages == 2 * (size - 1)
