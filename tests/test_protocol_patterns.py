"""Tests for the additional choreographic patterns (two-buyer, voting, ring, trees)."""

from __future__ import annotations

import operator

import pytest

from repro import ChoreoEngine
from repro.analysis.comm_cost import communication_cost
from repro.protocols.patterns import (
    heartbeat_round,
    majority_vote,
    ring_max,
    tree_aggregate,
    two_buyer_bookseller,
)


def run_once(chor, census, location_args=None):
    """One instance of ``chor`` on a throwaway engine."""
    with ChoreoEngine(census) as engine:
        return engine.run(chor, location_args=location_args)


class TestTwoBuyerBookseller:
    CENSUS = ["buyer", "helper", "seller", "bystander"]

    def run(self, title, **kwargs):
        def chor(op):
            return two_buyer_bookseller(op, "buyer", "helper", "seller", title, **kwargs)

        return run_once(chor, self.CENSUS)

    PARTICIPANTS = ["buyer", "helper", "seller"]

    def outcomes(self, result):
        return {result.value_at(party) for party in self.PARTICIPANTS}

    def test_affordable_book_is_purchased(self):
        result = self.run("TAPL")
        assert self.outcomes(result) == {80}
        # the bystander is outside the participants' conclave: placeholder only
        assert result.value_at("bystander") is None

    def test_expensive_book_needs_the_helper(self):
        alone = self.run("HoTT", helper_contribution=0)
        assert self.outcomes(alone) == {None}
        together = self.run("HoTT", helper_contribution=50)
        assert self.outcomes(together) == {120}

    def test_unknown_title_is_rejected(self):
        assert self.outcomes(self.run("Dune")) == {None}

    def test_negotiation_stays_between_the_buyers(self):
        cost = communication_cost(
            lambda op: two_buyer_bookseller(op, "buyer", "helper", "seller", "TAPL"),
            self.CENSUS,
        )
        # the bystander is in the census but the protocol never touches it...
        assert cost.messages_involving("bystander") == 0
        # ...and the seller is not part of the buyers' conclave: it only hears
        # the final decision, not the negotiation
        assert cost.per_channel.get(("helper", "seller"), 0) == 0


class TestMajorityVote:
    def test_majority_yes(self):
        voters = ["v1", "v2", "v3", "v4", "v5"]
        ballots = {"v1": True, "v2": True, "v3": True, "v4": False, "v5": False}

        def chor(op):
            return majority_vote(op, voters, "coordinator", ballots)

        result = run_once(chor, voters + ["coordinator"])
        assert set(result.returns.values()) == {True}

    def test_tie_is_not_a_majority(self):
        voters = ["v1", "v2"]
        ballots = {"v1": True, "v2": False}

        def chor(op):
            return majority_vote(op, voters, "coordinator", ballots)

        result = run_once(chor, voters + ["coordinator"])
        assert set(result.returns.values()) == {False}

    def test_per_endpoint_ballots_via_location_args(self):
        voters = ["v1", "v2", "v3"]

        def chor(op, my_ballot=None):
            return majority_vote(op, voters, "v1", my_ballot=my_ballot)

        result = run_once(
            chor,
            voters,
            location_args={"v1": (True,), "v2": (True,), "v3": (False,)},
        )
        assert set(result.returns.values()) == {True}

    @pytest.mark.parametrize("n_voters", [1, 3, 7])
    def test_census_polymorphic_message_count(self, n_voters):
        voters = [f"v{i}" for i in range(n_voters)]
        cost = communication_cost(
            lambda op: majority_vote(op, voters, voters[0], {v: True for v in voters}),
            voters,
        )
        # gather: n-1 messages; broadcast of the verdict: n-1 messages
        assert cost.total_messages == 2 * (n_voters - 1)


class TestRingMax:
    @pytest.mark.parametrize("size", [1, 2, 5, 9])
    def test_elects_the_maximum(self, size):
        ring = [f"n{i}" for i in range(size)]
        values = {node: (7 * i) % 11 for i, node in enumerate(ring)}

        def chor(op):
            return ring_max(op, ring, values)

        result = run_once(chor, ring)
        assert set(result.returns.values()) == {max(values.values())}

    def test_token_travels_once_around(self):
        ring = ["n0", "n1", "n2", "n3"]
        cost = communication_cost(
            lambda op: ring_max(op, ring, {n: 1 for n in ring}), ring
        )
        # n-1 hops plus the final broadcast from the last node (n-1 messages)
        assert cost.total_messages == (len(ring) - 1) * 2


class TestTreeAggregate:
    @pytest.mark.parametrize("size", [1, 2, 3, 6, 8])
    def test_sums_the_census(self, size):
        members = [f"w{i}" for i in range(size)]

        def chor(op):
            return tree_aggregate(op, members, operator.add, lambda loc: int(loc[1:]) + 1)

        result = run_once(chor, members)
        assert set(result.returns.values()) == {sum(range(1, size + 1))}

    def test_halves_do_not_talk_to_each_other_before_the_combine(self):
        members = ["w0", "w1", "w2", "w3"]
        cost = communication_cost(
            lambda op: tree_aggregate(op, members, operator.add, lambda _loc: 1), members
        )
        # the only traffic between the two halves is right-rep -> left-rep plus
        # the final broadcast from the left representative
        cross = sum(
            count
            for (src, dst), count in cost.per_channel.items()
            if (src in members[:2]) != (dst in members[:2])
        )
        assert cross == 1 + 2  # one combine message + broadcast to the right half


class TestHeartbeat:
    WORKERS = ["w1", "w2", "w3", "w4"]
    CENSUS = ["boss"] + WORKERS

    def test_all_alive(self):
        def chor(op):
            return heartbeat_round(op, "boss", self.WORKERS)

        result = run_once(chor, self.CENSUS)
        assert set(result.returns.values()) == {tuple(self.WORKERS)}

    def test_crashed_workers_are_excluded(self):
        def chor(op):
            return heartbeat_round(op, "boss", self.WORKERS,
                                   healthy=lambda worker: worker != "w3")

        result = run_once(chor, self.CENSUS)
        assert set(result.returns.values()) == {("w1", "w2", "w4")}

    def test_two_messages_per_worker_plus_announcement(self):
        cost = communication_cost(
            lambda op: heartbeat_round(op, "boss", self.WORKERS), self.CENSUS
        )
        n = len(self.WORKERS)
        assert cost.total_messages == 2 * n + n  # probe+answer per worker, then broadcast
