"""Tests for the analysis layer: pre-run checker, communication cost, feature matrix."""

from __future__ import annotations

import pytest

from repro.analysis.checker import check_choreography
from repro.analysis.comm_cost import communication_cost, compare_costs, haschor_communication_cost
from repro.analysis.features import FEATURES, feature_matrix, feature_table_text
from repro.protocols import circuits
from repro.protocols.gmw import gmw
from repro.protocols.kvs import Request, kvs_serve
from repro.protocols.ot import ot2_all_pairs, publish_ot_keys
from repro.baselines.kvs_haschor import kvs_serve_haschor


CENSUS = ["alice", "bob", "carol"]


def well_formed(op):
    value = op.locally("alice", lambda _un: 1)
    shared = op.multicast("alice", ["bob", "carol"], value)
    doubled = op.locally("bob", lambda un: un(shared) * 2)
    return op.broadcast("bob", doubled)


def census_violation(op):
    return op.locally("mallory", lambda _un: 1)


def ownership_violation(op):
    value = op.locally("alice", lambda _un: 1)
    return op.locally("bob", lambda un: un(value))


class TestChecker:
    def test_well_formed_choreography_passes(self):
        report = check_choreography(well_formed, CENSUS)
        assert report
        assert report.ok
        assert report.messages == 4  # multicast to 2 + broadcast to 2
        assert not report.errors

    def test_census_violation_is_reported(self):
        report = check_choreography(census_violation, CENSUS)
        assert not report.ok
        assert any("CensusError" in error for error in report.errors)

    def test_ownership_violation_is_reported(self):
        report = check_choreography(ownership_violation, CENSUS)
        assert not report.ok
        assert any("centralized check failed" in error for error in report.errors)

    def test_channel_counts_exposed(self):
        report = check_choreography(well_formed, CENSUS)
        assert report.channel_counts[("alice", "bob")] == 1
        assert report.channel_counts[("bob", "carol")] == 1

    def test_projection_replay_catches_endpoint_failures(self):
        def asymmetric(op):
            # alice uses a value she does not own when projected
            value = op.locally("alice", lambda _un: 1)
            if op.location == "alice":
                return value
            return op.comm("alice", "bob", value)

        report = check_choreography(asymmetric, CENSUS)
        assert not report.ok

    def test_kvs_session_checks_clean(self):
        servers = ["s1", "s2", "s3"]
        report = check_choreography(
            lambda op: kvs_serve(op, "client", "s1", servers,
                                 [Request.put("k", "v"), Request.stop()]),
            ["client"] + servers,
        )
        assert report.ok, report.errors

    def test_checker_can_skip_projection_replay(self):
        report = check_choreography(well_formed, CENSUS, replay_projections=False)
        assert report.ok


class TestCheckerReplaysOTAndGMW:
    """The central run takes ChoreoOp's derived ``parallel`` / ``gather`` /
    ``scatter`` / ``exchange`` loops, each replayed projection ProjectedOp's
    direct forms; the checker holds them to the same messages per channel.
    Nested per-party inputs are arguments, so every run sees the same ones."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_gmw_and_tree(self, n):
        parties = [f"p{i}" for i in range(1, n + 1)]
        circuit = circuits.and_tree(parties)
        inputs = {party: {"x": index % 2 == 0} for index, party in enumerate(parties)}
        report = check_choreography(
            lambda op, nested: gmw(op, parties, circuit, nested, seed=3, rsa_bits=128),
            parties,
            args=(inputs,),
        )
        assert report.ok, report.errors
        assert set(report.channel_counts) == {(a, b) for a in parties for b in parties if a != b}

    def test_ot2_all_pairs(self):
        parties = ["p1", "p2", "p3"]
        transfers = {
            party: (
                {peer: [(True, False), (False, index % 2 == 0)] for peer in parties if peer != party},
                {peer: [index % 2 == 1, True] for peer in parties if peer != party},
            )
            for index, party in enumerate(parties)
        }

        def all_pairs(op, nested):
            keys = publish_ot_keys(op, parties, seed=3, rsa_bits=128)
            offers = op.parallel(parties, lambda party, _un: nested[party][0])
            selects = op.parallel(parties, lambda party, _un: nested[party][1])
            return ot2_all_pairs(op, parties, offers, selects, keys, seed=3, context="check")

        report = check_choreography(all_pairs, parties, args=(transfers,))
        assert report.ok, report.errors
        # key publication, then one selection and one masked reply per ordered pair
        assert report.channel_counts == {
            (a, b): 3 for a in parties for b in parties if a != b
        }


class TestCommCost:
    def test_summary_fields(self):
        cost = communication_cost(well_formed, CENSUS)
        assert cost.total_messages == 4
        assert cost.total_bytes > 0
        assert cost.per_location_sent["alice"] == 2
        assert cost.per_location_received["carol"] == 2
        assert cost.messages_involving("bob") == 3

    def test_haschor_cost(self):
        def baseline(op):
            value = op.locally("alice", lambda _un: True)
            return op.cond(value, lambda flag: flag)

        cost = haschor_communication_cost(baseline, CENSUS)
        assert cost.total_messages == len(CENSUS) - 1

    def test_compare_costs_shows_conclave_advantage(self):
        servers = ["s1", "s2"]
        census = ["client"] + servers
        requests = [Request.get("k"), Request.stop()]
        comparison = compare_costs(
            lambda op: kvs_serve(op, "client", "s1", servers, requests),
            lambda op: kvs_serve_haschor(op, "client", "s1", servers, requests),
            census,
        )
        assert comparison["conclaves_mlvs"].total_messages < comparison[
            "broadcast_koc"
        ].total_messages


class TestFeatureMatrix:
    def test_matrix_has_three_systems(self):
        rows = feature_matrix()
        assert [row.system for row in rows] == [
            "haschor-baseline (Python)",
            "λC (formal model)",
            "repro.core (Python)",
        ]

    def test_core_row_supports_everything(self):
        core = feature_matrix()[-1]
        assert core.multiply_located_values_and_multicast == "yes"
        assert core.censuses_and_conclaves == "yes"
        assert core.census_polymorphism == "yes"

    def test_baseline_row_mirrors_haschor_column_of_table1(self):
        baseline = feature_matrix()[0]
        assert baseline.multiply_located_values_and_multicast == "no"
        assert baseline.censuses_and_conclaves == "no"
        assert baseline.census_polymorphism == "no"

    def test_as_dict_lists_every_feature(self):
        row = feature_matrix()[0]
        assert set(row.as_dict()) == {"system", *FEATURES}

    def test_text_rendering_contains_all_rows(self):
        text = feature_table_text()
        assert "repro.core" in text and "λC" in text and "haschor" in text
