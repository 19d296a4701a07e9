"""Cross-cutting integration tests.

These exercise the whole stack at once: the same choreography over the two
transports and the centralized semantics, the MLV consistency invariant, and
the formal model applied to a choreography shaped like the library's KVS.
"""

from __future__ import annotations

import pytest

from repro import ChoreoEngine
from repro.analysis.checker import check_choreography
from repro.analysis.comm_cost import communication_cost
from repro.core.locations import Census
from repro.formal import (
    App,
    Case,
    Com,
    Inl,
    Unit,
    UnitData,
    Var,
    check_all,
    parties,
)
from repro.protocols import circuits
from repro.protocols.gmw import gmw
from repro.protocols.kvs import Request, Response, kvs_serve
from repro.runtime.central import run_centralized
from repro.runtime.stats import ChannelStats


def run_once(chor, census, args=(), backend="local"):
    """One instance of ``chor`` on a throwaway engine."""
    with ChoreoEngine(census, backend=backend) as engine:
        return engine.run(chor, args)


def pipeline(op, payload):
    """A three-hop pipeline with a conclave in the middle."""
    at_b = op.comm("a", "b", op.locally("a", lambda _un: payload))

    def middle(sub):
        doubled = sub.locally("b", lambda un: un(at_b) * 2)
        return sub.broadcast("b", doubled)

    result = op.conclave(["b", "c"], middle)
    forwarded = op.comm("c", "a", op.locally("c", lambda un: un(result) + 1))
    return op.broadcast("a", forwarded)


CENSUS = ["a", "b", "c"]


class TestTransportsAgree:
    def test_local_and_tcp_and_central_agree(self):
        local = run_once(pipeline, CENSUS, args=(5,), backend="local")
        tcp = run_once(pipeline, CENSUS, args=(5,), backend="tcp")
        stats = ChannelStats()
        central = run_centralized(pipeline, CENSUS, 5, stats=stats)
        assert set(local.returns.values()) == {11}
        assert set(tcp.returns.values()) == {11}
        assert central == 11

    def test_message_counts_identical_across_backends(self):
        local = run_once(pipeline, CENSUS, args=(5,), backend="local")
        tcp = run_once(pipeline, CENSUS, args=(5,), backend="tcp")
        central_cost = communication_cost(pipeline, CENSUS, 5)
        assert local.stats.snapshot() == tcp.stats.snapshot() == central_cost.per_channel

    def test_checker_agrees_with_execution(self):
        report = check_choreography(pipeline, CENSUS, args=(7,))
        run = run_once(pipeline, CENSUS, args=(7,))
        assert report.ok
        assert report.messages == run.stats.total_messages


class TestMLVInvariant:
    """Every owner of a multiply-located value holds the same value."""

    def test_broadcast_is_consistent_across_owners(self):
        def chor(op):
            value = op.locally("a", lambda _un: {"nested": [1, 2, 3]})
            shared = op.multicast("a", CENSUS, value)
            return op.naked(shared)

        result = run_once(chor, CENSUS)
        values = list(result.returns.values())
        assert all(value == values[0] for value in values)

    def test_congruent_computation_is_consistent(self):
        def chor(op):
            base = op.multicast("a", CENSUS, op.locally("a", lambda _un: 10))
            replicated = op.congruently(CENSUS, lambda un: un(base) * 3)
            return op.naked(replicated)

        result = run_once(chor, CENSUS)
        assert set(result.returns.values()) == {30}

    def test_sequential_conclaves_reuse_the_same_mlv(self):
        def chor(op):
            request = op.multicast("a", ["b", "c"], op.locally("a", lambda _un: "req"))
            first = op.conclave(["b", "c"], lambda sub: sub.naked(request) + "-1")
            second = op.conclave(["b", "c"], lambda sub: sub.naked(request) + "-2")
            outcome = op.locally("b", lambda un: (un(first), un(second)))
            return op.broadcast("b", outcome)

        result = run_once(chor, CENSUS)
        assert set(result.returns.values()) == {("req-1", "req-2")}
        # one multicast (2 messages) + the final broadcast (2); the two
        # conclaves added no messages at all
        assert result.stats.total_messages == 4


class TestFullStackScenario:
    def test_kvs_and_gmw_compose_in_one_choreography(self):
        """A deliberately heterogeneous end-to-end scenario: a KVS session runs
        between a client and servers, then the servers use GMW to decide (by
        majority of private votes) whether to keep serving."""
        servers = ["s1", "s2", "s3"]
        census = ["client"] + servers
        votes = {"s1": True, "s2": True, "s3": False}
        circuit = circuits.majority3(
            circuits.InputWire("s1", "v"),
            circuits.InputWire("s2", "v"),
            circuits.InputWire("s3", "v"),
        )

        def chor(op):
            responses = kvs_serve(
                op, "client", "s1", servers,
                [Request.put("x", "1"), Request.get("x"), Request.stop()],
            )
            keep_going = op.conclave(
                servers,
                lambda sub: gmw(sub, servers, circuit,
                                {s: {"v": votes[s]} for s in servers},
                                seed=3, rsa_bits=128),
            )
            decision = op.locally("s1", lambda un: un(keep_going))
            return responses, op.broadcast("s1", decision)

        result = run_once(chor, census)
        client_responses, decision = result.returns["client"]
        assert client_responses[1] == Response.found("1")
        assert decision is True
        # the GMW sub-protocol ran entirely inside the servers' conclave
        gmw_channels = [
            (src, dst) for (src, dst) in result.stats.snapshot()
            if src in servers and dst in servers and src != "s1"
        ]
        assert gmw_channels, "expected server-to-server traffic from GMW"


class TestFormalModelMirrorsLibrary:
    def test_lambda_c_version_of_the_kvs_shape_passes_all_checks(self):
        """The λC program with the same communication shape as kvs_request
        satisfies progress, preservation, projection agreement, and deadlock
        freedom."""
        unit = UnitData()
        request = Inl(Unit(parties("client")), unit)
        shared = App(Com("client", parties("s1", "s2")), request)
        handled = Case(
            parties("s1", "s2"),
            shared,
            "req",
            App(Com("s1", parties("s1")), Var("req")),
            "req",
            Unit(parties("s1")),
        )
        program = App(Com("s1", parties("client")), handled)
        reports = check_all(parties("client", "s1", "s2"), program)
        assert all(reports.values()), {k: v.details for k, v in reports.items() if not v}
