"""Tests for the HasChor-style baseline and its broadcast-KoC cost profile."""

from __future__ import annotations

import pytest

from repro import ChoreoEngine
from repro.analysis.comm_cost import communication_cost, haschor_communication_cost
from repro.baselines.haschor import (
    At,
    HasChorCentralOp,
    HasChorProjectedOp,
    run_haschor,
)
from repro.baselines.kvs_haschor import kvs_serve_haschor
from repro.core.errors import CensusError, ChoreographyRuntimeError, OwnershipError, PlaceholderError
from repro.protocols.kvs import Request, RequestKind, ResponseKind, kvs_serve
from repro.runtime.local import LocalTransport


CENSUS = ["alice", "bob", "carol", "dave"]


class TestAt:
    def test_unwrap_for_owner_only(self):
        value = At("alice", 3)
        assert value.unwrap_for("alice") == 3
        with pytest.raises(OwnershipError):
            value.unwrap_for("bob")

    def test_placeholder(self):
        value = At("alice", present=False)
        with pytest.raises(PlaceholderError):
            value.unwrap_for("alice")
        assert not value.is_present()

    def test_repr(self):
        assert "absent" in repr(At("a", present=False))
        assert "42" in repr(At("a", 42))


class TestHasChorCentralOp:
    def test_locally_and_comm(self):
        op = HasChorCentralOp(CENSUS)
        value = op.locally("alice", lambda _un: 10)
        moved = op.comm("alice", "bob", value)
        assert moved.owner == "bob"
        assert moved.peek() == 10
        assert op.stats.total_messages == 1

    def test_self_comm_sends_nothing(self):
        op = HasChorCentralOp(CENSUS)
        value = op.locally("alice", lambda _un: 10)
        op.comm("alice", "alice", value)
        assert op.stats.total_messages == 0

    def test_cond_broadcasts_to_everyone(self):
        op = HasChorCentralOp(CENSUS)
        value = op.locally("alice", lambda _un: True)
        result = op.cond(value, lambda flag: "yes" if flag else "no")
        assert result == "yes"
        assert op.stats.total_messages == len(CENSUS) - 1

    def test_census_checked(self):
        op = HasChorCentralOp(CENSUS)
        with pytest.raises(CensusError):
            op.locally("mallory", lambda _un: 1)


class TestHasChorProjected:
    def test_run_haschor_end_to_end(self):
        def chor(op):
            request = op.locally("alice", lambda _un: 2)
            at_bob = op.comm("alice", "bob", request)
            doubled = op.locally("bob", lambda un: un(at_bob) * 2)
            return op.cond(doubled, lambda value: value + 1)

        result = run_haschor(chor, CENSUS)
        assert result.returns == {loc: 5 for loc in CENSUS}
        # one comm + one broadcast of the scrutinee to the 3 other parties
        assert result.stats.total_messages == 1 + (len(CENSUS) - 1)

    def test_cond_reaches_uninvolved_parties(self):
        def chor(op):
            flag = op.locally("alice", lambda _un: False)
            return op.cond(flag, lambda value: value)

        result = run_haschor(chor, CENSUS)
        for bystander in ["carol", "dave"]:
            assert result.stats.messages_received_by(bystander) == 1

    def test_endpoint_failure_is_wrapped(self):
        def chor(op):
            return op.locally("alice", lambda _un: 1 / 0)

        with pytest.raises(ChoreographyRuntimeError):
            run_haschor(chor, CENSUS)

    def test_central_is_refused(self):
        with pytest.raises(ValueError, match="needs one endpoint per location"):
            run_haschor(lambda op: None, CENSUS, transport="central")

    @pytest.mark.parametrize("transport", ["tcp", "asyncio"])
    def test_sockets_match_local(self, transport):
        def chor(op):
            return kvs_serve_haschor(op, "client", "s1", ["s1", "s2"], [
                Request.put("k", "v"), Request.get("k"), Request.stop()])

        census = ["client", "s1", "s2"]
        reference = run_haschor(chor, census)
        observed = run_haschor(chor, census, transport=transport)
        assert observed.returns == reference.returns
        assert observed.stats == reference.stats

    def test_prebuilt_transport_reports_each_runs_messages(self):
        def chor(op):
            return op.cond(op.locally("alice", lambda _un: 1), lambda value: value)

        transport = LocalTransport(CENSUS)
        try:
            first = run_haschor(chor, CENSUS, transport=transport)
            second = run_haschor(chor, CENSUS, transport=transport)
        finally:
            transport.close()
        assert first.stats == second.stats
        assert second.stats.total_messages == len(CENSUS) - 1
        assert transport.stats.total_messages == 2 * (len(CENSUS) - 1)

    def test_projected_cond_requires_at(self):
        op = HasChorProjectedOp(CENSUS, "alice", endpoint=None)
        with pytest.raises(OwnershipError):
            op.cond("plain", lambda value: value)


class TestBaselineKVSComparison:
    """The heart of the paper's efficiency claim: broadcast KoC costs the client
    extra messages; conclaves-&-MLVs does not."""

    SERVERS = ["s1", "s2", "s3"]
    CLUSTER = ["client", "s1", "s2", "s3"]
    REQUESTS = [Request.put("k", "v"), Request.get("k"), Request.stop()]

    def conclave_cost(self):
        return communication_cost(
            lambda op: kvs_serve(op, "client", "s1", self.SERVERS, self.REQUESTS),
            self.CLUSTER,
        )

    def baseline_cost(self):
        return haschor_communication_cost(
            lambda op: kvs_serve_haschor(op, "client", "s1", self.SERVERS, self.REQUESTS),
            self.CLUSTER,
        )

    def test_both_produce_the_same_responses(self):
        with ChoreoEngine(self.CLUSTER) as engine:
            conclave = engine.run(
                lambda op: kvs_serve(op, "client", "s1", self.SERVERS, self.REQUESTS)
            ).returns["client"]
        baseline = run_haschor(
            lambda op: kvs_serve_haschor(op, "client", "s1", self.SERVERS, self.REQUESTS),
            self.CLUSTER,
        ).returns["client"]
        assert [r.kind for r in conclave] == [r.kind for r in baseline]
        assert conclave[1].value == baseline[1].value == "v"

    def test_client_receives_fewer_messages_with_conclaves(self):
        conclave = self.conclave_cost()
        baseline = self.baseline_cost()
        assert conclave.per_location_received["client"] < baseline.per_location_received["client"]

    def test_total_messages_fewer_with_conclaves(self):
        assert self.conclave_cost().total_messages < self.baseline_cost().total_messages

    def test_client_message_count_is_exactly_request_plus_response(self):
        conclave = self.conclave_cost()
        # the client only ever sends a request and receives a response
        assert conclave.per_location_sent["client"] == len(self.REQUESTS)
        assert conclave.per_location_received["client"] == len(self.REQUESTS)

    def test_baseline_client_overhead_grows_with_conditionals(self):
        baseline = self.baseline_cost()
        # With broadcast KoC the client hears about every conditional: two per
        # request (handle + verify) instead of just the response.
        assert baseline.per_location_received["client"] >= 2 * len(self.REQUESTS)
