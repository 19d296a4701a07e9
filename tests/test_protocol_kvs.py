"""Tests for the replicated key-value store case study (Fig. 2 and App. B)."""

from __future__ import annotations

import pytest

from repro import ChoreoEngine
from repro.analysis.comm_cost import communication_cost
from repro.core.locations import Census
from repro.protocols.kvs import (
    Request,
    RequestKind,
    Response,
    ResponseKind,
    hash_state,
    kvs_request,
    kvs_serve,
    kvs_with_backups,
    lookup_state,
    make_replica_states,
    update_state,
)
from repro.runtime.central import CentralOp


def run_once(chor, census, backend="local"):
    """One instance of ``chor`` on a throwaway engine."""
    with ChoreoEngine(census, backend=backend) as engine:
        return engine.run(chor)


SERVERS = ["s1", "s2", "s3"]
CLUSTER = ["client"] + SERVERS


def serve(requests, servers=None, fault_rate=0.0, seed=0):
    servers = servers or SERVERS
    census = ["client"] + servers

    def chor(op):
        return kvs_serve(op, "client", servers[0], servers, requests,
                         fault_rate=fault_rate, seed=seed)

    return run_once(chor, census)


class TestLocalStateHelpers:
    def test_update_returns_previous_binding(self):
        state = {}
        assert update_state(state, "k", "v1").kind is ResponseKind.NOT_FOUND
        previous = update_state(state, "k", "v2")
        assert previous.kind is ResponseKind.FOUND and previous.value == "v1"
        assert state["k"] == "v2"

    def test_lookup(self):
        state = {"k": "v"}
        assert lookup_state(state, "k") == Response.found("v")
        assert lookup_state(state, "missing").kind is ResponseKind.NOT_FOUND

    def test_fault_injection_corrupts_writes(self):
        import random

        state = {}
        update_state(state, "k", "v", fault_rate=1.0, rng=random.Random(0))
        assert state["k"] != "v"

    def test_hash_state_detects_divergence(self):
        assert hash_state({"a": "1"}) == hash_state({"a": "1"})
        assert hash_state({"a": "1"}) != hash_state({"a": "2"})

    def test_request_response_constructors(self):
        assert Request.put("k", "v").kind is RequestKind.PUT
        assert Request.get("k").key == "k"
        assert Request.stop().kind is RequestKind.STOP
        assert Response.stopped().kind is ResponseKind.STOPPED


class TestKVSSession:
    def test_get_after_put_round_trips(self):
        result = serve([Request.put("x", "1"), Request.get("x"), Request.stop()])
        responses = result.returns["client"]
        assert responses[1] == Response.found("1")
        assert responses[-1].kind is ResponseKind.STOPPED

    def test_get_of_missing_key(self):
        result = serve([Request.get("nope"), Request.stop()])
        assert result.returns["client"][0].kind is ResponseKind.NOT_FOUND

    def test_put_returns_previous_value(self):
        result = serve(
            [Request.put("x", "1"), Request.put("x", "2"), Request.get("x"), Request.stop()]
        )
        responses = result.returns["client"]
        assert responses[0].kind is ResponseKind.NOT_FOUND
        assert responses[1] == Response.found("1")
        assert responses[2] == Response.found("2")

    def test_session_stops_at_stop_request(self):
        result = serve([Request.stop(), Request.get("x")])
        assert len(result.returns["client"]) == 1

    def test_servers_return_client_responses_only_at_client(self):
        result = serve([Request.get("x"), Request.stop()])
        assert result.returns["client"]
        assert result.returns["s2"] == []

    @pytest.mark.parametrize("n_servers", [1, 2, 4, 6])
    def test_census_polymorphism_over_server_count(self, n_servers):
        servers = [f"srv{i}" for i in range(n_servers)]
        result = serve([Request.put("k", "v"), Request.get("k"), Request.stop()], servers)
        assert result.returns["client"][1] == Response.found("v")

    def test_replicas_all_apply_puts(self):
        def chor(op):
            states = make_replica_states(op, SERVERS)
            request = op.locally("client", lambda _un: Request.put("k", "v"))
            kvs_request(op, "client", "s1", SERVERS, states, request)
            return op.parallel(SERVERS, lambda _s, un: dict(un(states)))

        result = run_once(chor, CLUSTER)
        for server in SERVERS:
            assert result.returns[server].visible_facets()[server] == {"k": "v"}

    def test_faulty_writes_trigger_resynch_to_agreement(self):
        def chor(op):
            states = make_replica_states(op, SERVERS)
            request = op.locally("client", lambda _un: Request.put("k", "v"))
            kvs_request(op, "client", "s1", SERVERS, states, request, fault_rate=0.7, seed=11)
            return op.parallel(SERVERS, lambda _s, un: dict(un(states)))

        result = run_once(chor, CLUSTER)
        replicas = [result.returns[s].visible_facets()[s] for s in SERVERS]
        assert all(replica == replicas[0] for replica in replicas)

    def test_centralized_and_projected_message_counts_agree(self):
        requests = [Request.put("x", "1"), Request.get("x"), Request.stop()]
        projected = serve(requests)
        central = communication_cost(
            lambda op: kvs_serve(op, "client", "s1", SERVERS, requests), CLUSTER
        )
        assert projected.stats.total_messages == central.total_messages


class TestKoCStructure:
    """The communication shape the conclaves-&-MLVs design promises (Fig. 2)."""

    def cost(self, requests, servers=SERVERS):
        census = ["client"] + servers
        return communication_cost(
            lambda op: kvs_serve(op, "client", servers[0], servers, requests), census
        )

    def test_client_is_not_involved_in_server_koc(self):
        cost = self.cost([Request.put("k", "v"), Request.stop()])
        # the client's traffic is exactly one request sent and one response
        # received per request — none of the servers' branching reaches it
        assert cost.per_location_sent["client"] == 2
        assert cost.per_location_received["client"] == 2

    @pytest.mark.parametrize("n_servers", [2, 3, 4, 8])
    def test_second_conditional_reuses_koc_for_free(self, n_servers):
        """Both conclaves of Fig. 2 branch on the request, but the request is
        multicast exactly once: the second conditional re-uses the MLV.

        For a Get, the primary's only traffic towards the other servers is the
        single request multicast (n-1 messages) even though the servers branch
        on the request twice.  For a Put there is exactly one extra broadcast —
        the ``needsReSynch`` flag, which is genuinely new information — and
        still no re-broadcast of the request itself.
        """
        servers = [f"s{i}" for i in range(1, n_servers + 1)]
        others = n_servers - 1

        def forwards(cost):
            return sum(
                count for (src, dst), count in cost.per_channel.items()
                if src == "s1" and dst in servers
            )

        get_cost = self.cost([Request.get("k")], servers)
        assert forwards(get_cost) == others

        put_cost = self.cost([Request.put("k", "v")], servers)
        assert forwards(put_cost) == 2 * others

    @pytest.mark.parametrize("n_servers", [2, 4, 8])
    def test_get_message_count_scales_linearly_with_servers(self, n_servers):
        servers = [f"srv{i}" for i in range(n_servers)]
        cost = self.cost([Request.get("k"), Request.stop()], servers)
        # per request: client→primary, primary→(n-1) others, primary→client
        per_request = 1 + (n_servers - 1) + 1
        assert cost.total_messages == 2 * per_request


class TestBackupVariant:
    BACKUPS = ["b1", "b2"]
    CENSUS = ["client", "server", "b1", "b2"]

    def run_one(self, request, backups=BACKUPS):
        def chor(op):
            states = make_replica_states(op, ["server"] + backups)
            located = op.locally("client", lambda _un: request)
            return kvs_with_backups(op, "client", "server", backups, states, located)

        return run_once(chor, ["client", "server"] + backups)

    def test_put_then_get(self):
        def chor(op):
            states = make_replica_states(op, ["server"] + self.BACKUPS)
            put = op.locally("client", lambda _un: Request.put("k", "v"))
            kvs_with_backups(op, "client", "server", self.BACKUPS, states, put)
            get = op.locally("client", lambda _un: Request.get("k"))
            return kvs_with_backups(op, "client", "server", self.BACKUPS, states, get)

        result = run_once(chor, self.CENSUS)
        assert result.value_at("client") == Response.found("v")

    @pytest.mark.parametrize("n_backups", [1, 2, 4, 8])
    def test_get_involves_no_backup_traffic(self, n_backups):
        backups = [f"b{i}" for i in range(1, n_backups + 1)]
        result = self.run_one(Request.get("x"), backups)
        for backup in backups:
            assert result.stats.messages_involving(backup) == 1  # only the KoC broadcast

    @pytest.mark.parametrize("n_backups", [1, 2, 4, 8])
    def test_put_gathers_acknowledgements(self, n_backups):
        backups = [f"b{i}" for i in range(1, n_backups + 1)]
        result = self.run_one(Request.put("k", "v"), backups)
        for backup in backups:
            assert result.stats.messages_sent_by(backup) == 1
            assert result.stats.messages_involving(backup) == 2  # KoC in, ack out

    def test_stop_request(self):
        result = self.run_one(Request.stop())
        assert result.value_at("client").kind is ResponseKind.STOPPED


class TestKVSDelete:
    """The delete choreography: replicate-then-apply, like Put."""

    BACKUPS = ["b1", "b2"]
    CENSUS = ["client", "server"] + BACKUPS

    def run_session(self, *requests):
        from repro.protocols.kvs import kvs_delete

        def chor(op):
            states = make_replica_states(op, ["server"] + self.BACKUPS)
            last = None
            for request in requests:
                if request.kind is RequestKind.DELETE:
                    key = op.locally("client", lambda _un, k=request.key: k)
                    last = kvs_delete(
                        op, "client", "server", self.BACKUPS, states, key
                    )
                else:
                    located = op.locally("client", lambda _un, r=request: r)
                    last = kvs_with_backups(
                        op, "client", "server", self.BACKUPS, states, located
                    )
            return last

        return run_once(chor, self.CENSUS)

    def test_delete_returns_dropped_value(self):
        result = self.run_session(Request.put("k", "v"), Request.delete("k"))
        assert result.value_at("client") == Response.found("v")

    def test_delete_of_missing_key(self):
        result = self.run_session(Request.delete("ghost"))
        assert result.value_at("client").kind is ResponseKind.NOT_FOUND

    def test_delete_gathers_acknowledgements(self):
        # Same replication discipline as Put: every backup acks the delete
        # back to the server before the server applies it.
        result = self.run_session(Request.put("k", "v"), Request.delete("k"))
        for backup in self.BACKUPS:
            assert result.stats.messages_sent_by(backup) == 2  # put ack + del ack

    def test_delete_request_via_kvs_with_backups(self):
        # Request.delete routed through the single-request replica
        # choreography works too (the branch the batch path exercises).
        result = self.run_session(
            Request.put("k", "v"),
            Request.delete("k"),
            Request.get("k"),
        )
        assert result.value_at("client").kind is ResponseKind.NOT_FOUND

    def test_census_polymorphism_over_backup_count(self):
        from repro.protocols.kvs import kvs_delete

        for backups in ([], ["b1"], ["b1", "b2", "b3"]):
            census = ["client", "server"] + backups

            def chor(op):
                states = make_replica_states(op, ["server"] + backups)
                put = op.locally("client", lambda _un: Request.put("k", "v"))
                kvs_with_backups(op, "client", "server", backups, states, put)
                key = op.locally("client", lambda _un: "k")
                return kvs_delete(op, "client", "server", backups, states, key)

            result = run_once(chor, census)
            assert result.value_at("client") == Response.found("v")


class TestReplicatedRoundIsWireIdentical:
    """Literal (messages, bytes) per cluster op, measured before the five
    primary–backup choreographies were collapsed into ``replicated``.

    Pins the operator-call sequence of every instantiation: a refactor of
    the round may not add, drop or re-encode a single message.  The reads
    moved once, on purpose, when the cluster started choosing the
    ``primary_read`` round for them at dispatch: a get (and a quorum get at
    replication 1) is the bare key out and the response back, a read-only
    batch is its request list out and responses back — two messages at
    every replication factor, where they were ``2 + backups``.

    The transaction moved once more, when phase two stopped getting an
    instance of its own: a txn is one ``kvs_txn`` round (the prepare, whose
    payload is ``(owed decides, prepare)``), and its commit decide rides the
    shard's next instance.  Here that is the scan, so the scan step pays a
    decide-only ``kvs_txn`` round first: the decide out to every replica,
    ``None`` acks and answer back, then the two scan messages.
    """

    STEPS = ("put", "get", "quorum get", "delete", "batch", "read batch", "txn",
             "scan")
    EXPECTED = {
        1: [(2, 226), (2, 116), (2, 116), (2, 116), (2, 342), (2, 326), (2, 133),
            (4, 43)],
        2: [(4, 452), (2, 116), (5, 233), (4, 232), (4, 666), (2, 326), (4, 158),
            (6, 74)],
        3: [(6, 678), (2, 116), (8, 350), (6, 348), (6, 990), (2, 326), (6, 183),
            (8, 105)],
    }

    @pytest.mark.parametrize("replication", sorted(EXPECTED))
    def test_every_cluster_op_costs_what_it_did(self, replication):
        from repro import ClusterEngine

        def wait(futures):
            for future in futures:
                future.result(timeout=30.0)

        with ClusterEngine(1, replication=replication, backend="central") as cluster:
            drive = [
                lambda: wait([cluster.submit_put("k", "v" * 8)]),
                lambda: wait([cluster.submit_get("k")]),
                lambda: wait([cluster.submit_get("k", quorum=True)]),
                lambda: wait([cluster.submit_delete("k")]),
                lambda: wait(cluster.submit_batch(
                    [Request.put("a", "1"), Request.get("a"), Request.delete("a")]
                )),
                lambda: wait(cluster.submit_batch(
                    [Request.get("a"), Request.get("k"), Request.stop()]
                )),
                lambda: wait([cluster.submit_txn([Request.put("a", "1")])]),
                lambda: wait(cluster.submit_scan("").values()),
            ]
            observed = []
            for step in drive:
                stats = cluster.stats
                before = (stats.total_messages, stats.total_bytes)
                step()
                stats = cluster.stats
                observed.append(
                    (stats.total_messages - before[0], stats.total_bytes - before[1])
                )
        assert dict(zip(self.STEPS, observed)) == dict(
            zip(self.STEPS, self.EXPECTED[replication])
        )


class TestReplicatedCensusSweep:
    """``replicated`` itself, over backups ∈ {0..3} × replicates ∈ {T, F}."""

    @pytest.mark.parametrize("transport", ["central", "local"])
    @pytest.mark.parametrize("replicates", [True, False])
    @pytest.mark.parametrize("n_backups", [0, 1, 2, 3])
    def test_message_count_order_and_acks(self, n_backups, replicates, transport):
        from repro.protocols.kvs import replicated

        backups = [f"b{i}" for i in range(n_backups)]
        events = []  # appended to from every location's thread, in real time

        def at_backup(state, payload):
            events.append(("backup", state["me"], payload))
            return state["me"]

        def at_server(state, payload, acks):
            events.append(("server", state["me"], payload, tuple(acks)))
            return (payload, tuple(acks))

        def chor(op):
            states = op.parallel(["server"] + backups, lambda me, _un: {"me": me})
            payload = op.locally("client", lambda _un: "p")
            return replicated(
                op, "client", "server", backups, states, payload,
                replicates=lambda incoming: replicates,
                at_backup=at_backup, at_server=at_server,
            )

        result = run_once(chor, ["client", "server"] + backups, backend=transport)
        replicated_to = backups if replicates else []
        assert result.stats.total_messages == 2 + n_backups + len(replicated_to)
        # A conclave costs the outsider nothing: one request out, one answer in.
        assert result.stats.messages_involving("client") == 2
        # acks arrive in census order, and are empty when nothing replicated.
        assert result.value_at("client") == ("p", tuple(replicated_to))
        # at_backup ran once per backup, all of them strictly before at_server.
        assert sorted(events[:-1]) == [("backup", b, "p") for b in replicated_to]
        assert events[-1] == ("server", "server", "p", tuple(replicated_to))
