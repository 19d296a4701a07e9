"""Tests for the sharded KVS cluster subsystem (`repro.cluster`)."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from concurrent.futures import Future

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FaultPlan
from repro.cluster import ClusterClient, ClusterEngine, ShardRouter
from repro.core.errors import ChoreographyRuntimeError
from repro.gateway import GatewayClient, GatewayServer
from repro.protocols.kvs import Request, Response, ResponseKind
from repro.runtime.stats import ChannelStats

#: Pinned key → shard assignments for the default 4-shard, 64-vnode ring.
#: These change only if the ring hash or layout changes — which would strand
#: every key a deployed cluster already stored.
GOLDEN_DEFAULT_RING = {
    "alpha": "shard3",
    "bravo": "shard0",
    "charlie": "shard1",
    "delta": "shard0",
    "user:0001": "shard2",
    "user:0002": "shard2",
    "": "shard1",
}


class TestShardRouter:
    def test_pinned_assignments_default_ring(self):
        router = ShardRouter(4)
        assert {key: router.shard_for(key) for key in GOLDEN_DEFAULT_RING} == (
            GOLDEN_DEFAULT_RING
        )

    def test_deterministic_across_processes(self):
        """A fresh interpreter (different hash salt) routes identically."""
        keys = sorted(GOLDEN_DEFAULT_RING)
        script = (
            "from repro.cluster import ShardRouter\n"
            f"router = ShardRouter(4)\n"
            f"print(';'.join(router.shard_for(k) for k in {keys!r}))\n"
        )
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "12345"  # a salt the parent is unlikely to share
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in [os.path.join(os.getcwd(), "src"),
                        env.get("PYTHONPATH", "")] if p
        )
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=60, check=True, env=env,
        ).stdout.strip()
        assert out.split(";") == [GOLDEN_DEFAULT_RING[k] for k in keys]

    def test_same_config_same_mapping(self):
        keys = [f"key{i}" for i in range(500)]
        first = ShardRouter(["a", "b", "c"]).assignment(keys)
        second = ShardRouter(["a", "b", "c"]).assignment(keys)
        assert first == second

    def test_all_shards_get_keys(self):
        router = ShardRouter(4)
        assignment = router.assignment(f"key{i}" for i in range(1000))
        assert set(assignment.values()) == set(router.shards)

    def test_ring_stability_on_add(self):
        """Adding a shard moves only the keys the new shard takes over."""
        keys = [f"key{i}" for i in range(1000)]
        router = ShardRouter(4)
        before = router.assignment(keys)
        router.add_shard("shard4")
        after = router.assignment(keys)
        moved = {key for key in keys if before[key] != after[key]}
        # Every moved key lands on the new shard; survivors never reshuffle.
        assert all(after[key] == "shard4" for key in moved)
        # The new shard takes ≈1/5 of the keyspace, not a full reshuffle.
        assert 0 < len(moved) < len(keys) * 0.4

    def test_membership_errors(self):
        router = ShardRouter(2)
        with pytest.raises(ValueError):
            router.add_shard("shard0")
        with pytest.raises(ValueError):
            ShardRouter([])


#: Fixed key corpus for the minimal-movement property: large enough that
#: every shard owns keys, small enough to re-route after each membership op.
PROPERTY_KEYS = [f"key:{index:04d}" for index in range(200)]


class TestShardRouterProperties:
    """Property-based minimal-movement invariant, with a pinned seed.

    ``derandomize=True`` pins Hypothesis to a deterministic example stream
    (no hidden database, no flaky shrink in CI): the suite always explores
    the same add sequences, which is the seed discipline the chaos
    tests follow too (``docs/testing.md``).
    """

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(added=st.lists(st.integers(min_value=0, max_value=99), min_size=1, max_size=10,
                          unique=True))
    def test_membership_changes_move_exactly_the_ownership_delta(self, added):
        """Under any add sequence, the moved-key set is exactly the
        ring-ownership delta: keys moving *to* the added shard, and nothing
        else changes."""
        router = ShardRouter(["seed0", "seed1"])
        for index in added:
            shard = f"new{index}"
            before = {key: router.shard_for(key) for key in PROPERTY_KEYS}
            router.add_shard(shard)
            after = {key: router.shard_for(key) for key in PROPERTY_KEYS}
            moved = {key for key in PROPERTY_KEYS if before[key] != after[key]}
            # Every move lands on the newcomer, and the newcomer's whole
            # take *is* the moved set — survivors never exchange keys.
            assert moved == {key for key in PROPERTY_KEYS if after[key] == shard}

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(added=st.lists(st.integers(min_value=0, max_value=99), min_size=1, max_size=8,
                          unique=True), data=st.data())
    def test_assignment_depends_only_on_the_membership_set(self, added, data):
        """However a membership was reached — and in whatever order — a
        router over the same shard set routes every key identically."""
        shards = ["seed0", "seed1"] + [f"new{index}" for index in added]
        grown = ShardRouter(shards[:2])
        for shard in shards[2:]:
            grown.add_shard(shard)
        reordered = data.draw(st.permutations(shards).filter(lambda order: order != shards))
        rebuilt = ShardRouter(reordered[:1])
        for shard in reordered[1:]:
            rebuilt.add_shard(shard)
        assert rebuilt.assignment(PROPERTY_KEYS) == grown.assignment(PROPERTY_KEYS)


class TestClusterEngine:
    def test_put_get_round_trip_across_shards(self):
        with ClusterEngine(3, replication=2) as cluster:
            futures = [cluster.submit_put(f"k{i}", str(i)) for i in range(24)]
            for future in futures:
                assert isinstance(future.result(), Response)
            reads = [cluster.submit_get(f"k{i}") for i in range(24)]
            for index, future in enumerate(reads):
                response = future.result()
                assert response == Response.found(str(index))
            # The workload spread over more than one shard.
            touched = {cluster.shard_for(f"k{i}") for i in range(24)}
            assert len(touched) > 1

    def test_stats_rollup_equals_per_shard_sum(self):
        with ClusterEngine(4, replication=2) as cluster:
            futures = [cluster.submit_put(f"k{i}", "v") for i in range(40)]
            futures += [cluster.submit_get(f"k{i}") for i in range(40)]
            for future in futures:
                future.result()
            rollup = cluster.stats
            per_shard = cluster.per_shard_stats()
            assert rollup.total_messages == sum(
                stats.total_messages for stats in per_shard.values()
            )
            assert rollup.total_bytes == sum(
                stats.total_bytes for stats in per_shard.values()
            )
            merged = ChannelStats.merge_all(per_shard.values())
            assert rollup.snapshot() == merged.snapshot()
            # Every shard served some traffic.
            assert all(stats.total_messages > 0 for stats in per_shard.values())

    def test_batch_preserves_order_and_group_commits(self):
        with ClusterEngine(2, replication=2) as cluster:
            requests = [
                Request.put("x", "1"),
                Request.get("x"),
                Request.put("x", "2"),
                Request.get("x"),
                Request.get("unbound"),
            ]
            before = cluster.stats.total_messages
            responses = [f.result() for f in cluster.submit_batch(requests)]
            batch_messages = cluster.stats.total_messages - before
            assert responses[0].kind is ResponseKind.NOT_FOUND
            assert responses[1] == Response.found("1")
            assert responses[2] == Response.found("1")
            assert responses[3] == Response.found("2")
            assert responses[4].kind is ResponseKind.NOT_FOUND
            # One replica-group round per touched shard, not per request:
            # a shard with puts costs 4 messages (replication 2), one with
            # only gets costs 2.
            assert batch_messages <= 4 * len({cluster.shard_for("x"),
                                              cluster.shard_for("unbound")})

    def test_batch_routes_keyless_stop_requests(self):
        """A STOP in a batch is answered ``stopped``, not a routing crash."""
        with ClusterEngine(2, replication=2) as cluster:
            responses = [
                f.result()
                for f in cluster.submit_batch(
                    [Request.put("a", "1"), Request.stop(), Request.get("a")]
                )
            ]
            assert responses[1].kind is ResponseKind.STOPPED
            assert responses[2] == Response.found("1")

    def test_replication_one_serves_without_backups(self):
        with ClusterEngine(2, replication=1) as cluster:
            client = ClusterClient(cluster)
            assert client.put("solo", "value") is None
            assert client.get("solo") == "value"
            # A quorum read over a replication-1 shard degrades to a primary
            # read rather than failing.
            assert client.get("solo", quorum=True) == "value"

    def test_pending_counts_in_flight(self):
        with ClusterEngine(2, replication=2) as cluster:
            futures = [cluster.submit_put(f"k{i}", "v") for i in range(8)]
            for future in futures:
                future.result()
            # Pending settles *before* a Future resolves, so a caller that
            # has seen every result() return observes quiescence immediately
            # (no polling) — the contract add_shard's precondition relies on.
            assert cluster.pending == 0
            cluster.add_shard()  # must not flake with "not quiescent"

    def test_add_shard_migrates_only_moved_keys(self):
        with ClusterEngine(2, replication=2) as cluster:
            client = ClusterClient(cluster)
            values = {f"key{i}": str(i) for i in range(60)}
            for key, value in values.items():
                client.put(key, value)
            before = cluster.router.assignment(values)
            new_shard = cluster.add_shard()
            after = cluster.router.assignment(values)
            moved = {key for key in values if before[key] != after[key]}
            assert moved, "a new shard should take over some keys"
            assert all(after[key] == new_shard for key in moved)
            # Every key still readable, wherever it lives now.
            for key, value in values.items():
                assert client.get(key) == value, key
            # The moved keys are gone from their old shards' stores.
            for key in moved:
                old = cluster.session(before[key])
                assert key not in old.state.facet_for(old.primary)
            # And present in the new shard's primary store.
            new_session = cluster.session(new_shard)
            new_store = new_session.state.facet_for(new_session.primary)
            assert all(key in new_store for key in moved)

    def test_add_shard_requires_quiescence(self):
        with ClusterEngine(2, replication=2) as cluster:
            # A healthy backlog: many puts still in flight.
            futures = [cluster.submit_put(f"k{i}", "v") for i in range(50)]
            try:
                with pytest.raises(RuntimeError, match="quiescent"):
                    cluster.add_shard()
            finally:
                for future in futures:
                    future.result()

    def test_submit_after_close_raises(self):
        cluster = ClusterEngine(2, replication=1)
        cluster.close()
        with pytest.raises(RuntimeError):
            cluster.submit_put("k", "v")
        cluster.close()  # idempotent

    def test_invalid_replication(self):
        with pytest.raises(ValueError):
            ClusterEngine(2, replication=0)


class TestQuorumReads:
    def test_quorum_agrees_with_primary_when_healthy(self):
        with ClusterClient(shards=2, replication=3) as client:
            client.put("k", "v")
            assert client.get("k", quorum=True) == "v"

    def test_quorum_outvotes_a_corrupt_backup_and_repairs(self):
        with ClusterEngine(1, replication=3) as cluster:
            client = ClusterClient(cluster)
            client.put("k", "good")
            session = cluster.session("shard0")
            backup = session.backups[0]
            session.state.facet_for(backup)["k"] = "corrupt"
            assert client.get("k", quorum=True) == "good"
            # Read repair re-propagated the primary's store.
            assert session.state.facet_for(backup)["k"] == "good"

    def test_quorum_without_read_repair_leaves_divergence(self):
        with ClusterEngine(1, replication=3) as cluster:
            client = ClusterClient(cluster)
            client.put("k", "good")
            session = cluster.session("shard0")
            backup = session.backups[0]
            session.state.facet_for(backup)["k"] = "corrupt"
            assert client.get("k", quorum=True, read_repair=False) == "good"
            assert session.state.facet_for(backup)["k"] == "corrupt"

    def test_repair_traffic_never_reaches_the_client(self):
        with ClusterEngine(1, replication=3) as cluster:
            client = ClusterClient(cluster)
            client.put("k", "good")
            session = cluster.session("shard0")

            def client_messages():
                stats = cluster.stats
                return stats.messages_involving(cluster.client)

            before = client_messages()
            assert client.get("k", quorum=True) == "good"
            healthy_cost = client_messages() - before

            session.state.facet_for(session.backups[0])["k"] = "corrupt"
            before = client_messages()
            assert client.get("k", quorum=True) == "good"
            repair_cost = client_messages() - before
            # Divergence and repair are conclave-internal: the client pays
            # exactly its two messages (one sent, one received) either way.
            assert healthy_cost == repair_cost == 2


class TestReadsAreChosenAtDispatch:
    """A GET or a read-only batch is a client↔primary round: the cluster
    knows the request kind before it instantiates anything, so no backup
    has to be told the branch (no Knowledge-of-Choice broadcast)."""

    def test_warm_reads_leave_every_backup_row_unchanged(self):
        with ClusterEngine(1, replication=3, backend="local") as cluster:
            cluster.submit_put("k", "v").result(timeout=30.0)
            cluster.submit_get("k").result(timeout=30.0)
            backups = set(cluster.session("shard0").backups)
            stats = cluster.stats
            before = (stats.snapshot(), dict(stats.payload_bytes), stats.total_messages)
            futures = []
            for _ in range(200):  # awaited one by one: none folds
                cluster.submit_get("k").result(timeout=30.0)
            for _ in range(50):
                futures += cluster.submit_batch(
                    [Request.get("k"), Request.get("missing"), Request.stop()]
                )
            for future in futures:
                future.result(timeout=30.0)
            stats = cluster.stats
            after = (stats.snapshot(), dict(stats.payload_bytes), stats.total_messages)

        def backup_rows(table):
            return {
                channel: count for channel, count in table.items()
                if backups.intersection(channel)
            }

        assert backup_rows(after[0]) == backup_rows(before[0])
        assert backup_rows(after[1]) == backup_rows(before[1])
        assert (after[2] - before[2]) / (200 + 50) == 2

    def test_backup_workers_run_no_job_for_a_read(self, engine_jobs):
        with ClusterEngine(1, replication=3, backend="local") as cluster:
            session = cluster.session("shard0")
            cluster.submit_put("k", "v").result(timeout=30.0)
            cluster.submit_get("k").result(timeout=30.0)
            engine_jobs.clear()
            futures = []
            for _ in range(200):  # awaited one by one: none folds
                cluster.submit_get("k").result(timeout=30.0)
            for _ in range(50):
                futures += cluster.submit_batch([Request.get("k"), Request.stop()])
            for _ in range(20):
                futures += cluster.submit_scan("").values()
            for future in futures:
                future.result(timeout=30.0)
            assert engine_jobs == {cluster.client: 270, session.primary: 270}

            engine_jobs.clear()
            for n in range(10):
                cluster.submit_put("k", str(n)).result(timeout=30.0)
            assert engine_jobs == {location: 10 for location in session.census}

            demoted = session.backups[-1]
            assert cluster._mark_down("shard0", demoted)
            engine_jobs.clear()
            for n in range(10):
                cluster.submit_put("k", str(n)).result(timeout=30.0)
            assert engine_jobs[demoted] == 0
            assert engine_jobs == {location: 10 for location in session.census if location != demoted}


class TestSingleRequestsFold:
    """Single requests that queue while their shard's fold is in flight go
    out together, as one instance, when it settles (group commit at
    dispatch, no timer); a lone request keeps its own binding."""

    @staticmethod
    def park(cluster):
        """Hold shard0's client worker on a gate job; returns its release."""
        started, gate = threading.Event(), threading.Event()

        def parked(op):
            op.locally(cluster.client, lambda _un: started.set() or gate.wait(30.0))

        cluster.session("shard0").engine.submit(parked, census=[cluster.client])
        assert started.wait(30.0)
        return gate.set

    @staticmethod
    def bindings_run(monkeypatch, cluster):
        """The names of the bindings shard0 submits from now on."""
        engine = cluster.session("shard0").engine
        names, real_submit = [], engine.submit

        def recording(chor, *args, **kwargs):
            names.append(chor.name)
            return real_submit(chor, *args, **kwargs)

        monkeypatch.setattr(engine, "submit", recording)
        return names

    def test_eight_queued_requests_run_as_two_instances(self, engine_jobs, monkeypatch):
        with ClusterEngine(1, replication=3, backend="local") as cluster:
            session = cluster.session("shard0")
            release = self.park(cluster)
            names = self.bindings_run(monkeypatch, cluster)
            engine_jobs.clear()
            futures = [
                cluster.submit_put("a", "1"), cluster.submit_get("a"),
                cluster.submit_put("b", "1"), cluster.submit_put("a", "2"),
                cluster.submit_get("a"), cluster.submit_delete("b"),
                cluster.submit_get("b"), cluster.submit_put("a", "3"),
            ]
            assert cluster.pending == 2 + 7  # gate + the first put, 7 queued
            release()
            answers = [future.result(timeout=30.0) for future in futures]
            stores = [dict(session.state.facet_for(r)) for r in session.servers]
            assert cluster.pending == 0
        assert names == ["put@shard0", "serve@shard0"]
        assert engine_jobs == {location: 2 for location in session.census}
        found, missing = Response.found, Response.not_found()
        assert answers == [missing, found("1"), missing, found("1"),
                           found("2"), found("1"), missing, found("2")]
        assert stores == [{"a": "3"}] * 3  # per-key arrival order, everywhere

    def test_a_lone_request_runs_its_own_binding(self, monkeypatch):
        with ClusterEngine(1, replication=3, backend="local") as cluster:
            names = self.bindings_run(monkeypatch, cluster)
            assert cluster.submit_put("k", "v").result(timeout=30.0) == Response.not_found()
            assert cluster.submit_get("k").result(timeout=30.0) == Response.found("v")
            assert cluster.submit_delete("k").result(timeout=30.0) == Response.found("v")
        assert names == ["put@shard0", "get@shard0", "delete@shard0"]

    def test_queued_reads_fold_into_a_read_batch(self, monkeypatch):
        with ClusterEngine(1, replication=3, backend="local") as cluster:
            release = self.park(cluster)
            names = self.bindings_run(monkeypatch, cluster)
            futures = [cluster.submit_get(key) for key in "abcd"]
            release()
            assert [f.result(timeout=30.0) for f in futures] == [Response.not_found()] * 4
        assert names == ["get@shard0", "read@shard0"]

    def test_a_quorum_get_runs_behind_the_queue(self, monkeypatch):
        with ClusterEngine(1, replication=3, backend="local") as cluster:
            release = self.park(cluster)
            names = self.bindings_run(monkeypatch, cluster)
            cluster.submit_put("k", "1")
            queued = cluster.submit_put("k", "2")
            quorum = cluster.submit_get("k", quorum=True)
            release()
            assert queued.result(timeout=30.0) == Response.found("1")
            assert quorum.result(timeout=30.0) == Response.found("2")
        assert names == ["put@shard0", "put@shard0", "quorum_get@shard0"]

    def test_a_failed_fold_fails_every_request_in_it(self):
        plan = FaultPlan(seed=7).crash("shard0.r0", after_ops=0)
        with ClusterEngine(1, replication=1, backend="simulated", timeout=0.3,
                           faults=plan) as cluster:
            release = self.park(cluster)
            futures = [cluster.submit_put(f"k{i}", "v") for i in range(3)]
            release()
            for future in futures:  # the lone first put, then a fold of two
                with pytest.raises(ChoreographyRuntimeError):
                    future.result(timeout=30.0)

    def test_close_drains_the_queue(self):
        cluster = ClusterEngine(1, replication=2, backend="local")
        release = self.park(cluster)
        futures = [cluster.submit_put(f"k{i}", "v") for i in range(4)]
        closer = threading.Thread(target=cluster.close)
        closer.start()
        release()
        closer.join(30.0)
        assert [f.result(timeout=30.0) for f in futures] == [Response.not_found()] * 4

    def test_pending_counts_the_queue_until_it_is_dispatched(self, monkeypatch):
        with ClusterEngine(1, replication=2, backend="local") as cluster:
            session = cluster.session("shard0")
            seen = []
            real_unfold = cluster._unfold

            def observing(folded, run, done):
                # The fold's engine job has resolved; the lane is not sent yet.
                seen.append((len(session.lane), cluster.pending,
                             cluster.health()["shard0"].pending))
                real_unfold(folded, run, done)

            monkeypatch.setattr(cluster, "_unfold", observing)
            release = self.park(cluster)
            futures = [cluster.submit_put(f"k{i}", "v") for i in range(6)]
            assert cluster.pending == 2 + 5
            release()
            for future in futures:
                future.result(timeout=30.0)
            assert cluster.pending == 0
        assert seen[0][0] == 5
        assert all(pending >= queued and health >= queued
                   for queued, pending, health in seen)


class TestCallersCannotCancel:
    """The cluster answers every Future it hands out, so a caller's
    ``cancel()`` is refused: a cancelled request would refuse its answer
    and strand the rest of its fold or batch, or free a fold's slot while
    its instance still runs."""

    def test_a_cancel_strands_nothing(self):
        with ClusterEngine(1, replication=2, backend="local") as cluster:
            release = TestSingleRequestsFold.park(cluster)
            futures = [cluster.submit_put(key, "1") for key in "abc"]
            futures += cluster.submit_batch([Request.put(key, "2") for key in "abc"])
            cancelled = [future.cancel() for future in futures]
            release()
            answers = [future.result(timeout=30.0) for future in futures]
            assert cluster.pending == 0
        assert cancelled == [False] * 6
        assert answers == [Response.not_found()] * 3 + [Response.found("1")] * 3


class TestABatchIsAnsweredPerShard:
    """A batch answered as a whole (:meth:`ClusterEngine.submit_batch_answers`,
    behind ``ClusterClient.batch`` and the gateway's ``BATCH``) makes one
    Future for the batch plus each shard part's lane and engine Futures:
    9 for 32 requests over 4 shards, where a Future per request made 40."""

    BATCH = [Request.put(f"k{index}", str(index)) if index % 8 == 0
             else Request.get(f"k{index}") for index in range(32)]

    @staticmethod
    def futures_made(monkeypatch, action) -> int:
        made, real_init = [], Future.__init__

        def counting(self):
            made.append(None)
            real_init(self)

        with monkeypatch.context() as patch:
            patch.setattr(Future, "__init__", counting)
            action()
        return len(made)

    def test_a_warm_cluster_client_batch_makes_9_futures(self, monkeypatch):
        with ClusterClient(shards=4, replication=2, backend="local") as kvs:
            assert len({kvs.cluster.shard_for(r.key) for r in self.BATCH}) == 4
            kvs.batch(self.BATCH)  # warm: every binding exists
            assert self.futures_made(monkeypatch, lambda: kvs.batch(self.BATCH)) == 9

    def test_a_warm_gateway_batch_makes_9_futures(self, monkeypatch):
        with ClusterClient(shards=4, replication=2, backend="local") as kvs:
            with GatewayServer(kvs) as server:
                with GatewayClient(*server.address, timeout=20.0) as client:
                    client.batch(self.BATCH)
                    assert self.futures_made(
                        monkeypatch, lambda: client.batch(self.BATCH)) == 9

    def test_answers_come_back_in_request_order(self):
        with ClusterEngine(4, replication=2) as cluster:
            cluster.submit_batch_answers(
                [Request.put(f"k{index}", str(index)) for index in range(32)]).result()
            requests = [Request.get(f"k{index}") for index in reversed(range(33))]
            answers = cluster.submit_batch_answers(requests).result(timeout=30.0)
            assert answers == [Response.not_found()] + [
                Response.found(str(index)) for index in reversed(range(32))]
            assert answers == [f.result() for f in cluster.submit_batch(requests)]
            assert cluster.submit_batch_answers([]).result(timeout=30.0) == []

    @staticmethod
    def held_parts(monkeypatch, cluster, requests):
        """Dispatch ``requests`` with every shard part held: the batch's
        Future, and ``[(indices, part Future)]`` by lowest index."""
        parts = {}

        def hold(shard_id, op_name, args=(), kwargs=None):
            parts[shard_id] = Future()
            return parts[shard_id]

        monkeypatch.setattr(cluster, "_submit", hold)
        whole = cluster.submit_batch_answers(requests)
        shards = [cluster.shard_for(request.key) for request in requests]
        held = sorted(([i for i, s in enumerate(shards) if s == shard_id], part)
                      for shard_id, part in parts.items())
        assert len(held) == 4
        return whole, held

    def test_parts_settling_out_of_order_are_put_in_request_order(self, monkeypatch):
        with ClusterEngine(4, replication=1) as cluster:
            requests = [Request.get(f"k{index}") for index in range(16)]
            whole, held = self.held_parts(monkeypatch, cluster, requests)
            for indices, part in reversed(held):
                assert not whole.done()
                part.set_result([Response.found(str(index)) for index in indices])
            assert whole.result(timeout=0) == [Response.found(str(i)) for i in range(16)]

    def test_parts_settling_at_once_settle_the_batch_once(self, monkeypatch):
        """Four threads settle the four parts together, 200 times, with the
        interpreter switching threads every microsecond: a lost update of
        the parts left would leave a batch unsettled."""
        expected = [Response.found(str(index)) for index in range(16)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ClusterEngine(4, replication=1) as cluster:
                for _ in range(200):
                    whole, held = self.held_parts(
                        monkeypatch, cluster, [Request.get(f"k{index}") for index in range(16)])
                    start = threading.Barrier(len(held))

                    def settle(indices, part, start=start):
                        start.wait(10.0)
                        part.set_result([expected[index] for index in indices])

                    threads = [threading.Thread(target=settle, args=item) for item in held]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(10.0)
                        assert not thread.is_alive()
                    assert whole.result(timeout=10.0) == expected
        finally:
            sys.setswitchinterval(interval)

    def test_the_lowest_index_failed_request_s_error_is_raised(self, monkeypatch):
        with ClusterEngine(4, replication=1) as cluster:
            requests = [Request.get(f"k{index}") for index in range(16)]
            whole, held = self.held_parts(monkeypatch, cluster, requests)
            (first, ok), *failing = held
            for indices, part in reversed(failing):  # the lowest fails last
                part.set_exception(RuntimeError(f"part at {indices[0]}"))
            assert not whole.done()
            ok.set_result([Response.not_found()] * len(first))
            with pytest.raises(RuntimeError) as excinfo:
                whole.result(timeout=0)
            assert str(excinfo.value) == f"part at {failing[0][0][0]}"


class TestClusterClient:
    def test_put_returns_previous_value(self):
        with ClusterClient(shards=2, replication=2) as client:
            assert client.put("k", "1") is None
            assert client.put("k", "2") == "1"
            assert client.get("k") == "2"
            assert client.get("missing") is None

    def test_scan_merges_sorted_across_shards(self):
        with ClusterClient(shards=3, replication=2) as client:
            expected = []
            for i in range(30):
                client.put(f"user:{i:03d}", str(i))
                expected.append((f"user:{i:03d}", str(i)))
            client.put("other", "x")
            assert client.scan("user:") == sorted(expected)
            all_items = client.scan()
            assert ("other", "x") in all_items
            assert len(all_items) == 31
            assert all_items == sorted(all_items)

    def test_async_surface_pipelines(self):
        with ClusterClient(shards=2, replication=2) as client:
            puts = [client.cluster.submit_put(f"k{i}", str(i)) for i in range(16)]
            for future in puts:
                assert future.result().kind in (
                    ResponseKind.FOUND, ResponseKind.NOT_FOUND
                )
            gets = [client.cluster.submit_get(f"k{i}") for i in range(16)]
            assert [f.result().value for f in gets] == [str(i) for i in range(16)]

    def test_borrowed_cluster_left_open(self):
        with ClusterEngine(2, replication=1) as cluster:
            with ClusterClient(cluster) as client:
                client.put("k", "v")
            # The client borrowed the cluster: it must still serve.
            assert ClusterClient(cluster).get("k") == "v"

    def test_build_options_and_prebuilt_are_exclusive(self):
        with ClusterEngine(2, replication=1) as cluster:
            with pytest.raises(ValueError):
                ClusterClient(cluster, shards=4)

    def test_works_on_every_backend(self):
        for backend in ["local", "tcp"]:
            with ClusterClient(shards=2, replication=2, backend=backend) as client:
                assert client.put("k", backend) is None
                assert client.get("k") == backend
                assert client.get("k", quorum=True) == backend


class TestClusterDelete:
    def test_delete_round_trip(self):
        with ClusterClient(shards=2, replication=2) as client:
            client.put("k", "v")
            assert client.delete("k") == "v"
            assert client.get("k") is None
            assert client.delete("k") is None  # already absent: not found

    def test_delete_replicates_to_backups(self):
        with ClusterEngine(shards=1, replication=3) as cluster:
            client = ClusterClient(cluster)
            client.put("k", "v")
            client.delete("k")
            session = cluster.session("shard0")
            for replica in session.servers:
                assert "k" not in session.state.facet_for(replica)

    def test_delete_async_pipelines(self):
        with ClusterClient(shards=2, replication=2) as client:
            for i in range(8):
                client.put(f"k{i}", str(i))
            futures = [client.cluster.submit_delete(f"k{i}") for i in range(8)]
            assert [f.result().value for f in futures] == [str(i) for i in range(8)]
            assert client.scan() == []

    def test_batch_with_deletes_preserves_per_key_order(self):
        with ClusterClient(shards=2, replication=2) as client:
            responses = client.batch([
                Request.put("a", "1"),
                Request.delete("a"),
                Request.get("a"),
                Request.put("a", "2"),
            ])
            kinds = [r.kind for r in responses]
            assert kinds == [
                ResponseKind.NOT_FOUND,  # fresh put
                ResponseKind.FOUND,      # delete returns the dropped value
                ResponseKind.NOT_FOUND,  # gone
                ResponseKind.NOT_FOUND,  # fresh again
            ]
            assert responses[1].value == "1"
            assert client.get("a") == "2"

    def test_health_reports_per_shard_pending(self):
        with ClusterEngine(shards=2, replication=2) as cluster:
            health = cluster.health()
            assert all(h.pending == 0 for h in health.values())
            futures = [cluster.submit_put(f"k{i}", "v") for i in range(6)]
            snapshot = cluster.health()
            assert all(h.pending >= 0 for h in snapshot.values())
            for future in futures:
                future.result()
            assert all(h.pending == 0 for h in cluster.health().values())


class TestClusterClientLifecycle:
    def test_close_is_idempotent(self):
        client = ClusterClient(shards=1, replication=2)
        client.put("k", "v")
        client.close()
        client.close()  # second close must be a no-op, not an error

    def test_context_exit_after_cluster_already_failed(self):
        # Exiting the client context after its cluster died underneath it
        # must not raise: close() on a closed cluster stays idempotent.
        with ClusterClient(shards=1, replication=2) as client:
            client.put("k", "v")
            client.cluster.close()

    def test_borrowed_close_after_owner_closed(self):
        cluster = ClusterEngine(shards=1, replication=2)
        borrowed = ClusterClient(cluster)
        cluster.close()
        borrowed.close()  # borrowed: never touches the (closed) cluster

    def test_flaky_connects_do_not_break_lifecycle(self):
        # Transient connect failures during traffic must leave close()
        # clean: the context exits without masking or leaking the retry.
        from repro import FaultPlan

        plan = FaultPlan(seed=7).flaky_connect(
            "client", "shard0.r0", failures=2, max_retries=0
        )
        with ClusterClient(
            shards=1, replication=2, backend="simulated", timeout=0.3,
            faults=plan, retries=2,
        ) as client:
            assert client.get("missing") is None
        client.close()  # post-context close stays idempotent too
