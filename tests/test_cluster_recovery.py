"""Chaos suite, part 3: durability and full recovery (crash → restart → re-join).

PR 5 proved the cluster *degrades* correctly; this suite proves it *heals*.
The promises under test:

* with ``durability=`` on, every acknowledged mutation survives a cluster
  close/reopen — and a replica's store survives its own crash, because the
  WAL was written ahead of memory;
* a crashed, demoted backup can be re-admitted:
  :meth:`~repro.cluster.ClusterEngine.rejoin_backup` restarts it (reviving
  its transport endpoints and replaying its on-disk state), catches it up to
  the primary through the hash-verified
  :func:`~repro.protocols.kvs.kvs_catchup` choreography, and re-binds the
  shard — after which the backup replicates new writes again and
  ``health()`` reports the shard non-degraded;
* the acceptance bar: a 1k-op YCSB-A run with a mid-workload backup crash
  followed by restart + re-join converges to the **byte-identical** final
  state of the fault-free run with the same seed;
* racing submits against the control plane fail with *typed* errors
  (:class:`~repro.cluster.ClusterClosed`,
  :class:`~repro.cluster.ClusterRebalancing`) instead of hanging;
* ``add_shard``'s copy-then-delete claim holds under injected faults: a
  crash mid-migration leaves every moved key intact at its old home;
* what clients saw (``tests/linearizability.py``, autouse): every single
  request, batch, scan and transfer forms a linearizable history per key,
  across crashes, re-joins and full cluster restarts.

Like the failover suite, everything runs on the deterministic ``simulated``
backend with deliberately short timeouts; ``CHAOS_SEED`` widens the seed
sweep in CI.
"""

from __future__ import annotations

import os

import pytest

from repro import (
    ClusterClient,
    ClusterClosed,
    ClusterEngine,
    ClusterRebalancing,
    FaultPlan,
    RejoinError,
)
from repro.core.errors import ChoreographyRuntimeError
from tests.linearizability import txn_history  # noqa: F401 - autouse: checks every test here
from tests.test_cluster_failover import BACKEND, CHAOS_SEEDS, TIMEOUT, drive, ycsb_a


def durable_cluster(root, **overrides):
    options = dict(
        shards=1, replication=2, backend=BACKEND, timeout=TIMEOUT,
        durability=str(root),
    )
    options.update(overrides)
    return ClusterEngine(**options)


# ------------------------------------------------------------------- durability --


class TestDurableCluster:
    def test_writes_survive_close_and_reopen(self, tmp_path):
        with durable_cluster(tmp_path) as cluster:
            kvs = ClusterClient(cluster)
            model = {f"k{i}": f"v{i}" for i in range(24)}
            for key, value in model.items():
                kvs.put(key, value)
        with durable_cluster(tmp_path) as reopened:
            assert ClusterClient(reopened).scan() == sorted(model.items())

    def test_deletes_and_overwrites_survive(self, tmp_path):
        with durable_cluster(tmp_path) as cluster:
            kvs = ClusterClient(cluster)
            kvs.put("keep", "v1")
            kvs.put("keep", "v2")  # overwrite
            kvs.put("drop", "x")
            assert kvs.delete("drop") == "x"  # replicated data-plane delete
        with durable_cluster(tmp_path) as reopened:
            assert ClusterClient(reopened).scan() == [("keep", "v2")]

    def test_delete_wal_records_replay_on_every_replica(self, tmp_path):
        # The delete must be WAL-logged on primary *and* backup: after a
        # cold restart both replicas replay to the post-delete state, so a
        # failover cannot resurrect the dropped key.
        with durable_cluster(tmp_path) as cluster:
            kvs = ClusterClient(cluster)
            for index in range(8):
                kvs.put(f"k{index}", f"v{index}")
            for index in range(0, 8, 2):
                kvs.delete(f"k{index}")
        with durable_cluster(tmp_path) as reopened:
            session = reopened.session("shard0")
            survivors = sorted(f"k{i}" for i in range(1, 8, 2))
            for replica in session.servers:
                facet = session.state.facet_for(replica)
                assert sorted(facet) == survivors

    def test_delete_then_reput_survives_restart(self, tmp_path):
        # WAL replay is order-sensitive: del then put must net out to the
        # re-put value, not the delete.
        with durable_cluster(tmp_path) as cluster:
            kvs = ClusterClient(cluster)
            kvs.put("k", "first")
            kvs.delete("k")
            kvs.put("k", "second")
        with durable_cluster(tmp_path) as reopened:
            assert ClusterClient(reopened).get("k") == "second"

    def test_durability_accepts_config_object(self, tmp_path):
        from repro.storage import Durability

        config = Durability(root=str(tmp_path), fsync="never", snapshot_every=4)
        with durable_cluster(tmp_path, durability=config) as cluster:
            kvs = ClusterClient(cluster)
            for i in range(12):  # crosses several snapshot boundaries
                kvs.put(f"k{i}", str(i))
            assert cluster.durability.snapshot_every == 4
        with durable_cluster(tmp_path, durability=config) as reopened:
            assert len(ClusterClient(reopened).scan()) == 12

    def test_replica_directories_follow_the_layout(self, tmp_path):
        with durable_cluster(tmp_path) as cluster:
            ClusterClient(cluster).put("k", "v")
        for replica in ("shard0.r0", "shard0.r1"):
            assert (tmp_path / "shard0" / replica / "wal.bin").exists()


# ----------------------------------------------------------------------- rejoin --


def crash_then_detect(cluster, kvs, *, ops=30):
    """Drive puts until the planned backup crash is detected and demoted."""
    model = {}
    for index in range(ops):
        key, value = f"k{index % 8}", f"v{index}"
        kvs.put(key, value)
        model[key] = value
        if cluster.failovers:
            return model
    raise AssertionError("planned crash was never detected")


class TestRejoin:
    def test_rejoin_restores_replication(self, tmp_path):
        plan = FaultPlan(seed=11).crash("shard0.r1", after_ops=40)
        with durable_cluster(tmp_path, faults=plan) as cluster:
            kvs = ClusterClient(cluster)
            model = crash_then_detect(cluster, kvs, ops=60)
            assert cluster.health()["shard0"].replicas["shard0.r1"] == "down"

            report = cluster.rejoin_backup("shard0", "shard0.r1")
            assert report.replica == "shard0.r1"
            assert report.mode == "delta"  # WAL replay left only a small gap
            assert not report.fell_back
            assert report.replayed_records > 0
            assert report.replay_seconds >= 0 and report.catchup_seconds >= 0

            health = cluster.health()["shard0"]
            assert not health.degraded
            assert health.replicas["shard0.r1"] == "up"
            assert health.down == ()
            assert cluster.rejoins == [report]

            # The rejoined backup replicates new writes again.
            for index in range(10):
                key, value = f"post{index}", f"pv{index}"
                kvs.put(key, value)
                model[key] = value
            session = cluster.session("shard0")
            primary = dict(session.state.facet_for("shard0.r0"))
            backup = dict(session.state.facet_for("shard0.r1"))
            assert primary == backup == model
            assert kvs.scan() == sorted(model.items())

    def test_rejoin_without_durability_uses_full_transfer(self):
        plan = FaultPlan(seed=11).crash("shard0.r1", after_ops=40)
        with ClusterEngine(
            shards=1, replication=2, backend=BACKEND, timeout=TIMEOUT, faults=plan
        ) as cluster:
            kvs = ClusterClient(cluster)
            model = crash_then_detect(cluster, kvs, ops=60)
            report = cluster.rejoin_backup("shard0", "shard0.r1")
            assert report.mode == "full"  # no WAL: nothing to replay or delta
            assert report.replayed_records == 0
            assert not cluster.health()["shard0"].degraded
            kvs.put("after", "rejoin")
            model["after"] = "rejoin"
            session = cluster.session("shard0")
            assert dict(session.state.facet_for("shard0.r1")) == model

    def test_rejoin_logs_restart_in_the_fault_schedule(self, tmp_path):
        plan = FaultPlan(seed=11).crash("shard0.r1", after_ops=40)
        with durable_cluster(tmp_path, faults=plan) as cluster:
            kvs = ClusterClient(cluster)
            crash_then_detect(cluster, kvs, ops=60)
            cluster.rejoin_backup("shard0", "shard0.r1")
            kinds = [
                event[2]
                for event in cluster.session("shard0").engine.transport.faults.schedule()
            ]
            assert "crash" in kinds and "restart" in kinds

    def test_rejoining_is_a_visible_health_state(self, tmp_path):
        plan = FaultPlan(seed=11).crash("shard0.r1", after_ops=40)
        with durable_cluster(tmp_path, faults=plan) as cluster:
            kvs = ClusterClient(cluster)
            crash_then_detect(cluster, kvs, ops=60)
            session = cluster.session("shard0")
            # The window rejoin_backup holds open:
            session.down.remove("shard0.r1")
            session.rejoining = "shard0.r1"
            health = session.health()
            assert health.replicas["shard0.r1"] == "rejoining"
            assert health.degraded  # not serving replicated yet
            assert session.backups == []  # not serving yet
            session.rejoining = None
            assert session.health().replicas["shard0.r1"] == "up"

    def test_rejoin_rejects_bad_targets(self, tmp_path):
        with durable_cluster(tmp_path) as cluster:
            with pytest.raises(RejoinError, match="primary"):
                cluster.rejoin_backup("shard0", "shard0.r0")
            with pytest.raises(RejoinError, match="not demoted"):
                cluster.rejoin_backup("shard0", "shard0.r1")
            with pytest.raises(KeyError):
                cluster.rejoin_backup("nope", "nope.r1")

    def test_rejoin_on_closed_cluster_raises_typed(self, tmp_path):
        cluster = durable_cluster(tmp_path)
        cluster.close()
        with pytest.raises(ClusterClosed):
            cluster.rejoin_backup("shard0", "shard0.r1")

    def test_failed_rejoin_returns_the_replica_to_down(self, tmp_path):
        plan = FaultPlan(seed=11).crash("shard0.r1", after_ops=40)
        with durable_cluster(tmp_path, faults=plan) as cluster:
            kvs = ClusterClient(cluster)
            crash_then_detect(cluster, kvs, ops=60)
            # Sabotage the catch-up: break the client link to the rejoiner so
            # the report never arrives.  The rejoin must fail loudly and put
            # the replica back in the demoted state, cluster still serving.
            session = cluster.session("shard0")
            original_run = session.engine.run

            def failing_run(*args, **kwargs):
                raise ChoreographyRuntimeError("catch-up transfer failed", {})

            session.engine.run = failing_run
            try:
                with pytest.raises(ChoreographyRuntimeError):
                    cluster.rejoin_backup("shard0", "shard0.r1")
            finally:
                session.engine.run = original_run
            health = cluster.health()["shard0"]
            assert health.replicas["shard0.r1"] == "down"
            assert cluster.rejoins == []
            kvs.put("still", "serving")
            assert kvs.get("still") == "serving"


# ----------------------------------------------------------------- typed errors --


class TestTypedErrors:
    def test_submit_after_close_raises_cluster_closed(self):
        cluster = ClusterEngine(shards=1, replication=1, backend=BACKEND)
        cluster.close()
        with pytest.raises(ClusterClosed):
            cluster.submit_put("k", "v")
        # Back-compat: pre-PR 6 callers caught the untyped error.
        assert issubclass(ClusterClosed, RuntimeError)
        assert issubclass(ClusterRebalancing, RuntimeError)
        assert issubclass(RejoinError, RuntimeError)

    def test_submit_during_control_op_raises_rebalancing(self):
        with ClusterEngine(shards=1, replication=1, backend=BACKEND) as cluster:
            with cluster._lock:
                cluster._control_op = "a shard rebalance"
            try:
                with pytest.raises(ClusterRebalancing, match="busy"):
                    cluster.submit_put("k", "v")
                with pytest.raises(ClusterRebalancing):
                    cluster.add_shard()
                with pytest.raises(ClusterRebalancing):
                    cluster.rejoin_backup("shard0", "shard0.r1")
            finally:
                with cluster._lock:
                    cluster._control_op = None
            # The window closes: the same submit now succeeds.
            assert cluster.submit_put("k", "v").result(timeout=30.0)

    def test_add_shard_still_requires_quiescence_with_legacy_error(self):
        with ClusterEngine(shards=1, replication=1, backend=BACKEND) as cluster:
            futures = [cluster.submit_put(f"k{i}", "v") for i in range(4)]
            try:
                if cluster.pending:
                    with pytest.raises(RuntimeError, match="quiescent"):
                        cluster.add_shard()
            finally:
                for future in futures:
                    future.result(timeout=30.0)


# ------------------------------------------------- migration under injected faults --


class TestMigrationUnderFaults:
    def test_crash_mid_migration_leaves_moved_keys_at_their_old_home(self):
        # The new shard's primary is dead on arrival, so every migration
        # re-put fails; add_shard's copy-then-delete contract says the old
        # shard must still hold every key (the comment in engine.py asserted
        # this; this test pins it).
        plan = FaultPlan(seed=5).crash("shard1.r0", after_ops=0)
        with ClusterEngine(
            shards=1, replication=1, backend=BACKEND, timeout=TIMEOUT, faults=plan
        ) as cluster:
            kvs = ClusterClient(cluster)
            model = {f"mig{i}": f"v{i}" for i in range(32)}
            for key, value in model.items():
                kvs.put(key, value)
            with pytest.raises(ChoreographyRuntimeError):
                cluster.add_shard("shard1")
            old_primary = dict(cluster.session("shard0").state.facet_for("shard0.r0"))
            assert old_primary == model  # nothing was destroyed
            # The failed rebalance released the control plane: submits that
            # route to the surviving shard still serve.
            survivors = [key for key in model if cluster.shard_for(key) == "shard0"]
            assert survivors
            assert kvs.get(survivors[0]) == model[survivors[0]]

    def test_clean_migration_still_moves_and_deletes(self):
        with ClusterEngine(shards=1, replication=1, backend=BACKEND) as cluster:
            kvs = ClusterClient(cluster)
            model = {f"mig{i}": f"v{i}" for i in range(32)}
            for key, value in model.items():
                kvs.put(key, value)
            cluster.add_shard("shard1")
            moved = [key for key in model if cluster.shard_for(key) == "shard1"]
            assert moved  # the ring took something
            old_primary = cluster.session("shard0").state.facet_for("shard0.r0")
            assert not any(key in old_primary for key in moved)
            assert kvs.scan() == sorted(model.items())


# ------------------------------------------------------------------- acceptance --


def run_ycsb_with_recovery(seed: int, root, op_count: int = 1000):
    """The acceptance workload: YCSB-A, a mid-run backup crash, then re-join."""
    plan = FaultPlan(seed=seed).crash("shard0.r1", after_ops=60)
    ops = ycsb_a(op_count, seed=seed)
    half = op_count // 2
    with ClusterClient(
        shards=2, replication=2, backend=BACKEND, timeout=TIMEOUT, faults=plan,
        durability=str(root),
    ) as kvs:
        cluster = kvs.cluster
        model = drive(kvs, ops[:half])
        assert ("shard0", "shard0.r1") in cluster.failovers  # crash landed
        report = cluster.rejoin_backup("shard0", "shard0.r1")
        model = drive(kvs, ops[half:], model)
        scan = kvs.scan()
        health = kvs.health()
        schedules = {
            shard_id: cluster.session(shard_id).engine.transport.faults.schedule()
            for shard_id in kvs.shards
        }
    return model, scan, health, report, schedules


class TestAcceptance:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_crash_restart_rejoin_converges_to_the_fault_free_state(
        self, seed, tmp_path
    ):
        model, scan, health, report, _schedules = run_ycsb_with_recovery(
            seed, tmp_path / "faulty"
        )
        # The fault-free twin: same seed, same op stream, no faults.
        with ClusterClient(shards=2, replication=2, backend=BACKEND) as clean:
            clean_model = drive(clean, ycsb_a(1000, seed=seed))
            clean_scan = clean.scan()
        assert scan == clean_scan  # byte-identical final contents
        assert model == clean_model
        # The healed shard is non-degraded and the replica is up again.
        assert not health["shard0"].degraded
        assert health["shard0"].replicas["shard0.r1"] == "up"
        # The re-join did real recovery work.
        assert report.replayed_records > 0
        assert report.mode in ("delta", "full")

    def test_identical_seed_reproduces_the_identical_recovery(self, tmp_path):
        seed = CHAOS_SEEDS[0]
        first = run_ycsb_with_recovery(seed, tmp_path / "a", op_count=300)
        second = run_ycsb_with_recovery(seed, tmp_path / "b", op_count=300)
        assert first[1] == second[1]  # final contents
        assert first[4] == second[4]  # fault schedules, restart events included
        assert first[3].mode == second[3].mode

    def test_recovered_state_survives_a_full_cluster_restart(self, tmp_path):
        seed = CHAOS_SEEDS[0]
        model, scan, _health, _report, _schedules = run_ycsb_with_recovery(
            seed, tmp_path, op_count=300
        )
        with ClusterClient(
            shards=2, replication=2, backend=BACKEND, durability=str(tmp_path)
        ) as reopened:
            assert reopened.scan() == scan == sorted(model.items())
