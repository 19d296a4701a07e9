"""Chaos suite, part 2: cluster failover under injected faults.

The promise under test: with a seeded :class:`FaultPlan` killing replicas and
shaking the network, every workload against the sharded KVS either completes
with **correct final contents** or fails with a **diagnosable, typed error**
— and never hangs.  Concretely:

* a dead *backup* is detected (via the crash report or the chain of
  :class:`ChoreoTimeout` blames), demoted, and routed around through the
  zero-backup degradation path; in-flight submits are replayed and resolve;
* ``cluster.health()`` reports the degraded replica, ``probe()`` detects it
  actively through :func:`~repro.protocols.kvs.kvs_ping`;
* a dead *primary* is failed over: the senior surviving backup is promoted
  under a bumped, fenced shard epoch, in-flight submits are replayed, and
  the promotion lands in the ``promotions`` audit trail (only a shard whose
  *last* replica dies still fails loudly — see
  ``tests/test_cluster_promotion.py`` for the full promotion suite);
* the whole thing is reproducible: the same seed yields the same injected
  schedule on the simulated backend, twice in a row;
* what clients saw is linearizable: every single put/get/delete a test
  issues is recorded, and each key's history must pass the Wing–Gong check
  of ``tests/linearizability.py`` (autouse), folded and pipelined included.

Timeouts here are deliberately short (a fraction of a second): a failover
test pays one receive timeout per detection, and the suite must stay cheap
enough to ride in tier-1.  ``CHAOS_SEED`` widens the seed sweep in CI.
"""

from __future__ import annotations

import os
import random
import time

import pytest

from repro import ClusterClient, ClusterEngine, FaultPlan
from repro.core.errors import ChoreographyRuntimeError, ChoreoTimeout
from repro.protocols.kvs import Request, ResponseKind
from tests.linearizability import (
    linearizable_history,  # noqa: F401 - autouse: checks every test here
    mixed_ops,
    pipelined,
)

CHAOS_SEEDS = [int(raw) for raw in os.environ.get("CHAOS_SEED", "7").split(",")]

#: Backends the failover suite sweeps.  ``simulated`` is the deterministic
#: workhorse; ``tcp`` gets a smoke pass in its own test below.
BACKEND = "simulated"

#: Short receive timeout: detection latency is one timeout in the worst case.
TIMEOUT = 0.3


def ycsb_a(op_count: int, *, seed: int, keys: int = 64):
    """A YCSB-A-shaped op stream: 50/50 read/update over a zipfish keyset."""
    rng = random.Random(seed)
    ranks = list(range(keys))
    weights = [1.0 / (rank + 1) ** 0.99 for rank in ranks]  # zipfian-ish skew
    ops = []
    for index in range(op_count):
        key = f"user:{rng.choices(ranks, weights)[0]:04d}"
        if rng.random() < 0.5:
            ops.append(("put", key, f"v{index}"))
        else:
            ops.append(("get", key))
    return ops


def drive(client: ClusterClient, ops, model: "dict | None" = None) -> dict:
    """Run an op stream through the blocking client, tracking a model dict.

    Pass ``model`` to resume a run mid-stream (the recovery suite pauses a
    workload to re-join a replica, then drives the second half).
    """
    if model is None:
        model = {}
    for op in ops:
        if op[0] == "put":
            _kind, key, value = op
            client.put(key, value)
            model[key] = value
        else:
            _kind, key = op
            assert client.get(key) == model.get(key), f"stale read at {key}"
    return model


# --------------------------------------------------------------- health & ping --


class TestHealthAndProbe:
    def test_health_starts_all_up(self):
        with ClusterEngine(shards=2, replication=2, backend=BACKEND) as cluster:
            health = cluster.health()
            assert set(health) == {"shard0", "shard1"}
            for shard in health.values():
                assert not shard.degraded
                assert shard.down == ()
                assert set(shard.replicas.values()) == {"up"}

    def test_probe_reports_live_replicas(self):
        with ClusterEngine(shards=1, replication=3, backend=BACKEND) as cluster:
            report = cluster.probe()
            assert report == {
                "shard0": {"shard0.r0": True, "shard0.r1": True, "shard0.r2": True}
            }
            assert not cluster.health()["shard0"].degraded

    def test_probe_detects_and_demotes_a_crashed_backup(self):
        plan = FaultPlan(seed=3).crash("shard0.r1", after_ops=0)
        with ClusterEngine(
            shards=1, replication=3, backend=BACKEND, timeout=TIMEOUT, faults=plan
        ) as cluster:
            report = cluster.probe("shard0")
            assert report["shard0"]["shard0.r1"] is False
            assert report["shard0"]["shard0.r0"] is True
            health = cluster.health()["shard0"]
            assert health.degraded
            assert health.down == ("shard0.r1",)
            assert health.replicas["shard0.r1"] == "down"
            # Detection is sticky and probe stays idempotent.
            assert cluster.probe("shard0")["shard0"]["shard0.r1"] is False
            assert cluster.failovers == [("shard0", "shard0.r1")]

    def test_probe_does_not_demote_on_client_side_failures(self):
        # The client's link to r1 is broken, but r1 itself is healthy: the
        # probe must report it unreachable *without* kicking it out of the
        # replica group — the blame chain sinks at the client, not at r1.
        plan = FaultPlan(seed=3).flaky_connect(
            "client", "shard0.r1", failures=10, max_retries=0
        )
        with ClusterEngine(
            shards=1, replication=2, backend=BACKEND, timeout=TIMEOUT, faults=plan
        ) as cluster:
            report = cluster.probe("shard0")
            assert report["shard0"]["shard0.r1"] is False  # honest: unreachable
            assert not cluster.health()["shard0"].degraded  # but not demoted
            assert cluster.failovers == []

    def test_probe_promotes_past_a_crashed_primary(self):
        plan = FaultPlan(seed=3).crash("shard0.r0", after_ops=0)
        with ClusterEngine(
            shards=1, replication=2, backend=BACKEND, timeout=TIMEOUT, faults=plan
        ) as cluster:
            report = cluster.probe("shard0")
            assert report["shard0"]["shard0.r0"] is False
            health = cluster.health()["shard0"]
            assert health.replicas["shard0.r0"] == "down"
            assert health.primary == "shard0.r1"  # the senior surviving backup
            assert health.epoch == 1
            assert health.roles["shard0.r1"] == "primary"
            assert cluster.failovers == [("shard0", "shard0.r0")]
            assert [p.new_primary for p in cluster.promotions] == ["shard0.r1"]


# -------------------------------------------------------------------- failover --


class TestBackupFailover:
    def test_puts_survive_a_backup_crash(self):
        plan = FaultPlan(seed=7).crash("shard0.r1", after_ops=10)
        with ClusterClient(
            shards=1, replication=2, backend=BACKEND, timeout=TIMEOUT, faults=plan
        ) as kvs:
            model = {}
            for index in range(20):
                key, value = f"k{index % 6}", f"v{index}"
                kvs.put(key, value)
                model[key] = value
            assert kvs.scan() == sorted(model.items())
            assert kvs.health()["shard0"].down == ("shard0.r1",)
            assert kvs.cluster.failovers == [("shard0", "shard0.r1")]

    def test_gets_survive_a_backup_crash(self):
        # r1 completes the put's two operations (receive the request, send
        # its ack) and is dead from then on.  A get is a client↔primary
        # round, so reads neither wait on the dead backup nor detect it;
        # detection moves to the next write (or probe()).
        plan = FaultPlan(seed=7).crash("shard0.r1", after_ops=2)
        with ClusterClient(
            shards=1, replication=2, backend=BACKEND, timeout=TIMEOUT, faults=plan
        ) as kvs:
            kvs.put("stable", "value")
            for _ in range(12):
                started = time.perf_counter()
                assert kvs.get("stable") == "value"
                assert time.perf_counter() - started < TIMEOUT
            assert kvs.cluster.failovers == []
            assert kvs.put("stable", "next") == "value"
            assert kvs.cluster.failovers == [("shard0", "shard0.r1")]
            assert kvs.health()["shard0"].degraded
            assert kvs.get("stable") == "next"

    def test_degraded_shard_stops_talking_to_the_dead_backup(self):
        plan = FaultPlan(seed=7).crash("shard0.r1", after_ops=6)
        with ClusterClient(
            shards=1, replication=2, backend=BACKEND, timeout=TIMEOUT, faults=plan
        ) as kvs:
            for index in range(8):
                kvs.put(f"k{index}", "x")
            stats = kvs.cluster.per_shard_stats()["shard0"]
            to_dead_before = stats.snapshot().get(("shard0.r0", "shard0.r1"), 0)
            for index in range(8):
                kvs.put(f"post{index}", "y")
            to_dead_after = stats.snapshot().get(("shard0.r0", "shard0.r1"), 0)
            assert to_dead_after == to_dead_before  # degraded binding skips it

    def test_inflight_pipelined_submits_are_replayed(self):
        # The first put goes out alone (r1: receive, ack) and the other four
        # fold behind it into one serve instance, which meets the dead r1.
        plan = FaultPlan(seed=7).crash("shard0.r1", after_ops=2)
        with ClusterEngine(
            shards=1, replication=2, backend=BACKEND, timeout=TIMEOUT, faults=plan
        ) as cluster:
            futures = [cluster.submit_put(f"key{i}", f"value{i}") for i in range(5)]
            for index, future in enumerate(futures):
                response = future.result(timeout=30.0)
                assert response.kind in (ResponseKind.FOUND, ResponseKind.NOT_FOUND)
            primary_state = cluster.session("shard0").state.facet_for("shard0.r0")
            assert {f"key{i}": f"value{i}" for i in range(5)} == dict(primary_state)
            assert cluster.health()["shard0"].degraded

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_pipelined_folds_across_a_backup_crash_stay_linearizable(self, seed):
        """Single requests pipelined eight deep fold into shared instances;
        a fold that meets the dead backup replays whole, and the requests
        queued behind it wait for the replay (the history check proves it)."""
        plan = FaultPlan(seed=seed).crash("shard0.r1", after_ops=40)
        with ClusterEngine(
            shards=1, replication=2, backend=BACKEND, timeout=TIMEOUT, faults=plan
        ) as cluster:
            futures = pipelined(cluster, mixed_ops(seed, count=300, keys=3))
            assert all(future.exception() is None for future in futures)
            assert cluster.failovers == [("shard0", "shard0.r1")]
            assert cluster.stats.total_messages < 2 * len(futures)  # folds ran

    def test_quorum_reads_work_on_the_degraded_shard(self):
        plan = FaultPlan(seed=7).crash("shard0.r1", after_ops=8)
        with ClusterClient(
            shards=1, replication=3, backend=BACKEND, timeout=TIMEOUT, faults=plan
        ) as kvs:
            for index in range(6):
                kvs.put(f"q{index}", f"v{index}")
            assert kvs.health()["shard0"].down == ("shard0.r1",)
            # Quorum now votes over primary + the surviving backup only.
            for index in range(6):
                assert kvs.get(f"q{index}", quorum=True) == f"v{index}"

    def test_batches_survive_a_backup_crash(self):
        plan = FaultPlan(seed=7).crash("shard0.r1", after_ops=5)
        with ClusterClient(
            shards=2, replication=2, backend=BACKEND, timeout=TIMEOUT, faults=plan
        ) as kvs:
            requests = []
            for index in range(30):
                requests.append(Request.put(f"b{index}", f"v{index}"))
                requests.append(Request.get(f"b{index}"))
            responses = kvs.batch(requests)
            assert len(responses) == 60
            for index in range(30):
                assert responses[2 * index + 1].value == f"v{index}"

    def test_replication_three_degrades_twice(self):
        plan = (
            FaultPlan(seed=7)
            .crash("shard0.r1", after_ops=6)
            .crash("shard0.r2", after_ops=30)
        )
        with ClusterClient(
            shards=1, replication=3, backend=BACKEND, timeout=TIMEOUT, faults=plan
        ) as kvs:
            model = {}
            for index in range(25):
                key, value = f"k{index % 7}", f"v{index}"
                kvs.put(key, value)
                model[key] = value
            assert kvs.scan() == sorted(model.items())
            health = kvs.health()["shard0"]
            assert set(health.down) == {"shard0.r1", "shard0.r2"}
            assert health.replicas["shard0.r0"] == "up"

    def test_primary_crash_fails_over_and_spares_other_shards(self):
        plan = FaultPlan(seed=7).crash("shard1.r0", after_ops=0)
        with ClusterClient(
            shards=2, replication=2, backend=BACKEND, timeout=TIMEOUT, faults=plan,
            retries=0,
        ) as kvs:
            doomed = healthy = None
            for index in range(40):
                shard = kvs.cluster.shard_for(f"probe{index}")
                if shard == "shard1" and doomed is None:
                    doomed = f"probe{index}"
                if shard == "shard0" and healthy is None:
                    healthy = f"probe{index}"
            # The put pays the detection timeout, then the surviving backup
            # is promoted and the submit is replayed against the new head.
            kvs.put(doomed, "x")
            assert kvs.get(doomed) == "x"
            assert ("shard1", "shard1.r0") in kvs.cluster.failovers
            promotion = kvs.cluster.promotions[0]
            assert promotion.shard_id == "shard1"
            assert promotion.old_primary == "shard1.r0"
            assert promotion.new_primary == "shard1.r1"
            assert promotion.epoch == 1
            # The other shard is untouched.
            kvs.put(healthy, "ok")
            assert kvs.get(healthy) == "ok"
            health = kvs.health()
            assert health["shard1"].primary == "shard1.r1"
            assert health["shard0"].primary == "shard0.r0"
            assert health["shard0"].epoch == 0

    def test_client_retries_transient_reads(self):
        # The first two client→primary sends fail outright (no internal
        # retry budget): without client-side retry the get would surface a
        # TransportError; with retries=2 the third attempt lands.
        plan = FaultPlan(seed=7).flaky_connect(
            "client", "shard0.r0", failures=2, max_retries=0
        )
        with ClusterClient(
            shards=1, replication=2, backend=BACKEND, timeout=TIMEOUT, faults=plan,
            retries=2,
        ) as kvs:
            assert kvs.get("missing") is None
            assert kvs.scan() == []

    def test_client_retry_budget_zero_surfaces_the_failure(self):
        plan = FaultPlan(seed=7).flaky_connect(
            "client", "shard0.r0", failures=2, max_retries=0
        )
        with ClusterClient(
            shards=1, replication=2, backend=BACKEND, timeout=TIMEOUT, faults=plan,
            retries=0,
        ) as kvs:
            with pytest.raises(ChoreographyRuntimeError):
                kvs.get("missing")

    def test_client_rejects_negative_retries(self):
        with pytest.raises(ValueError, match="retries"):
            ClusterClient(retries=-1, shards=1, replication=1)


# ------------------------------------------------------------------ acceptance --


def run_ycsb_with_crash(seed: int, op_count: int = 1000):
    """The acceptance workload: YCSB-A with one backup crashing mid-run."""
    plan = FaultPlan(seed=seed).crash("shard0.r1", after_ops=60)
    with ClusterClient(
        shards=2, replication=2, backend=BACKEND, timeout=TIMEOUT, faults=plan
    ) as kvs:
        model = drive(kvs, ycsb_a(op_count, seed=seed))
        scan = kvs.scan()
        health = kvs.health()
        schedules = {
            shard_id: kvs.cluster.session(shard_id).engine.transport.faults.schedule()
            for shard_id in kvs.shards
        }
        failovers = list(kvs.cluster.failovers)
    return model, scan, health, schedules, failovers


class TestAcceptance:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_ycsb_a_with_backup_crash_stays_correct_and_reports_degraded(self, seed):
        model, scan, health, schedules, failovers = run_ycsb_with_crash(seed)
        assert scan == sorted(model.items())
        assert health["shard0"].degraded
        assert health["shard0"].replicas["shard0.r1"] == "down"
        assert ("shard0", "shard0.r1") in failovers
        assert any(
            event[2] == "crash" for shard in schedules.values() for event in shard
        )

    def test_identical_seed_reproduces_the_identical_schedule(self):
        seed = CHAOS_SEEDS[0]
        first = run_ycsb_with_crash(seed, op_count=200)
        second = run_ycsb_with_crash(seed, op_count=200)
        assert first[3] == second[3]  # injected schedules, per shard
        assert first[1] == second[1]  # final contents
        assert first[4] == second[4]  # failover audit trail


# ------------------------------------------------------------------ tcp backend --


class TestTCPFailover:
    def test_backup_crash_failover_over_sockets(self):
        plan = FaultPlan(seed=11).delay(jitter=0.002, rate=0.3).crash(
            "shard0.r1", after_ops=8
        )
        with ClusterClient(
            shards=1, replication=2, backend="tcp", timeout=0.5, faults=plan
        ) as kvs:
            model = {}
            for index in range(12):
                key, value = f"k{index % 4}", f"v{index}"
                kvs.put(key, value)
                model[key] = value
            assert kvs.scan() == sorted(model.items())
            assert kvs.health()["shard0"].down == ("shard0.r1",)
