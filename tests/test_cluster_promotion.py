"""Chaos suite, part 4: primary failover — promotion, fencing, and re-join.

The failover suite (part 2) proved a dead *backup* is demoted and routed
around; this suite proves a dead *primary* is survivable.  The promises
under test:

* when the blame chain sinks at the shard's head, the **senior surviving
  backup** (first in census order — authoritative by ack-before-apply) is
  promoted: the shard epoch is bumped, stamped into every surviving durable
  replica's WAL, and the data plane re-binds around the new head;
* every binding made under the old epoch is **fenced**: it fails with the
  typed :class:`~repro.protocols.kvs.StaleEpoch` at every location before a
  single message moves, so a deposed head can never serve (no split brain)
  — and the cluster layer treats the fence as replayable, re-dispatching
  the submit against the current-epoch binding;
* the promotion lands in the ``promotions`` audit trail as a
  :class:`~repro.cluster.PromotionReport` (plus the usual ``failovers``
  entry), and ``health()`` reports the new head, the epoch, and per-replica
  roles;
* cascading crashes degrade shard by shard down to an unreplicated head;
  only the death of the *last* replica still fails loudly;
* the deposed primary **re-joins as a backup** through the ordinary
  :meth:`~repro.cluster.ClusterEngine.rejoin_backup` path, catching up from
  its usurper;
* with durability on, a full cluster restart recovers the *promoted* head
  from the WAL promotion records — not census-order ``r0``;
* the acceptance bar: a 1k-op YCSB-A run with a mid-workload **primary**
  crash loses no acknowledged write and converges byte-identically with
  the fault-free same-seed run;
* every single put/get/delete a test issues, folded and pipelined included,
  forms a linearizable history per key (``tests/linearizability.py``,
  autouse).

Timeout-blame attribution is deliberately conservative but not clairvoyant:
under heavy pipelining a live-but-lagging new head can be *falsely*
suspected and deposed in turn.  That is safe — epoch fencing keeps every
stale binding from serving, the false suspect can re-join — so the
pipelined tests here assert safety (typed errors, no lost acked writes, no
hangs), not that every future succeeds.
"""

from __future__ import annotations

import pytest

from repro import ChoreoEngine, ClusterClient, ClusterEngine, FaultPlan
from repro.core.errors import ChoreographyError, ChoreographyRuntimeError
from repro.protocols.kvs import Request, ResponseKind, ShardEpoch, StaleEpoch, fenced
from tests.linearizability import (
    linearizable_history,  # noqa: F401 - autouse: checks every test here
    mixed_ops,
    pipelined,
)
from tests.test_cluster_failover import BACKEND, CHAOS_SEEDS, TIMEOUT, drive, ycsb_a


def durable_cluster(root, **overrides):
    options = dict(
        shards=1, replication=2, backend=BACKEND, timeout=TIMEOUT,
        durability=str(root),
    )
    options.update(overrides)
    return ClusterEngine(**options)


def drive_until_promoted(kvs, *, ops=60, prefix="k"):
    """Serial blocking puts until the planned primary crash is failed over."""
    model = {}
    for index in range(ops):
        key, value = f"{prefix}{index % 8}", f"v{index}"
        kvs.put(key, value)
        model[key] = value
        if kvs.cluster.promotions:
            return model
    raise AssertionError("planned primary crash was never detected")


# -------------------------------------------------------------- fence semantics --


class TestEpochFence:
    def test_fence_cell_is_monotone_and_typed(self):
        fence = ShardEpoch(0)
        fence.advance(2)
        fence.advance(1)  # promotions only ever raise the epoch
        assert fence.value == 2
        fence.require(2)  # current binding passes
        fence.require(None)  # an unfenced binding always passes
        with pytest.raises(StaleEpoch) as failure:
            fence.require(1)
        assert failure.value.bound_epoch == 1
        assert failure.value.current_epoch == 2
        assert isinstance(failure.value, ChoreographyError)
        assert "stale shard epoch" in str(failure.value)

    def test_fenced_combinator_on_a_plain_choreography(self):
        def hello(op, word):
            greeting = op.locally("alice", lambda _un: word)
            return op.comm("alice", "bob", greeting)

        fence = ShardEpoch(3)
        bound = fenced(hello, fence)  # captures epoch 3
        with ChoreoEngine(["alice", "bob"], backend=BACKEND) as engine:
            assert engine.run(bound, args=("hi",)).value_at("bob") == "hi"
            fence.advance(4)
            sent = engine.stats.total_messages
            with pytest.raises(ChoreographyRuntimeError) as failure:
                engine.run(bound, args=("hi",))
            roots = failure.value.failures
            assert set(roots) == {"alice", "bob"}  # every location, not just one
            assert all(isinstance(exc, StaleEpoch) for exc in roots.values())
            assert engine.stats.total_messages == sent
            # A binding made now captures the new epoch and runs.
            assert engine.run(fenced(hello, fence), args=("yo",)).value_at("bob") == "yo"

    @pytest.mark.parametrize("binding, args", [
        ("put", ("k", "v")),
        ("get", ("k",)),
        ("delete", ("k",)),
        ("scan", ("",)),
        ("serve", ([Request.put("k", "v"), Request.get("k")],)),
        ("read", ([Request.get("k")],)),
        ("txn", ([], ("t1", {"k": "v"}, {}))),
        ("txn", ([("t1", "commit", {"k": "v"})], None)),
    ])
    def test_stale_binding_is_fenced_at_every_location(self, binding, args):
        # White-box: force a promotion with no crash at all, then run a
        # binding captured under the old epoch.  Every participant must raise
        # StaleEpoch — deterministically, before any message moves.
        with ClusterEngine(shards=1, replication=2, backend=BACKEND) as cluster:
            session = cluster.session("shard0")
            stale, census = session.bindings[binding]  # bound under epoch 0
            assert cluster._mark_primary_down("shard0", "shard0.r0")
            assert session.epoch == 1
            with pytest.raises(AttributeError):
                session.epoch = 7  # read-only: the fence cell is the epoch
            sent = cluster.stats.total_messages
            with pytest.raises(ChoreographyRuntimeError) as failure:
                session.engine.run(stale, args=args, census=census)
            roots = failure.value.failures
            assert set(roots) == set(census)
            assert all(isinstance(exc, StaleEpoch) for exc in roots.values())
            assert cluster.stats.total_messages == sent
            # The current-epoch binding (via the engine) still serves: the
            # replay path picks it up and the op lands on the new head.
            result = cluster.submit_put("k", "v").result(timeout=30.0)
            assert result.kind is ResponseKind.NOT_FOUND
            head = session.state.facet_for("shard0.r1")
            assert head["k"] == "v"

    def test_forced_promotion_is_idempotent(self):
        with ClusterEngine(shards=1, replication=3, backend=BACKEND) as cluster:
            assert cluster._mark_primary_down("shard0", "shard0.r0")
            # A racing settle calling in with the already-deposed head must
            # replay without promoting a second time.
            assert cluster._mark_primary_down("shard0", "shard0.r0")
            assert len(cluster.promotions) == 1
            assert cluster.promotions[0].survivors == ("shard0.r1", "shard0.r2")
            # ...and a stale suspicion of a non-primary does not promote.
            assert not cluster._mark_primary_down("shard0", "shard0.r2")
            assert cluster.session("shard0").epoch == 1


# ------------------------------------------------------------- promotion basics --


class TestPromotion:
    def test_traffic_detects_and_promotes_the_senior_backup(self):
        plan = FaultPlan(seed=7).crash("shard0.r0", after_ops=12)
        with ClusterClient(
            shards=1, replication=3, backend=BACKEND, timeout=TIMEOUT, faults=plan
        ) as kvs:
            model = drive_until_promoted(kvs)
            cluster = kvs.cluster
            promotion = cluster.promotions[0]
            assert promotion.shard_id == "shard0"
            assert promotion.old_primary == "shard0.r0"
            assert promotion.new_primary == "shard0.r1"  # senior in census order
            assert promotion.epoch == 1
            assert promotion.survivors == ("shard0.r1", "shard0.r2")
            assert promotion.promote_seconds >= 0
            assert ("shard0", "shard0.r0") in cluster.failovers
            health = kvs.health()["shard0"]
            assert health.primary == "shard0.r1"
            assert health.epoch == 1
            assert health.replicas["shard0.r0"] == "down"
            assert health.roles == {
                "shard0.r0": "backup",
                "shard0.r1": "primary",
                "shard0.r2": "backup",
            }
            # The shard keeps serving writes and reads on the new head.
            for index in range(10):
                key, value = f"post{index}", f"pv{index}"
                kvs.put(key, value)
                model[key] = value
            assert kvs.scan() == sorted(model.items())
            # An active probe exercises the new head and stays idempotent.
            report = cluster.probe("shard0")
            assert report["shard0"]["shard0.r1"] is True
            assert report["shard0"]["shard0.r0"] is False
            assert len(cluster.promotions) == 1

    def test_writes_replicate_to_the_survivors_after_promotion(self):
        plan = FaultPlan(seed=7).crash("shard0.r0", after_ops=12)
        with ClusterClient(
            shards=1, replication=3, backend=BACKEND, timeout=TIMEOUT, faults=plan
        ) as kvs:
            model = drive_until_promoted(kvs)
            for index in range(8):
                key, value = f"rep{index}", f"rv{index}"
                kvs.put(key, value)
                model[key] = value
            session = kvs.cluster.session("shard0")
            head = dict(session.state.facet_for("shard0.r1"))
            backup = dict(session.state.facet_for("shard0.r2"))
            assert head == model  # the promoted head holds everything acked
            for key in (f"rep{i}" for i in range(8)):
                assert backup[key] == model[key]  # new writes replicate again
            # Quorum reads vote over the post-promotion replica group.
            for index in range(8):
                assert kvs.get(f"rep{index}", quorum=True) == f"rv{index}"

    def test_cascading_crashes_degrade_to_an_unreplicated_head(self):
        plan = (
            FaultPlan(seed=7)
            .crash("shard0.r0", after_ops=0)
            .crash("shard0.r1", after_ops=20)
            .crash("shard0.r2", after_ops=80)
        )
        with ClusterClient(
            shards=1, replication=3, backend=BACKEND, timeout=TIMEOUT, faults=plan
        ) as kvs:
            cluster = kvs.cluster
            failure = None
            model = {}
            for index in range(200):
                key, value = f"k{index % 8}", f"v{index}"
                try:
                    kvs.put(key, value)
                    model[key] = value
                except ChoreographyRuntimeError as exc:
                    failure = exc
                    break
            # Two promotions rode out two head crashes...
            assert [p.new_primary for p in cluster.promotions] == [
                "shard0.r1",
                "shard0.r2",
            ]
            assert [p.epoch for p in cluster.promotions] == [1, 2]
            assert cluster.promotions[1].survivors == ("shard0.r2",)
            # ...but the last replica's death fails loudly: no successor, no
            # masking, and no third promotion.
            assert failure is not None
            health = kvs.health()["shard0"]
            assert health.primary == "shard0.r2"
            assert health.epoch == 2
            assert set(health.down) == {"shard0.r0", "shard0.r1"}
            assert len(cluster.promotions) == 2

    def test_replication_one_primary_crash_still_fails_loudly(self):
        plan = FaultPlan(seed=7).crash("shard0.r0", after_ops=0)
        with ClusterClient(
            shards=1, replication=1, backend=BACKEND, timeout=TIMEOUT, faults=plan
        ) as kvs:
            with pytest.raises(ChoreographyRuntimeError):
                kvs.put("k", "v")
            assert kvs.cluster.promotions == []
            assert kvs.cluster.failovers == []


# ---------------------------------------------------------------- races & close --


class TestPromotionRaces:
    def test_pipelined_submits_across_a_promotion_stay_safe(self):
        plan = FaultPlan(seed=7).crash("shard0.r0", after_ops=8)
        with ClusterEngine(
            shards=1, replication=3, backend=BACKEND, timeout=TIMEOUT, faults=plan
        ) as cluster:
            futures = [
                cluster.submit_put(f"key{i}", f"value{i}") for i in range(10)
            ]
            acked = {}
            for index, future in enumerate(futures):
                try:
                    result = future.result(timeout=30.0)  # bounded: never hangs
                except ChoreographyRuntimeError:
                    continue  # surfaced typed after the bounded replay budget
                assert result.kind in (
                    ResponseKind.FOUND,
                    ResponseKind.NOT_FOUND,
                )
                acked[f"key{index}"] = f"value{index}"
            assert cluster.promotions  # the crash landed mid-pipeline
            session = cluster.session("shard0")
            head = session.state.facet_for(session.primary)
            for key, value in acked.items():
                assert head[key] == value  # zero lost acked writes
            # The shard still serves after the storm settles.
            result = cluster.submit_put("settled", "yes").result(timeout=30.0)
            assert result.kind is ResponseKind.NOT_FOUND
            assert head["settled"] == "yes"

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_pipelined_folds_across_a_promotion_stay_linearizable(self, seed):
        """A fold that dies with the old head replays whole on the new one;
        the requests queued behind it wait, so none overtakes it."""
        plan = FaultPlan(seed=seed).crash("shard0.r0", after_ops=40)
        with ClusterEngine(
            shards=1, replication=3, backend=BACKEND, timeout=TIMEOUT, faults=plan
        ) as cluster:
            futures = pipelined(cluster, mixed_ops(seed, count=300, keys=3))
            assert [p.new_primary for p in cluster.promotions][:1] == ["shard0.r1"]
            assert sum(future.exception() is None for future in futures) > 250
            assert cluster.stats.total_messages < 3 * len(futures)  # folds ran

    def test_promotion_racing_a_rejoin_fences_the_catchup(self, tmp_path):
        plan = FaultPlan(seed=11).crash("shard0.r1", after_ops=20)
        with durable_cluster(tmp_path, replication=3, faults=plan) as cluster:
            kvs = ClusterClient(cluster)
            model = {}
            for index in range(40):
                key, value = f"k{index % 8}", f"v{index}"
                kvs.put(key, value)
                model[key] = value
                if cluster.failovers:
                    break
            assert cluster.health()["shard0"].replicas["shard0.r1"] == "down"
            session = cluster.session("shard0")
            real_run = session.engine.run

            def run_with_racing_promotion(*args, **kwargs):
                # The race: a promotion lands between the catch-up's bind
                # and its run, so the rejoin's binding is now a stale-epoch
                # zombie.  The fence must fail it before any state moves.
                session.engine.run = real_run
                assert cluster._mark_primary_down("shard0", session.primary)
                return real_run(*args, **kwargs)

            session.engine.run = run_with_racing_promotion
            with pytest.raises(ChoreographyRuntimeError) as failure:
                cluster.rejoin_backup("shard0", "shard0.r1")
            assert any(
                isinstance(exc, StaleEpoch)
                for exc in failure.value.failures.values()
            )
            # The failed rejoin put the replica back to down; the promoted
            # head serves on.
            health = cluster.health()["shard0"]
            assert health.replicas["shard0.r1"] == "down"
            assert health.primary == "shard0.r2"
            assert health.epoch == 1
            assert cluster.rejoins == []
            kvs.put("after", "race")
            assert kvs.get("after") == "race"

    def test_close_during_a_promotion_storm_never_hangs(self):
        plan = FaultPlan(seed=7).crash("shard0.r0", after_ops=6)
        cluster = ClusterEngine(
            shards=1, replication=2, backend=BACKEND, timeout=TIMEOUT, faults=plan
        )
        futures = [cluster.submit_put(f"k{i}", f"v{i}") for i in range(8)]
        cluster.close()  # races the crash detection + replay machinery
        for future in futures:
            try:
                future.result(timeout=30.0)  # resolves either way, bounded
            except Exception:  # noqa: BLE001 - typed failure is acceptable
                pass
        from repro.cluster import ClusterClosed

        with pytest.raises(ClusterClosed):
            cluster.submit_put("late", "x")


# ----------------------------------------------------------------------- rejoin --


class TestDeposedPrimaryRejoin:
    def test_old_primary_rejoins_as_a_backup(self, tmp_path):
        plan = FaultPlan(seed=11).crash("shard0.r0", after_ops=14)
        with durable_cluster(tmp_path, faults=plan) as cluster:
            kvs = ClusterClient(cluster)
            model = drive_until_promoted(kvs)
            assert cluster.health()["shard0"].primary == "shard0.r1"
            # Diverge the survivor past the deposed head's last ack.
            for index in range(10):
                key, value = f"post{index}", f"pv{index}"
                kvs.put(key, value)
                model[key] = value

            report = cluster.rejoin_backup("shard0", "shard0.r0")
            assert report.replica == "shard0.r0"
            assert report.mode in ("delta", "full")

            health = cluster.health()["shard0"]
            assert not health.degraded
            assert health.primary == "shard0.r1"  # the usurper keeps the head
            assert health.roles["shard0.r0"] == "backup"  # deposed, re-admitted
            assert health.replicas["shard0.r0"] == "up"

            # The re-admitted backup replicates new writes again.
            for index in range(6):
                key, value = f"heal{index}", f"hv{index}"
                kvs.put(key, value)
                model[key] = value
            session = cluster.session("shard0")
            assert dict(session.state.facet_for("shard0.r1")) == model
            assert dict(session.state.facet_for("shard0.r0")) == model
            assert kvs.scan() == sorted(model.items())

    def test_epoch_survives_a_full_cluster_restart(self, tmp_path):
        plan = FaultPlan(seed=11).crash("shard0.r0", after_ops=14)
        with durable_cluster(tmp_path, faults=plan) as cluster:
            kvs = ClusterClient(cluster)
            model = drive_until_promoted(kvs)
            for index in range(6):
                key, value = f"post{index}", f"pv{index}"
                kvs.put(key, value)
                model[key] = value
            assert cluster.health()["shard0"].epoch == 1

        # A cold restart must elect the *promoted* head from the WAL
        # promotion records — not census-order r0, whose store is stale.
        with durable_cluster(tmp_path) as reopened:
            health = reopened.health()["shard0"]
            assert health.primary == "shard0.r1"
            assert health.epoch == 1
            assert health.roles["shard0.r1"] == "primary"
            kvs = ClusterClient(reopened)
            assert kvs.scan() == sorted(model.items())
            kvs.put("reborn", "yes")
            assert kvs.get("reborn") == "yes"

    def test_rejoined_old_primary_recovers_the_epoch_after_restart(self, tmp_path):
        # Full transfers install items only; the rejoin path must stamp the
        # rejoiner's WAL with the current epoch so that a later cold restart
        # still elects the promoted head even from the deposed store.
        plan = FaultPlan(seed=11).crash("shard0.r0", after_ops=14)
        with durable_cluster(tmp_path, faults=plan) as cluster:
            kvs = ClusterClient(cluster)
            model = drive_until_promoted(kvs)
            cluster.rejoin_backup("shard0", "shard0.r0")
            kvs.put("sealed", "s")
            model["sealed"] = "s"
        with durable_cluster(tmp_path) as reopened:
            health = reopened.health()["shard0"]
            assert health.primary == "shard0.r1"
            assert health.epoch == 1
            assert ClusterClient(reopened).scan() == sorted(model.items())


# ------------------------------------------------------------------- acceptance --


def run_ycsb_with_primary_crash(seed: int, op_count: int = 1000):
    """The acceptance workload: YCSB-A with the primary crashing mid-run."""
    plan = FaultPlan(seed=seed).crash("shard0.r0", after_ops=60)
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
        promotions = [
            (p.shard_id, p.old_primary, p.new_primary, p.epoch)
            for p in kvs.cluster.promotions
        ]
        failovers = list(kvs.cluster.failovers)
    return model, scan, health, schedules, promotions, failovers


class TestAcceptance:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_ycsb_a_with_primary_crash_loses_nothing(self, seed):
        model, scan, health, schedules, promotions, failovers = (
            run_ycsb_with_primary_crash(seed)
        )
        # drive() asserted read-your-writes after every op; the final scan
        # must hold exactly the acked writes.
        assert scan == sorted(model.items())
        assert ("shard0", "shard0.r0") in failovers
        assert ("shard0", "shard0.r0", "shard0.r1", 1) in promotions
        assert health["shard0"].primary == "shard0.r1"
        assert health["shard0"].epoch >= 1
        assert health["shard0"].replicas["shard0.r0"] == "down"
        # The untouched shard never failed over.
        assert health["shard1"].epoch == 0
        assert any(
            event[2] == "crash" for shard in schedules.values() for event in shard
        )

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_faulty_run_converges_with_the_fault_free_twin(self, seed):
        _model, scan, _health, _schedules, promotions, _failovers = (
            run_ycsb_with_primary_crash(seed)
        )
        assert promotions  # the failover actually happened
        with ClusterClient(shards=2, replication=2, backend=BACKEND) as clean:
            drive(clean, ycsb_a(1000, seed=seed))
            clean_scan = clean.scan()
        assert scan == clean_scan  # byte-identical final contents

    def test_identical_seed_reproduces_the_identical_failover(self):
        seed = CHAOS_SEEDS[0]
        first = run_ycsb_with_primary_crash(seed, op_count=200)
        second = run_ycsb_with_primary_crash(seed, op_count=200)
        assert first[3] == second[3]  # injected schedules, per shard
        assert first[1] == second[1]  # final contents
        assert first[4] == second[4]  # promotion audit trail
        assert first[5] == second[5]  # failover audit trail
