"""Chaos suite, part 5b: 2PC's end record under crash points.

A commit is acknowledged at its commit point: the decision record is
durable, and each participant is *owed* its decide until the next instance
dispatched to that shard carries it.  Every schedule below kills the
coordinator (or a participant) at one point of that lifetime, reopens the
cluster from disk, and asserts three things:

* every acknowledged commit is on every live replica;
* ``in_doubt() == {}``: no intent is left parked;
* no intent is resolved by another transaction's record: every commit
  decide a replica applies carries a write set of the *last* transaction
  decided under its id (compared by id and writes), so a stale intent can
  never be committed by a later transaction that reuses the id.

The crash points: after the commit record is logged, before any carrier;
after a carrier is acknowledged, before the record's logged ``del``; inside
``recover_in_doubt()``'s forward finish; during ``close()`` with decides
owed; on a participant primary while it carries decides (promotion plus
replay); and a restart whose auto ``txn-<n>`` ids would start again at 1
while a stale intent sits on a demoted backup that later rejoins.
"""

from __future__ import annotations

import random

import pytest

import repro.protocols.kvs as kvs_module
from repro import ClusterEngine, FaultPlan
from repro.protocols.kvs import Request
from repro.runtime.engine import ChoreoEngine
from tests.test_cluster_failover import CHAOS_SEEDS
from tests.test_cluster_promotion import durable_cluster
from tests.test_cluster_txn import assert_no_dangling_intents, settle

ACCOUNTS = [f"acct{index:02d}" for index in range(8)]
OPENING = "100"


class Crash(RuntimeError):
    """The coordinator process dies here."""


class Sweep:
    """The ledger one crash schedule checks its reopened cluster against."""

    def __init__(self, monkeypatch, seed: int):
        self.rng = random.Random(seed)
        #: key -> the value every live replica must hold (acknowledged commits).
        self.model = {}
        #: txn id -> the per-shard write sets of the last transaction decided
        #: under it.
        self.latest = {}
        #: Commit decides whose writes are no write set of their id's latest
        #: transaction: an intent resolved by another transaction's record.
        self.stolen = []
        #: Set to make the next decision stop right after its commit record.
        self.die_after_log = False
        #: Set to ``(shard_id, replica)`` to demote a backup before the next
        #: decision, so it keeps that transaction's intent.
        self.demote_first = None
        #: A shard whose ``txn`` submits raise :class:`Crash` while set.
        self.dead_shard = None
        real_decide_phase = ClusterEngine._decide_phase
        real_decide_state = kvs_module.txn_decide_state
        real_submit = ChoreoEngine.submit

        def decide_phase(cluster, txn_id, participants, writes_by_shard, votes,
                         failures, outer):
            self.latest[txn_id] = [dict(writes) for writes in writes_by_shard.values()]
            if self.demote_first is not None:
                assert cluster._mark_backup_down(*self.demote_first)
                self.demote_first = None
            if self.die_after_log:
                self.die_after_log = False
                with cluster._lock:
                    cluster._txn_log[txn_id] = "commit"
                return  # ...and the coordinator dies before anything is owed
            real_decide_phase(cluster, txn_id, participants, writes_by_shard, votes,
                              failures, outer)

        def decide_state(state, txn_id, verdict, writes):
            if verdict == "commit" and dict(writes) not in self.latest.get(txn_id, []):
                self.stolen.append((txn_id, dict(writes)))
            return real_decide_state(state, txn_id, verdict, writes)

        def submit(engine, chor, *args, **kwargs):
            name = getattr(chor, "name", "")
            if self.dead_shard and name.startswith("txn") and name.endswith(
                    "@" + self.dead_shard):
                raise Crash(f"coordinator died sending {name}")
            return real_submit(engine, chor, *args, **kwargs)

        monkeypatch.setattr(ClusterEngine, "_decide_phase", decide_phase)
        monkeypatch.setattr(kvs_module, "txn_decide_state", decide_state)
        monkeypatch.setattr(ChoreoEngine, "submit", submit)

    def open_accounts(self, cluster) -> None:
        for future in cluster.submit_batch([Request.put(a, OPENING) for a in ACCOUNTS]):
            future.result(timeout=30.0)
        self.model.update(dict.fromkeys(ACCOUNTS, OPENING))

    def pair(self, cluster, *, across=None):
        """Two accounts; ``across=True`` on different shards, ``False`` on one."""
        while True:
            src, dst = self.rng.sample(ACCOUNTS, 2)
            split = cluster.shard_for(src) != cluster.shard_for(dst)
            if across is None or split == across:
                return src, dst

    def transfer(self, cluster, src=None, dst=None, *, acked=True):
        """One guarded transfer; a commit that is acknowledged (or whose
        record is logged) joins the model."""
        if src is None:
            src, dst = self.pair(cluster)
        amount = self.rng.randint(1, 9)
        writes = {src: str(int(self.model[src]) - amount),
                  dst: str(int(self.model[dst]) + amount)}
        future = cluster.submit_txn(
            [Request.put(key, value) for key, value in writes.items()],
            expects={src: self.model[src], dst: self.model[dst]},
        )
        if acked:
            assert future.result(timeout=30.0).committed
        self.model.update(writes)
        return src, dst

    def check(self, cluster) -> None:
        """The three promises, on a reopened (or healed) cluster."""
        assert cluster.in_doubt() == {}
        for shard_id, health in cluster.health().items():
            session = cluster.session(shard_id)
            for replica, status in health.replicas.items():
                if status != "up":
                    continue
                facet = session.state.facet_for(replica)
                for key, value in self.model.items():
                    if cluster.shard_for(key) == shard_id:
                        assert facet.get(key) == value, (replica, key)
        assert_no_dangling_intents(cluster)
        assert self.stolen == []


def crash(cluster) -> None:
    """Stop the coordinator as a dying process would: decides it owed in
    memory are lost, nothing more is sent, the stores close as they are."""
    for shard_id in cluster.shards:
        cluster.session(shard_id).owed = []
    cluster.close()


@pytest.fixture(params=CHAOS_SEEDS)
def sweep(request, monkeypatch) -> Sweep:
    return Sweep(monkeypatch, request.param)


def reopen(root, **overrides) -> ClusterEngine:
    return durable_cluster(root, shards=2, **overrides)


class TestCrashPointSweep:
    def test_commit_logged_before_any_carrier(self, sweep, tmp_path):
        cluster = reopen(tmp_path)
        sweep.open_accounts(cluster)
        for _ in range(3):
            sweep.transfer(cluster)
        sweep.transfer(cluster, *sweep.pair(cluster, across=True))
        assert dict(cluster._txn_log)  # acknowledged, and still owed
        crash(cluster)
        with reopen(tmp_path) as reopened:
            sweep.check(reopened)
            assert dict(reopened._txn_log) == {}

    def test_carrier_acknowledged_before_the_logged_del(self, sweep, tmp_path):
        cluster = reopen(tmp_path)
        sweep.open_accounts(cluster)
        cluster._txn_log.pop = lambda *_args: None  # dies before every del
        for _ in range(4):
            sweep.transfer(cluster)
        assert cluster.in_doubt() == {}  # every carrier acknowledged
        on_record = set(cluster._txn_log)
        assert on_record
        crash(cluster)
        with reopen(tmp_path) as reopened:
            sweep.check(reopened)
            # Records no shard is owed leave the log at open, so none can
            # later commit an intent that reuses its id.
            assert dict(reopened._txn_log) == {}
            src, dst = sweep.pair(reopened)
            sweep.transfer(reopened, src, dst)
            sweep.check(reopened)

    def test_crash_inside_the_forward_finish(self, sweep, tmp_path):
        cluster = reopen(tmp_path)
        sweep.open_accounts(cluster)
        sweep.transfer(cluster)
        sweep.die_after_log = True
        src, dst = sweep.pair(cluster, across=True)
        sweep.transfer(cluster, src, dst, acked=False)
        settle(cluster)
        crash(cluster)
        # The restart's recovery finishes shard0 forward and dies at shard1.
        sweep.dead_shard = "shard1"
        with pytest.raises(Crash):
            reopen(tmp_path)
        sweep.dead_shard = None
        with reopen(tmp_path) as reopened:
            sweep.check(reopened)
            assert dict(reopened._txn_log) == {}

    def test_crash_during_close_with_decides_owed(self, sweep, tmp_path):
        cluster = reopen(tmp_path)
        sweep.open_accounts(cluster)
        for _ in range(3):
            sweep.transfer(cluster)
        sweep.transfer(cluster, *sweep.pair(cluster, across=True))
        assert cluster.session("shard1").owed
        sweep.dead_shard = "shard1"  # close delivers shard0's, dies at shard1's
        cluster.close()
        sweep.dead_shard = None
        with reopen(tmp_path) as reopened:
            sweep.check(reopened)
            assert dict(reopened._txn_log) == {}

    def test_participant_primary_dies_carrying_decides(self, sweep, tmp_path, monkeypatch):
        failed_carriers = []
        real_settle = ClusterEngine._settle

        def recording_settle(cluster, done, session, op_name, args, *rest):
            if op_name == "txn" and args[0] and done.exception() is not None:
                failed_carriers.append(args[0])
            return real_settle(cluster, done, session, op_name, args, *rest)

        monkeypatch.setattr(ClusterEngine, "_settle", recording_settle)
        plan = FaultPlan(seed=sweep.rng.randrange(1 << 30)).crash("shard0.r0", after_ops=30)
        cluster = reopen(tmp_path, faults=plan)
        sweep.open_accounts(cluster)
        while not cluster.promotions:
            src, dst = sweep.pair(cluster)
            if "shard0" in (cluster.shard_for(src), cluster.shard_for(dst)):
                sweep.transfer(cluster, src, dst)
        assert failed_carriers  # the head died carrying decides, and they replayed
        for _ in range(4):
            sweep.transfer(cluster)
        cluster.rejoin_backup("shard0", "shard0.r0")
        sweep.check(cluster)
        cluster.close()
        with reopen(tmp_path) as reopened:
            sweep.check(reopened)

    def test_restarted_ids_never_resolve_a_stale_intent(self, sweep, tmp_path):
        # Incarnation 1: txn-1's intent stays on a backup demoted before its
        # decide; a later commit then moves the same keys on.
        cluster = reopen(tmp_path)
        sweep.open_accounts(cluster)
        src, dst = sweep.pair(cluster, across=False)
        shard = cluster.shard_for(src)
        sweep.demote_first = (shard, f"{shard}.r1")
        sweep.transfer(cluster, src, dst)
        sweep.transfer(cluster, src, dst)
        cluster.close()
        stale = cluster.session(shard).state.facet_for(f"{shard}.r1")
        assert "txn-1" in stale.txns

        # Incarnation 2: the backup is still down, the decision log is empty,
        # and a transaction on the other shard dies right after its record.
        def down():
            return FaultPlan(seed=1).crash(f"{shard}.r1", after_ops=0)

        with reopen(tmp_path, faults=down()) as cluster:
            other = [a for a in ACCOUNTS if cluster.shard_for(a) != shard]
            sweep.die_after_log = True
            sweep.transfer(cluster, other[0], other[1], acked=False)
            settle(cluster)
            on_record = set(cluster._txn_log)
            crash(cluster)
        assert on_record.isdisjoint(stale.txns)  # a fresh id, not txn-1 again

        # Incarnation 3: recovery finishes that record; then the stale
        # backup rejoins.
        with reopen(tmp_path, faults=down()) as reopened:
            reopened.rejoin_backup(shard, f"{shard}.r1")
            sweep.check(reopened)

