"""The per-key linearizability checker, and what it says about the cluster.

``tests/linearizability.py`` records single-request histories and checks
them with a Wing–Gong search per key; the failover and promotion chaos
suites run it on every test.  This module proves the checker can tell a
violation from concurrency, that it *flags* the documented replay reorder
of pipelined ``submit_batch`` writes to one key, that folded single
requests, pipelined like ``gw_request``, are linearizable on a healthy
cluster, that a replayed fold keeps later dispatches behind it, and that
the recorder gives one cluster one register scope however its first
calls race.
"""

from __future__ import annotations

import collections
import sys
import threading
import time
from concurrent.futures import wait

from repro import ClusterEngine, FaultPlan
from repro.protocols.kvs import Request, Response
from tests.linearizability import (
    History,
    linearizable,
    linearizable_history,  # noqa: F401 - autouse: checks every test below
    mixed_ops,
    pipelined,
)
from tests.test_cluster_failover import CHAOS_SEEDS, TIMEOUT

FOUND, MISSING = Response.found, Response.not_found()


def history_of(*steps):
    """Build a one-key history from ``(event, name, kind, value, response)``
    steps: ``event`` is ``"invoke"`` or ``"ok"``; ``name`` ties them up,
    and its first letter is the issuing process."""
    history, ops = History(), {}
    for event, name, *rest in steps:
        if event == "invoke":
            kind, value = rest
            ops[name] = history.invoke("scope", kind, "k", value, process=ord(name[0]))
        else:
            history.complete(ops[name], rest[0])
    return history


class TestChecker:
    def test_a_sequential_history_of_swaps_linearizes(self):
        history = history_of(
            ("invoke", "a1", "put", "1"), ("ok", "a1", MISSING),
            ("invoke", "a2", "get", None), ("ok", "a2", FOUND("1")),
            ("invoke", "a3", "put", "2"), ("ok", "a3", FOUND("1")),
            ("invoke", "a4", "delete", None), ("ok", "a4", FOUND("2")),
            ("invoke", "a5", "get", None), ("ok", "a5", MISSING),
        )
        assert history.violations() == []

    def test_a_stale_read_is_flagged(self):
        history = history_of(
            ("invoke", "a1", "put", "1"), ("ok", "a1", MISSING),
            ("invoke", "a2", "put", "2"), ("ok", "a2", FOUND("1")),
            ("invoke", "b1", "get", None), ("ok", "b1", FOUND("1")),
        )
        assert history.violations() == [("scope", "k")]

    def test_concurrent_requests_of_two_clients_may_take_either_order(self):
        for seen in (MISSING, FOUND("1")):
            history = history_of(
                ("invoke", "a1", "put", "1"),
                ("invoke", "b1", "get", None), ("ok", "b1", seen),
                ("ok", "a1", MISSING),
            )
            assert history.violations() == []

    def test_one_clients_pipelined_requests_keep_their_order(self):
        # Unacknowledged, but issued put-then-get by one client: the get
        # must see the put, or the cluster reordered them.
        history = history_of(
            ("invoke", "a1", "put", "1"), ("invoke", "a2", "get", None),
            ("ok", "a2", MISSING), ("ok", "a1", MISSING),
        )
        assert history.violations() == [("scope", "k")]

    def test_a_failed_write_may_or_may_not_have_applied(self):
        for seen in (MISSING, FOUND("1")):
            history = history_of(
                ("invoke", "a1", "put", "1"),
                ("invoke", "b1", "get", None), ("ok", "b1", seen),
            )  # a1 never acknowledged: failed
            assert history.violations() == []

    def test_a_replayed_write_may_answer_its_own_first_application(self):
        # The fold applied at a surviving replica, failed, and replayed: the
        # put's answer is the binding its own first round left behind.
        history = history_of(
            ("invoke", "a1", "put", "1"), ("ok", "a1", MISSING),
            ("invoke", "a2", "put", "2"), ("ok", "a2", FOUND("2")),
            ("invoke", "a3", "get", None), ("ok", "a3", FOUND("2")),
        )
        assert history.violations() == []

    def test_a_long_sequential_history_is_cheap(self):
        history = History()
        previous = None
        for index in range(600):
            op = history.invoke("scope", "put", "k", str(index))
            history.complete(op, FOUND(previous) if previous else MISSING)
            previous = str(index)
        assert linearizable([op for _scope, op in history.ops])


class TestHistoryScopes:
    def test_racing_first_calls_get_one_scope(self):
        """Two threads make one cluster's first ``scope()`` call at once, and
        the attribute lookup is slow enough that both check before either
        sets.  The cluster must still get one register scope: two would
        split a key's ops across two histories."""

        class SlowLookup:
            durability = None

            def __getattr__(self, name):
                time.sleep(0.05)
                raise AttributeError(name)

        history, cluster = History(), SlowLookup()
        barrier, scopes = threading.Barrier(2), []

        def first_call():
            barrier.wait(10.0)
            scopes.append(history.scope(cluster))

        threads = [threading.Thread(target=first_call) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        assert len(scopes) == 2 and len(set(scopes)) == 1
        assert next(history._serials) == 1  # one serial drawn, not one per caller


def batch_put(cluster, history, value):
    """One single-put ``submit_batch`` on key ``k``, recorded as process 1."""
    op = history.invoke("batch", "put", "k", value, process=1)
    [future] = cluster.submit_batch([Request.put("k", value)])
    future.add_done_callback(lambda done: history.complete(op, done.result()))
    return future


class TestTransactionHistories:
    """A committed transfer is one blind write per key between its submit
    and its ack; a read after the ack may not see a key as it was before."""

    def transfer_then_read(self, seen_src: str, seen_dst: str) -> History:
        history = History()
        opened = history.invoke_all("scope", [("put", "src", "10"), ("put", "dst", "0")])
        history.complete_all(opened, [MISSING, MISSING])
        writes = history.invoke_all("scope", [("write", "src", "9"), ("write", "dst", "1")])
        history.complete_all(writes, [None, None])
        history.scanned("scope", "", history.stamp(), [("src", seen_src), ("dst", seen_dst)])
        return history

    def test_a_whole_transfer_after_its_ack_is_clean(self):
        history = self.transfer_then_read("9", "1")
        assert history.violations() == []
        assert history.torn_reads() == []

    def test_half_a_transfer_after_its_ack_is_flagged(self):
        history = self.transfer_then_read("9", "0")
        assert history.violations() == [("scope", "dst")]
        assert history.torn_reads() == [("scope", "dst", "0")]

    def test_an_aborted_transfer_leaves_no_trace(self):
        history = History()
        writes = history.invoke_all("scope", [("write", "k", "1")])
        history.discard(writes)
        assert history.ops == []


class TestFlagsTheDocumentedReorder:
    def test_a_replayed_batch_write_overtaken_by_a_later_one(self):
        """``docs/testing.md`` §"What failover guarantees": a pipelined
        batch write replays *behind* one submitted between its failure and
        its replay.  The checker must call that history a violation."""
        plan = FaultPlan(seed=7).crash("shard0.r1", after_ops=0)
        history = History()
        with ClusterEngine(shards=1, replication=2, backend="simulated",
                           timeout=TIMEOUT, faults=plan) as cluster:
            later = []
            real_should_replay = cluster._should_replay

            def submit_during_the_window(shard_id, error):
                verdict = real_should_replay(shard_id, error)  # demotes r1
                if not later:
                    later.append(batch_put(cluster, history, "2"))
                return verdict

            cluster._should_replay = submit_during_the_window
            first = batch_put(cluster, history, "1")
            assert first.result(timeout=30.0) == FOUND("2")  # replayed last
            assert later[0].result(timeout=30.0) == MISSING
            read = history.invoke("batch", "get", "k", process=1)
            history.complete(read, cluster.submit_batch([Request.get("k")])[0].result())
        assert cluster.failovers == [("shard0", "shard0.r1")]
        assert history.violations() == [("batch", "k")]


class TestFoldedHistories:
    @staticmethod
    def park(cluster, shard):
        """Hold ``shard``'s client worker on a gate job; returns its release."""
        started, gate = threading.Event(), threading.Event()
        cluster.session(shard).engine.submit(
            lambda op: op.locally(cluster.client, lambda _un: started.set() or gate.wait(30.0)),
            census=[cluster.client],
        )
        assert started.wait(30.0)
        return gate.set

    @staticmethod
    def counted(instances, shard, submit):
        def counting(*args, **kwargs):
            instances[shard] += 1
            return submit(*args, **kwargs)

        return counting

    def test_pipelined_single_requests_are_linearizable(self, linearizable_history, monkeypatch):
        ops = mixed_ops(CHAOS_SEEDS[0])
        with ClusterEngine(2, replication=3, backend="local") as cluster:
            shards = cluster.shards
            releases = [self.park(cluster, shard) for shard in shards]
            instances = collections.Counter()
            for shard in shards:
                monkeypatch.setattr(cluster.session(shard).engine, "submit",
                                    self.counted(instances, shard, cluster.session(shard).engine.submit))
            # The first window queues behind the gates, so folds run whatever
            # the scheduling: per shard one lone binding, then one fold.
            first = [cluster.submit_put(key, *value) if kind == "put" else cluster.submit_get(key)
                     for kind, key, *value in ops[:8]]
            for release in releases:
                release()
            wait(first)
            queued = collections.Counter(cluster.shard_for(key) for _kind, key, *_ in ops[:8])
            assert instances == {shard: min(queued[shard], 2) for shard in shards if queued[shard]}
            futures = first + pipelined(cluster, ops[8:])
            assert all(future.exception() is None for future in futures)
        assert len(linearizable_history.ops) == len(futures)
        assert linearizable_history.violations() == []

    def test_concurrent_submitters_lose_nothing(self, linearizable_history):
        """More submitting threads than cores, a short switch interval, one
        shard: the queue and its fold slot are shared between the callers
        and the engine's workers, and no request may be lost or reordered."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ClusterEngine(1, replication=2, backend="local") as cluster:
                results = {}
                threads = [threading.Thread(target=lambda n=n: results.__setitem__(
                    n, pipelined(cluster, mixed_ops(n, count=150, keys=4), window=4)))
                    for n in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60.0)
                assert not any(thread.is_alive() for thread in threads)
                assert cluster.pending == 0
                assert not cluster.session("shard0").folding
        finally:
            sys.setswitchinterval(interval)
        assert all(f.exception() is None for futures in results.values() for f in futures)
        assert len(linearizable_history.ops) == 4 * 150
        assert linearizable_history.violations() == []


class TestSinglesStayBehindAReplayedFold:
    def test_a_later_put_waits_for_the_replay(self, linearizable_history):
        """A promotion fences the parked fold's binding, so put 1 replays.
        Put 2 and the quorum GET behind it wait for the fold's slot, so the
        replay lands before put 2, not after it."""
        with ClusterEngine(1, replication=2, backend="local") as cluster:
            session = cluster.session("shard0")
            release = TestFoldedHistories.park(cluster, "shard0")
            first, second = cluster.submit_put("k", "1"), cluster.submit_put("k", "2")
            assert cluster._mark_down("shard0", session.primary)
            quorum = cluster.submit_get("x", quorum=True)
            release()
            assert first.result(timeout=30.0) == MISSING
            assert second.result(timeout=30.0) == FOUND("1")
            assert quorum.result(timeout=30.0) == MISSING
            assert dict(session.state.facet_for(session.primary)) == {"k": "2"}
        assert linearizable_history.violations() == []
