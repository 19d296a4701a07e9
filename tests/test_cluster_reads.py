"""Reads are chosen at dispatch: the cluster's primary read round.

The cluster knows every request's kind before it instantiates a
choreography, so a Get and a read-only batch take
:func:`~repro.protocols.kvs.primary_read` (client → primary → client) and
only writes take the replicated round.  What this suite pins:

* a write can never ride the read round — a Put or Delete handed to it is
  refused with the typed :class:`~repro.protocols.kvs.NotARead` at the
  primary, before any replica's store is touched;
* choosing at dispatch changes no answer and no replica state: random
  get/put/delete/batch streams through the cluster match the same streams
  through the paper's ``kvs_with_backups`` / ``kvs_serve_batch``, response
  for response and ``hash_state`` for ``hash_state``;
* a read still detects a dead *primary* (it is the one replica a read
  waits on) and fails over to the senior backup.  ``CHAOS_SEED`` widens the
  seed sweep in CI;
* what clients saw (``tests/linearizability.py``, autouse): every single
  request and batch forms a linearizable history per key.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ChoreoEngine, ClusterClient, ClusterEngine, FaultPlan
from repro.core.errors import ChoreographyRuntimeError
from repro.protocols.kvs import (
    NotARead,
    Request,
    RequestKind,
    Response,
    hash_state,
    kvs_serve_batch,
    kvs_with_backups,
)
from tests.linearizability import txn_history  # noqa: F401 - autouse: checks every test here

CHAOS_SEEDS = [int(raw) for raw in os.environ.get("CHAOS_SEED", "7").split(",")]

#: Short receive timeout: a refused read leaves the client waiting one.
TIMEOUT = 0.3


def replica_digests(cluster: ClusterEngine) -> dict:
    session = cluster.session("shard0")
    return {
        replica: hash_state(session.state.facet_for(replica))
        for replica in session.servers
    }


class TestAWriteNeverRidesTheReadRound:
    @pytest.mark.parametrize("backend", ["central", "local"])
    @pytest.mark.parametrize("write", [Request.put("k", "evil"), Request.delete("k")])
    def test_write_is_refused_at_the_primary_before_any_store(self, backend, write):
        with ClusterEngine(1, replication=3, backend=backend, timeout=TIMEOUT) as cluster:
            cluster.submit_put("k", "v").result(timeout=30.0)
            session = cluster.session("shard0")
            digests = replica_digests(cluster)
            with pytest.raises(ChoreographyRuntimeError) as failure:
                read, census = session.bindings["read"]
                session.engine.run(read, args=([Request.get("k"), write],), census=census)
            assert isinstance(failure.value.original, NotARead)
            if backend == "local":  # "central" runs every location as one
                assert failure.value.location == session.primary
            assert replica_digests(cluster) == digests
            # Nothing was half-applied, and the shard serves on.
            assert cluster.submit_get("k").result(timeout=30.0) == Response.found("v")


# -- differential: the cluster against the paper's choreographies ---------------------

KEYS = st.sampled_from(["a", "b", "c"])
VALUES = st.sampled_from(["1", "2", "3"])
SINGLE = st.one_of(
    st.builds(Request.get, KEYS),
    st.builds(Request.put, KEYS, VALUES),
    st.builds(Request.delete, KEYS),
)
BATCH = st.lists(st.one_of(SINGLE, st.just(Request.stop())), min_size=1, max_size=4)
STEPS = st.lists(
    st.one_of(SINGLE.map(lambda r: ("one", r)), BATCH.map(lambda b: ("batch", b))),
    max_size=12,
)

BACKUPS = ["b1", "b2"]
REPLICAS = ["server"] + BACKUPS


def through_the_cluster(steps):
    answers = []
    with ClusterEngine(1, replication=3, backend="central") as cluster:
        for kind, item in steps:
            if kind == "batch":
                answers.append([f.result(timeout=30.0) for f in cluster.submit_batch(item)])
                continue
            if item.kind is RequestKind.PUT:
                future = cluster.submit_put(item.key, item.value)
            elif item.kind is RequestKind.DELETE:
                future = cluster.submit_delete(item.key)
            else:
                future = cluster.submit_get(item.key)
            answers.append(future.result(timeout=30.0))
        return answers, list(replica_digests(cluster).values())


def through_the_paper(steps):
    stores = {replica: {} for replica in REPLICAS}
    answers = []

    def chor(op):
        states = op.parallel(REPLICAS, lambda replica, _un: stores[replica])
        for kind, item in steps:
            payload = op.locally("client", lambda _un, item=item: item)
            serve = kvs_serve_batch if kind == "batch" else kvs_with_backups
            answers.append(
                serve(op, "client", "server", BACKUPS, states, payload).peek()
            )

    with ChoreoEngine(["client"] + REPLICAS, backend="central") as engine:
        engine.run(chor)
    return answers, [hash_state(stores[replica]) for replica in REPLICAS]


class TestDispatchChangesNoAnswer:
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(steps=STEPS)
    def test_cluster_matches_the_replicated_choreographies(self, steps):
        assert through_the_cluster(steps) == through_the_paper(steps)


# -- faults: reads still detect a dead primary ----------------------------------------


class TestReadsDetectADeadPrimary:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_a_get_fails_over_a_primary_that_died_after_a_put(self, seed):
        plan = FaultPlan(seed=seed).crash("shard0.r0", after_ops=5)
        with ClusterClient(
            shards=1, replication=3, backend="simulated", timeout=TIMEOUT,
            faults=plan,
        ) as kvs:
            kvs.put("k", "v")
            assert kvs.cluster.promotions == []
            assert kvs.get("k") == "v"  # times out on r0, replays on r1
            promotion = kvs.cluster.promotions[0]
            assert (promotion.old_primary, promotion.new_primary) == (
                "shard0.r0", "shard0.r1"
            )
            assert kvs.batch([Request.get("k"), Request.get("x")]) == [
                Response.found("v"), Response.not_found()
            ]
