"""The paper's message-count experiments, as exact assertions.

Each class pins one experiment's shape with closed-form counts: no timings,
no lower bounds.  The rest of E1–E9 is asserted by parametrised cases of
tests that already held the same fact; ``docs/testing.md`` §"Where each
paper experiment is asserted" maps every experiment to its test.
"""

from __future__ import annotations

import pytest

from repro import ChoreoEngine
from repro.analysis.comm_cost import communication_cost, haschor_communication_cost
from repro.baselines.kvs_haschor import kvs_serve_haschor
from repro.protocols import circuits
from repro.protocols.gmw import gmw
from repro.protocols.kvs import Request, ResponseKind, kvs_serve

#: Two Puts, two Gets and a Stop: five requests, two of them writes.
WORKLOAD = [
    Request.put("a", "1"),
    Request.get("a"),
    Request.put("b", "2"),
    Request.get("b"),
    Request.stop(),
]


def conclave_kvs_messages(n_servers):
    """Fig. 2 over ``WORKLOAD``: the client sends and receives one message per
    request; the primary multicasts each request and each Put's needsReSynch
    flag to every other server (7 each), which answers each Put twice (4)."""
    return 2 * len(WORKLOAD) + 11 * (n_servers - 1)


def servers_for(n_servers):
    servers = [f"s{i}" for i in range(1, n_servers + 1)]
    return servers, ["client"] + servers


class TestE2KnowledgeOfChoice:
    """Broadcast KoC (the HasChor baseline) vs conclaves-&-MLVs, same workload."""

    @pytest.mark.parametrize("n_servers", [1, 2, 4, 8, 16])
    def test_message_counts_against_the_broadcast_baseline(self, n_servers):
        servers, census = servers_for(n_servers)
        ours = communication_cost(
            lambda op: kvs_serve(op, "client", "s1", servers, WORKLOAD), census
        )
        baseline = haschor_communication_cost(
            lambda op: kvs_serve_haschor(op, "client", "s1", servers, WORKLOAD), census
        )
        assert ours.total_messages == conclave_kvs_messages(n_servers)
        # every conditional's scrutinee reaches the whole census, client included
        assert baseline.total_messages == 22 + 16 * (n_servers - 1)
        # the client's traffic is flat: one request out, one answer in
        assert ours.messages_involving("client") == 2 * len(WORKLOAD)
        assert baseline.messages_involving("client") == 22


class TestE3ReplicatedKVS:
    """The projected Fig. 2 KVS: the counts E2 predicts, on real endpoints."""

    @staticmethod
    def serve(n_servers, fault_rate=0.0):
        servers, census = servers_for(n_servers)
        with ChoreoEngine(census) as engine:
            return engine.run(
                lambda op: kvs_serve(
                    op, "client", "s1", servers, WORKLOAD, fault_rate=fault_rate, seed=5
                )
            )

    @pytest.mark.parametrize("n_servers", [1, 2, 4, 8])
    def test_message_counts_scale_linearly_in_servers(self, n_servers):
        result = self.serve(n_servers)
        responses = result.value_at("client")
        assert responses[1].value == "1" and responses[3].value == "2"
        assert responses[-1].kind is ResponseKind.STOPPED
        assert result.stats.total_messages == conclave_kvs_messages(n_servers)
        assert result.stats.messages_involving("client") == 2 * len(WORKLOAD)
        forwarded = sum(
            count for (src, dst), count in result.stats.snapshot().items()
            if src == "s1" and dst != "client"
        )
        assert forwarded == 7 * (n_servers - 1)

    def test_fault_injection_repairs_without_the_client_noticing(self):
        healthy = self.serve(4)
        faulty = self.serve(4, fault_rate=0.8)
        assert [r.kind for r in faulty.value_at("client")] == [
            r.kind for r in healthy.value_at("client")
        ]
        assert faulty.stats.messages_involving("client") == 2 * len(WORKLOAD)
        # resynchronising divergent replicas costs server-to-server messages
        assert faulty.stats.total_messages > healthy.stats.total_messages


CENSUS = ["decider", "worker1", "worker2", "observer"]
WORKERS = ["decider", "worker1", "worker2"]


def conclaves_mlvs_protocol(op, n_conditionals):
    """The decider chooses once; the workers branch on it ``n`` times."""
    choice = op.locally("decider", lambda _un: True)
    flag = op.multicast("decider", WORKERS, choice)  # the select, as an MLV

    outcomes = []
    for index in range(n_conditionals):
        def continuation(sub, _i=index):
            if sub.naked(flag):  # KoC re-used: no messages
                return sub.broadcast("worker1", sub.locally("worker1", lambda _un: _i))
            return sub.broadcast("worker2", sub.locally("worker2", lambda _un: -_i))

        outcomes.append(op.conclave(WORKERS, continuation))
    return outcomes


def broadcast_koc_protocol(op, n_conditionals):
    """The same behaviour where every conditional broadcasts to the census."""
    choice = op.locally("decider", lambda _un: True)
    outcomes = []
    for index in range(n_conditionals):
        def branches(flag, _i=index):
            if flag:
                return op.comm("worker1", "decider", op.locally("worker1", lambda _un: _i))
            return op.comm("worker2", "decider", op.locally("worker2", lambda _un: -_i))

        outcomes.append(op.cond(choice, branches))
    return outcomes


class TestE9Expressivity:
    """§4.2: select-&-merge simulated by a flag multicast plus conclaves."""

    @pytest.mark.parametrize("n_conditionals", [1, 2, 4, 8])
    def test_sequential_conditionals_pay_koc_once(self, n_conditionals):
        ours = communication_cost(conclaves_mlvs_protocol, CENSUS, n_conditionals)
        baseline = haschor_communication_cost(broadcast_koc_protocol, CENSUS, n_conditionals)
        # the flag multicast (2) + one broadcast per conditional (2 each)
        assert ours.total_messages == 2 + 2 * n_conditionals
        # three KoC messages + one reply per conditional
        assert baseline.total_messages == 4 * n_conditionals
        assert ours.messages_involving("observer") == 0
        assert baseline.messages_involving("observer") == n_conditionals
        koc = sum(count for (src, _dst), count in ours.per_channel.items() if src == "decider")
        assert koc == 2

    def test_select_and_merge_costs_one_flag_multicast(self):
        def without_flag(op):
            value = op.locally("decider", lambda _un: 41)
            return op.conclave(WORKERS, lambda sub: sub.broadcast("decider", value))

        plain = communication_cost(without_flag, CENSUS)
        transformed = communication_cost(conclaves_mlvs_protocol, CENSUS, 1)
        assert transformed.total_messages - plain.total_messages == len(WORKERS) - 1


class TestLatencyModelAblation:
    """Critical paths under the simulated network (1 virtual second a hop);
    the KVS side is ``tests/test_runtime_simulated.py``."""

    @staticmethod
    def gmw_critical_path(n_parties):
        parties = [f"p{i}" for i in range(1, n_parties + 1)]
        circuit = circuits.and_tree(parties)
        with ChoreoEngine(parties, "simulated", latency=1.0, bandwidth=1e9) as engine:
            engine.run(
                lambda op, my_inputs: gmw(op, parties, circuit, my_inputs, seed=3, rsa_bits=128),
                location_args={p: ({"x": True},) for p in parties},
            )
            return engine.transport.critical_path

    def test_gmw_critical_path_grows_with_parties(self):
        two, three, four = (self.gmw_critical_path(n) for n in (2, 3, 4))
        # key publication, OT and reveal rounds chain, and each party serves
        # its pairwise exchanges one after another
        assert two < three < four
