"""Ablation — protocol latency under the simulated-network model.

Message counts (the other benches) measure bandwidth; this ablation uses the
virtual-clock transport to measure *critical-path latency*: how much of each
protocol's communication is sequential.  Shapes to observe: the KVS's latency
is governed by the request/response chain and is nearly flat in the number of
replicas (its fan-outs overlap), whereas GMW's latency grows with both the
number of parties and the AND depth (its key-publication, OT and reveal rounds
chain; the sender-keyed OT does no key generation inside them).
"""

from __future__ import annotations

import pytest

from repro.protocols import circuits
from repro.protocols.gmw import gmw
from repro.protocols.kvs import Request, kvs_serve
from repro.runtime.engine import ChoreoEngine

LATENCY = 1.0  # one virtual second per message hop


def kvs_critical_path(n_servers):
    servers = [f"s{i}" for i in range(1, n_servers + 1)]
    census = ["client"] + servers
    workload = [Request.put("k", "v"), Request.get("k"), Request.stop()]
    with ChoreoEngine(census, backend="simulated",
                      latency=LATENCY, bandwidth=1e9) as engine:
        engine.run(lambda op: kvs_serve(op, "client", servers[0], servers, workload))
        return engine.transport.critical_path, engine.stats.total_messages


def gmw_critical_path(n_parties):
    parties = [f"p{i}" for i in range(1, n_parties + 1)]
    circuit = circuits.and_tree(parties)
    inputs = {p: {"x": True} for p in parties}
    with ChoreoEngine(parties, backend="simulated",
                      latency=LATENCY, bandwidth=1e9) as engine:
        engine.run(
            lambda op, my_inputs=None: gmw(op, parties, circuit, my_inputs,
                                           seed=3, rsa_bits=128),
            location_args={p: (inputs[p],) for p in parties},
        )
        return engine.transport.critical_path, engine.stats.total_messages


def test_kvs_latency_is_flat_in_replica_count(benchmark, report_table):
    rows = []
    paths = {}
    for n_servers in [1, 2, 4, 8]:
        path, messages = kvs_critical_path(n_servers)
        paths[n_servers] = path
        rows.append([n_servers, messages, f"{path:.1f}"])
    benchmark.pedantic(kvs_critical_path, args=(4,), rounds=3, iterations=1)
    report_table(
        "Ablation — KVS: messages grow with replicas, critical path does not",
        ["servers", "messages", "critical path (virtual s)"],
        rows,
    )
    assert paths[8] <= paths[1] + 3.0  # replication overlaps


def test_gmw_latency_grows_with_parties(benchmark, report_table):
    rows = []
    paths = {}
    for n_parties in [2, 3, 4]:
        path, messages = gmw_critical_path(n_parties)
        paths[n_parties] = path
        rows.append([n_parties, messages, f"{path:.1f}"])
    benchmark.pedantic(gmw_critical_path, args=(2,), rounds=1, iterations=1)
    report_table(
        "Ablation — GMW: pairwise OTs put communication on the critical path",
        ["parties", "messages", "critical path (virtual s)"],
        rows,
    )
    assert paths[4] > paths[2]
