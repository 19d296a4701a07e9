"""E6 — the GMW protocol: correctness vs plaintext, and scaling in parties / gates.

The paper's GMW case study is census polymorphic ("works for an arbitrary
number of parties") and weighs in at roughly three hundred lines.  This bench
reproduces the shape of that claim: the same choreography runs for 2–5 parties
and for circuits of growing AND-gate counts; the output always matches the
plaintext evaluation; and the implementation's line count is reported.

With the layered evaluator, message counts grow as (AND *depth*) × (ordered
pairs of parties) instead of (AND *gates*) × pairs: each layer's oblivious
transfers ride one batched exchange per ordered pair, every party deals
all its input shares to a peer in a single message, and the OTs' RSA keys
cost one publication round per run (one key per party, none per gate).
``test_gmw_layered_batching_vs_seed`` pins the ≥2× win of the batching over
the seed's per-gate accounting on a 4-party depth-3 AND tree.
"""

from __future__ import annotations

import pathlib

import pytest

import report
from bench_guard import smoke_scale
from repro.protocols import circuits
from repro.protocols.circuits import count_gates, level_circuit
from repro.protocols.gmw import gmw
from repro.runtime.runner import run_choreography

RSA_BITS = 128

PARTY_SWEEP = smoke_scale([2, 3, 4, 5], [2, 3])
DEPTH_SWEEP = smoke_scale([1, 2, 3], [1])


def run_gmw(parties, circuit, inputs, seed=3):
    def chor(op, my_inputs=None):
        return gmw(op, parties, circuit, my_inputs, seed=seed, rsa_bits=RSA_BITS)

    return run_choreography(
        chor, parties, location_args={p: (inputs.get(p, {}),) for p in parties}
    )


def layered_message_count(parties, circuit):
    """Messages a layered GMW run sends: keys + sharing + batched OT layers + reveal.

    A circuit with at least one AND gate costs one all-to-all key publication;
    dealers with at least one input send one message per peer; each AND layer
    costs one two-message OT exchange per ordered pair; the reveal is one
    all-to-all round.
    """
    n = len(parties)
    pairwise = n * (n - 1)
    leveled = level_circuit(circuit)
    dealers = {leveled.nodes[wire_id].party for wire_id in leveled.input_ids}
    depth = leveled.round_count
    return (
        len(dealers) * (n - 1)
        + (pairwise if depth else 0)
        + pairwise * 2 * depth
        + pairwise
    )


def seed_message_count(parties, circuit):
    """Messages the seed's per-gate evaluator would send for the same circuit.

    Every input-wire *occurrence* was shared separately (n-1 messages each)
    and every AND gate ran one OT (2 messages) per ordered pair, plus the
    reveal round.
    """
    n = len(parties)
    pairwise = n * (n - 1)
    counts = count_gates(circuit)
    return counts["input"] * (n - 1) + pairwise * 2 * counts["and"] + pairwise


def smoke():
    """One tiny, untimed GMW run for the tier-1 bitrot guard."""
    parties = ["p1", "p2"]
    circuit = circuits.and_tree(parties)
    inputs = {p: {"x": True} for p in parties}
    result = run_gmw(parties, circuit, inputs)
    assert set(result.returns.values()) == {True}
    assert result.stats.total_messages == layered_message_count(parties, circuit)


def test_gmw_party_scaling(benchmark, report_table):
    rows = []
    for n_parties in PARTY_SWEEP:
        parties = [f"p{i}" for i in range(1, n_parties + 1)]
        circuit = circuits.and_tree(parties, name="x")
        inputs = {p: {"x": (i % 4 != 3)} for i, p in enumerate(parties)}
        expected = circuits.evaluate_plain(circuit, inputs)
        result = run_gmw(parties, circuit, inputs)
        assert set(result.returns.values()) == {expected}
        and_gates = circuits.count_gates(circuit)["and"]
        rows.append(
            [
                n_parties,
                and_gates,
                result.stats.total_messages,
                f"{result.elapsed_seconds:.3f}",
                expected,
            ]
        )
        # each AND *layer* costs 2 messages per ordered pair of distinct
        # parties; key publication, input sharing and reveal cost n(n-1) each
        assert result.stats.total_messages == layered_message_count(parties, circuit)

    for row in rows:
        report.record("gmw/party_scaling", f"parties_{row[0]}_seconds",
                      float(row[3]), "seconds")
    small = ["p1", "p2"]
    benchmark.pedantic(
        run_gmw,
        args=(small, circuits.and_tree(small), {p: {"x": True} for p in small}),
        rounds=1,
        iterations=1,
    )
    report_table(
        "E6 — GMW scaling with the number of parties (AND tree of all inputs)",
        ["parties", "AND gates", "messages", "seconds", "output"],
        rows,
    )


def test_gmw_gate_scaling(benchmark, report_table):
    parties = ["p1", "p2", "p3"]
    rows = []
    for depth in DEPTH_SWEEP:
        circuit = circuits.alternating_tree(parties, depth=depth)
        names = circuits.input_names(circuit)
        inputs = {p: {name: (hash((p, name)) % 2 == 0) for name in names.get(p, [])}
                  for p in parties}
        expected = circuits.evaluate_plain(circuit, inputs)
        result = run_gmw(parties, circuit, inputs)
        assert set(result.returns.values()) == {expected}
        counts = circuits.count_gates(circuit)
        rows.append(
            [depth, counts["and"], counts["xor"], counts["input"],
             result.stats.total_messages, f"{result.elapsed_seconds:.3f}"]
        )

    benchmark.pedantic(
        run_gmw,
        args=(parties, circuits.xor_tree(parties), {p: {"x": True} for p in parties}),
        rounds=1,
        iterations=1,
    )
    report_table(
        "E6 — GMW scaling with circuit size (3 parties)",
        ["depth", "AND gates", "XOR gates", "inputs", "messages", "seconds"],
        rows,
    )


def test_gmw_layered_batching_vs_seed(report_table, benchmark):
    """Layered batching must at least halve the seed's message count on a
    4-party, depth-3 AND tree (7 gates across 3 layers): 204 -> 96.  The one
    key-publication round of the sender-keyed OT (12 messages a run, whatever
    the circuit) is counted separately: 108 on the wire, still 1.89x fewer."""
    parties = [f"p{i}" for i in range(1, 5)]
    circuit = circuits.deep_and_tree(parties, depth=3)
    names = circuits.input_names(circuit)
    inputs = {p: {name: True for name in names.get(p, [])} for p in parties}
    expected = circuits.evaluate_plain(circuit, inputs)
    result = run_gmw(parties, circuit, inputs)
    assert set(result.returns.values()) == {expected}
    observed = result.stats.total_messages
    seed_count = seed_message_count(parties, circuit)
    key_round = len(parties) * (len(parties) - 1)
    assert observed == layered_message_count(parties, circuit)
    assert (observed - key_round) * 2 <= seed_count, (observed, seed_count)
    report.record("gmw/layered_batching", "seed_messages", seed_count, "messages")
    report.record("gmw/layered_batching", "layered_messages", observed, "messages")
    report.record("gmw/layered_batching", "reduction", seed_count / observed, "x")
    report_table(
        "E6 — layered batching vs the seed's per-gate evaluator "
        "(4 parties, depth-3 AND tree)",
        ["evaluator", "messages"],
        [
            ["per-gate OTs + per-occurrence sharing (seed)", seed_count],
            ["layered batched OTs + per-dealer sharing", observed - key_round],
            ["... plus one OT key publication round per run", observed],
            ["reduction", f"{seed_count / observed:.2f}x"],
        ],
    )
    benchmark.pedantic(
        run_gmw, args=(parties, circuit, inputs), rounds=1, iterations=1
    )


def test_gmw_implementation_size(report_table, benchmark):
    """The paper reports its complete GMW implementation at ~300 lines;
    report ours for comparison (protocol modules only, docstrings included)."""
    root = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro" / "protocols"
    rows = []
    total = 0
    for module in ["gmw.py", "ot.py", "secretshare.py", "circuits.py", "crypto.py"]:
        lines = sum(1 for _ in (root / module).open())
        rows.append([module, lines])
        total += lines
    rows.append(["total", total])
    benchmark(lambda: sum(1 for _ in (root / "gmw.py").open()))
    report_table("E6 — GMW implementation size (lines, incl. docs)", ["module", "lines"], rows)
    assert total > 0
