#!/usr/bin/env python
"""Secure multiparty computation with GMW (paper §6 / Appendix A).

An arbitrary number of parties jointly evaluate a boolean circuit over their
private inputs without revealing them.  The example computes two functions:

* *unanimous consent*: the AND of every party's private vote, and
* *private majority*: whether a majority of three designated parties voted yes,

using boolean secret sharing, XOR gates for free, and one batched RSA-based
oblivious transfer per ordered pair of parties for every layer of AND gates.
Each party generates a single RSA key per computation and publishes it once
to everybody; a circuit without AND gates (the parity below) needs no key.

Run with::

    python examples/gmw_mpc.py [n_parties]
"""

from __future__ import annotations

import sys

from repro import ChoreoEngine
from repro.protocols import circuits
from repro.protocols.gmw import gmw


def run_circuit(engine, parties, circuit, votes, label):
    inputs = {party: {"v": votes[party]} for party in parties}

    def chor(op, my_inputs=None):
        return gmw(op, parties, circuit, my_inputs, seed=11, rsa_bits=256)

    result = engine.run(
        chor, location_args={party: (inputs[party],) for party in parties}
    )
    outputs = set(result.returns.values())
    expected = circuits.evaluate_plain(circuit, inputs)
    assert outputs == {expected}, (outputs, expected)
    print(f"  {label:18} -> {expected}   "
          f"({result.stats.total_messages} messages, "
          f"{circuits.count_gates(circuit)['and']} AND gates)")
    return result


def main() -> None:
    n_parties = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    parties = [f"party{i}" for i in range(1, n_parties + 1)]
    votes = {party: index % 3 != 0 for index, party in enumerate(parties)}

    print(f"GMW with {n_parties} parties; private votes: "
          f"{ {p: v for p, v in votes.items()} }")

    # One warm engine evaluates every circuit: the parties' transport and
    # worker threads are shared by all three secure computations.
    with ChoreoEngine(parties, backend="local") as engine:
        unanimity = circuits.and_tree(parties, name="v")
        run_circuit(engine, parties, unanimity, votes, "unanimous consent")

        parity = circuits.xor_tree(parties, name="v")
        run_circuit(engine, parties, parity, votes, "vote parity")

        if n_parties >= 3:
            majority = circuits.majority3(
                circuits.InputWire(parties[0], "v"),
                circuits.InputWire(parties[1], "v"),
                circuits.InputWire(parties[2], "v"),
            )
            run_circuit(engine, parties, majority, votes, "majority of three")

    print("\nEvery party learned only the circuit outputs; all intermediate "
          "values stayed additively secret-shared.")


if __name__ == "__main__":
    main()
