#!/usr/bin/env python
"""The DPrio fair lottery (paper §6 / Appendix C) with configurable group sizes.

Every client submits a secret value as additive shares to the servers; the
servers run a commit–reveal lottery to pick one client index fairly (fair as
long as at least one server is honest); the analyst reconstructs exactly the
chosen client's secret without learning whose it was.

Run with::

    python examples/dprio_lottery.py [n_clients] [n_servers]
"""

from __future__ import annotations

import collections
import sys

from repro import ChoreoEngine
from repro.protocols.dprio import lottery


def main() -> None:
    n_clients = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    n_servers = int(sys.argv[2]) if len(sys.argv) > 2 else 3

    clients = [f"client{i}" for i in range(1, n_clients + 1)]
    servers = [f"server{i}" for i in range(1, n_servers + 1)]
    analyst = "analyst"
    census = [analyst] + servers + clients
    secrets = {client: 1000 + index for index, client in enumerate(clients)}

    def chor(op, seed=0):
        return lottery(op, servers, clients, analyst,
                       client_secrets=secrets, seed=seed)

    print(f"DPrio lottery: {n_clients} clients, {n_servers} servers, one analyst")
    with ChoreoEngine(census) as engine:
        result = engine.run(chor, kwargs={"seed": 42})
    outcome = result.value_at(analyst)
    winner = [c for c, s in secrets.items() if s == outcome.value][0]
    print(f"  analyst reconstructed secret {outcome.value} "
          f"(submitted by {winner}, which the analyst does not learn)")
    print(f"  total messages: {result.stats.total_messages}")
    print(f"  client->analyst messages: "
          f"{sum(result.stats.messages.get((c, analyst), 0) for c in clients)} (always 0)")

    # Fairness: over many runs each client should win roughly equally often.
    # The centralized reference semantics is just another engine backend, so
    # the sweep submits all 40 seeds through one session and collects futures.
    print("\nwinner distribution over 40 seeds (centralized backend, no sockets):")
    tally = collections.Counter()
    with ChoreoEngine(census, backend="central") as engine:
        futures = [engine.submit(chor, kwargs={"seed": seed}) for seed in range(40)]
        for future in futures:
            tally[future.result().value_at(analyst).value] += 1
    for client in clients:
        count = tally[secrets[client]]
        print(f"  {client:9} {'#' * count} ({count})")


if __name__ == "__main__":
    main()
