#!/usr/bin/env python
"""Quickstart: a bookstore-style client/server choreography.

This is the "hello world" of the library, modelled on the paper's Fig. 1
(a client sends a request to a key-value server, which answers).  One global
program describes both parties; endpoint projection derives each party's
behaviour; a persistent :class:`~repro.runtime.engine.ChoreoEngine` executes
choreography instances over a warm transport — the same session object works
for every backend (threads, TCP sockets, the simulated network, and the
centralized reference semantics), and independent instances pipeline through
it via ``engine.submit``.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import ChoreoEngine, choreography


@choreography(census=["buyer", "seller"])
def bookstore(op, title: str):
    """The buyer asks the seller for a price; the seller answers; both return it.

    ``op`` is the choreographic operator record (EPP-as-DI): ``locally`` runs a
    computation at one endpoint, ``comm`` moves a located value, ``broadcast``
    shares a value with the whole census so ordinary Python control flow can
    branch on it everywhere consistently.
    """
    catalogue = {"HoTT": 120, "TAPL": 80, "SICP": 40}

    # The buyer picks the title it wants (a value located at the buyer).
    wanted = op.locally("buyer", lambda _un: title)

    # Send it to the seller (now located at the seller).
    request = op.comm("buyer", "seller", wanted)

    # The seller looks up the price locally.
    price = op.locally("seller", lambda un: catalogue.get(un(request), -1))

    # The price is broadcast, so *both* parties can branch on it the same way —
    # this is Knowledge of Choice handled by a multiply-located value.
    amount = op.broadcast("seller", price)
    if amount < 0:
        return f"{title}: not in catalogue"
    if amount > 100:
        return f"{title}: too expensive ({amount})"
    return f"{title}: purchased for {amount}"


def main() -> None:
    # The decorator made `bookstore` a first-class object carrying its census
    # contract, so checking and cost prediction need no extra plumbing.
    report = bookstore.check(args=("TAPL",))
    print(f"pre-run check: ok={report.ok}, messages={report.messages}")

    cost = bookstore.cost(None, "TAPL")
    print(f"predicted channel usage: {dict(cost.per_channel)}")

    # One persistent session serves a stream of instances: the transport and
    # the per-location workers are set up once, then stay warm.
    with ChoreoEngine(["buyer", "seller"], backend="local") as engine:
        for title in ["TAPL", "HoTT", "Dune"]:
            result = engine.run(bookstore, args=(title,))
            print(f"{title!r:8} -> buyer sees {result.returns['buyer']!r}  "
                  f"({result.stats.total_messages} messages this run)")
            assert result.returns["buyer"] == result.returns["seller"]

        # Independent instances pipeline through the same warm session.
        futures = [engine.submit(bookstore, args=(title,))
                   for title in ["SICP", "TAPL", "SICP"]]
        print("pipelined:", [f.result().returns["buyer"] for f in futures])
        print(f"session total: {engine.stats.total_messages} messages")

    # The same choreography runs unchanged on every registered backend —
    # sockets, the latency-modelling simulator, and the single-threaded
    # centralized reference semantics included.  A throwaway engine used for
    # one instance is the paper's one-shot "main method": project to every
    # location, run all endpoints, gather the results.
    for backend in ["local", "tcp", "simulated", "central"]:
        with ChoreoEngine(["buyer", "seller"], backend=backend) as engine:
            result = engine.run(bookstore, args=("SICP",))
            print(f"backend {backend!r:11} -> {result.returns['buyer']!r}")

    # Where to next: engines compose into a sharded, replicated service —
    # consistent-hash routing, quorum reads, group-commit batches.  See
    # examples/kvs_cluster.py and docs/architecture.md.
    from repro.cluster import ClusterClient

    with ClusterClient(shards=2, replication=2) as kvs:
        kvs.put("HoTT", "120")
        print(f"cluster   -> HoTT is {kvs.get('HoTT', quorum=True)!r} "
              f"(shard {kvs.cluster.shard_for('HoTT')})")


if __name__ == "__main__":
    main()
