"""The four pinned workloads.  Names are fixed; later issues cite them.

Each workload generates its requests from ``--seed`` alone and hands the
system under test nothing but those requests.  The closed loop in
:mod:`harness` calls ``issue()`` (send one request, don't wait) and
``complete(token)`` (wait for that reply, check it, return the number of
unit ops that failed the check).
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
import shutil
import tempfile
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster import ClusterClient, ClusterEngine
from repro.gateway import ArrayReply, BulkReply, GatewayClient, GatewayServer
from repro.protocols import circuits
from repro.protocols.gmw import gmw
from repro.protocols.kvs import Request
from repro.runtime.engine import ChoreoEngine
from repro.storage import Durability

import harness

KEYS = 1000
ZIPF_THETA = 0.99
VALUE_BYTES = 64
PRELOAD_CHUNK = 100


def make_value(rng: random.Random) -> str:
    return "%0*x" % (VALUE_BYTES, rng.getrandbits(4 * VALUE_BYTES))


class ZipfKeys:
    """``user%06d`` keys drawn zipfian(θ) over a seed-shuffled rank order."""

    def __init__(self, rng: random.Random, count: int = KEYS, theta: float = ZIPF_THETA):
        self.keys = ["user%06d" % index for index in range(count)]
        rng.shuffle(self.keys)  # so the hot ranks do not all hash alike
        weights = [1.0 / (rank ** theta) for rank in range(1, count + 1)]
        self._cdf = list(itertools.accumulate(weights))
        self._total = self._cdf[-1]

    def draw(self, rng: random.Random) -> str:
        return self.keys[bisect.bisect_left(self._cdf, rng.random() * self._total)]


class Workload:
    """Common shape; subclasses fill in the system under test."""

    name = ""
    #: Requests kept in flight by the single load thread.
    window = 1
    #: Unit ops carried by one request (32 for a BATCH frame).
    units_per_request = 1
    #: ``tail_ms`` is this percentile of each window's latencies, median over
    #: the windows: the highest of 99 / 95 / 90 that repeats between runs.
    tail_pct = 99.0
    #: Whether a traced run also measures ``sched.unpinned_ratio``.
    unpinned_pass = False
    #: Requests in the counted prefix of a traced pass (exact msgs/op).
    count_requests = 2000

    def __init__(self, seed: int):
        self.seed = seed  # every setup() restarts its generator from this
        self.errors: Dict[str, int] = {}

    def note_error(self, exc: BaseException) -> None:
        label = type(exc).__name__
        self.errors[label] = self.errors.get(label, 0) + 1

    # subclasses: setup / issue / complete / counters / teardown
    def counters(self) -> Tuple[int, int]:
        """``(messages, wire bytes)`` so far, from the outside ChannelStats."""
        raise NotImplementedError

    def shed_busy(self) -> int:
        return 0

    def final_check(self) -> int:
        """Whole-run output check after the last pass; returns failures."""
        return 0


# ---------------------------------------------------------------- gateway --


class _GatewayWorkload(Workload):
    """Loopback GatewayClient → GatewayServer → ClusterClient(tcp), ephemeral."""

    shards = 2
    replication = 3

    def setup(self) -> None:
        self.rng = random.Random(self.seed)
        self.keys = ZipfKeys(self.rng)
        self.kvs = ClusterClient(
            shards=self.shards, replication=self.replication, backend="tcp"
        )
        self.server = GatewayServer(self.kvs).start()
        host, port = self.server.address
        self.client = GatewayClient(host, port, timeout=10.0)
        #: What the single client last PUT under each key (or the preload).
        self.model: Dict[str, str] = {key: make_value(self.rng) for key in self.keys.keys}
        ordered = sorted(self.model)
        for at in range(0, len(ordered), PRELOAD_CHUNK):
            chunk = ordered[at:at + PRELOAD_CHUNK]
            self.client.batch([Request.put(key, self.model[key]) for key in chunk])

    def counters(self) -> Tuple[int, int]:
        stats = self.kvs.stats
        return stats.total_messages, stats.total_bytes

    def shed_busy(self) -> int:
        return int(self.server.metrics()["shed_busy"])

    def teardown(self) -> None:
        self.client.close()
        self.server.close()
        self.kvs.close()

    def _next_op(self, write_share: float) -> Tuple[str, str, Optional[str], str]:
        """Draw one op; returns ``(verb, key, value, expected reply value)``."""
        key = self.keys.draw(self.rng)
        before = self.model[key]
        if self.rng.random() < write_share:
            value = make_value(self.rng)
            self.model[key] = value
            return "PUT", key, value, before  # a PUT answers the old binding
        return "GET", key, None, before


class GwRequest(_GatewayWorkload):
    """One command per op, 50/50 PUT/GET, pipelining window 8."""

    name = "gw_request"
    window = 8
    tail_pct = 95.0  # ~10,000 samples a window; p99 spread 15-29 % over ten runs
    unpinned_pass = True

    def issue(self) -> Tuple[int, Any]:
        verb, key, value, expected = self._next_op(0.5)
        if value is None:
            self.client.send(verb, key)
        else:
            self.client.send(verb, key, value)
        return 1, expected

    def complete(self, expected: str) -> int:
        reply = self.client.recv_reply()
        return 0 if isinstance(reply, BulkReply) and reply.value == expected else 1


class GwBatch(_GatewayWorkload):
    """BATCH frames of 32 ops, 95/5 read-heavy, one frame in flight."""

    name = "gw_batch"
    shards = 4
    replication = 2
    units_per_request = 32
    tail_pct = 95.0  # ~2,200 frames a window; p99 spread 23-25 % over ten runs
    count_requests = 64  # 2,048 key-ops

    def issue(self) -> Tuple[int, Any]:
        args: List[str] = ["BATCH"]
        expected: List[str] = []
        for _ in range(self.units_per_request):
            verb, key, value, before = self._next_op(0.05)
            args.extend((verb, key) if value is None else (verb, key, value))
            expected.append(before)
        self.client.send(*args)
        return self.units_per_request, expected

    def complete(self, expected: List[str]) -> int:
        reply = self.client.recv_reply()
        if not isinstance(reply, ArrayReply) or len(reply.items) != len(expected):
            return len(expected)
        return sum(
            0 if isinstance(item, BulkReply) and item.value == want else 1
            for item, want in zip(reply.items, expected)
        )


# ------------------------------------------------------------ txn_durable --


class TxnDurable(Workload):
    """Guarded cross-shard transfers on a durable 4×2 local cluster."""

    name = "txn_durable"
    accounts = 64
    opening = 1000
    filler = 2000
    count_requests = 500

    def _open(self) -> ClusterEngine:
        return ClusterEngine(
            4, replication=2, backend="local",
            durability=Durability(root=self.root, fsync="batch"),
        )

    def setup(self) -> None:
        self.rng = random.Random(self.seed)
        # Inside the benchmark's own directory: the run may write nowhere else.
        self.root = tempfile.mkdtemp(prefix="durable-", dir=harness.OUT_DIR)
        self.names = ["acct%03d" % index for index in range(self.accounts)]
        self.books = {name: self.opening for name in self.names}
        preload = [Request.put(name, str(self.opening)) for name in self.names]
        preload += [
            Request.put("fill%05d" % index, make_value(self.rng))
            for index in range(self.filler)
        ]
        cluster = self._open()
        try:
            for at in range(0, len(preload), PRELOAD_CHUNK):
                for future in cluster.submit_batch(preload[at:at + PRELOAD_CHUNK]):
                    future.result()
        finally:
            cluster.close()
        # Measured against a recovered cluster: set-up time is crash-recovery
        # time (snapshot load + WAL replay), so work moved into set-up shows.
        self.cluster = self._open()

    def issue(self) -> Tuple[int, Any]:
        src, dst = self.rng.sample(self.names, 2)
        amount = self.rng.randint(1, 9)
        future = self.cluster.submit_txn(
            [
                Request.put(src, str(self.books[src] - amount)),
                Request.put(dst, str(self.books[dst] + amount)),
            ],
            expects={src: str(self.books[src]), dst: str(self.books[dst])},
        )
        return 1, (future, src, dst, amount)

    def complete(self, token: Any) -> int:
        future, src, dst, amount = token
        if not future.result(timeout=30.0).committed:
            return 1
        self.books[src] -= amount
        self.books[dst] += amount
        return 0

    def counters(self) -> Tuple[int, int]:
        stats = self.cluster.stats
        return stats.total_messages, stats.total_bytes

    def _stores(self) -> bytes:
        """Every replica's bindings, canonically serialised."""
        image = {
            shard: {
                replica: dict(self.cluster.session(shard).state.facet_for(replica))
                for replica in self.cluster.session(shard).servers
            }
            for shard in self.cluster.shards
        }
        return json.dumps(image, sort_keys=True).encode("utf-8")

    def final_check(self) -> int:
        failures = 0
        scanned = {
            key: value
            for future in self.cluster.submit_scan("acct").values()
            for key, value in self.cluster.response_of(future.result())
        }
        if sum(int(value) for value in scanned.values()) != self.accounts * self.opening:
            failures += 1
        if scanned != {name: str(balance) for name, balance in self.books.items()}:
            failures += 1
        before = self._stores()
        self.cluster.close()
        self.cluster = self._open()
        if self._stores() != before:
            failures += 1
        return failures

    def teardown(self) -> None:
        try:
            self.cluster.close()
        finally:
            shutil.rmtree(self.root, ignore_errors=True)


# ------------------------------------------------------------ gmw_session --

PARTIES = ["p1", "p2", "p3", "p4"]
RSA_BITS = 128
GMW_CIRCUIT = circuits.and_tree(PARTIES)


def gmw_projected(op, my_inputs=None, *, seed=0):
    """GMW as each party runs it: its own inputs arrive via ``location_args``."""
    return gmw(op, PARTIES, GMW_CIRCUIT, my_inputs, seed=seed, rsa_bits=RSA_BITS)


def gmw_run(engine: ChoreoEngine, inputs: Dict[str, Dict[str, bool]], seed: int) -> bool:
    """One GMW session on a projected backend; returns whether it was right."""
    result = engine.run(
        gmw_projected, kwargs={"seed": seed},
        location_args={party: (inputs[party],) for party in PARTIES},
    )
    expected = circuits.evaluate_plain(GMW_CIRCUIT, inputs)
    return set(result.returns.values()) == {expected}


class GmwSession(Workload):
    """Sequential GMW runs (72 messages each) on a warm asyncio engine."""

    name = "gmw_session"
    tail_pct = 95.0  # ~95 runs a window, ~19 beyond it in a whole run
    count_requests = 20

    def setup(self) -> None:
        self.rng = random.Random(self.seed)
        self.engine = ChoreoEngine(PARTIES, backend="asyncio", timeout=20.0)
        # Ready means connected: one priming run lights the whole mesh.
        gmw_run(self.engine, {party: {"x": True} for party in PARTIES}, 0)

    def issue(self) -> Tuple[int, Any]:
        # Mostly-true bits so the AND tree's output is not constantly False.
        inputs = {party: {"x": self.rng.random() < 0.85} for party in PARTIES}
        return 1, (inputs, self.rng.getrandbits(32))

    def complete(self, token: Any) -> int:
        inputs, seed = token
        return 0 if gmw_run(self.engine, inputs, seed) else 1

    def counters(self) -> Tuple[int, int]:
        stats = self.engine.stats
        return stats.total_messages, stats.total_bytes

    def teardown(self) -> None:
        self.engine.close()


WORKLOADS = {cls.name: cls for cls in (GwRequest, GwBatch, TxnDurable, GmwSession)}
