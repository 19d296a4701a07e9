"""A per-key linearizability checker for single-request cluster histories.

Every single-request ``submit_put`` / ``submit_get`` / ``submit_delete`` is
recorded as an *invoke* event, then an *ok* event (with the client's
:class:`~repro.protocols.kvs.Response`) or a *fail* event, each stamped
from one global sequence counter, so the stamps give real-time order.

Checking is the Wing & Gong search (1993), split by key: linearizability is
local (Herlihy & Wing, 1990), so a history is linearizable iff every key's
sub-history is.  Each key is a register whose PUT is a *swap* — it answers
the previous binding, as the cluster and the gateway do — whose DELETE
answers the previous binding and unbinds, and whose GET answers the binding.

One constraint goes beyond plain linearizability: requests one thread
pipelines, unacknowledged, to one key must take effect in the order they
were issued, because the cluster promises per-shard submission order.
With it the checker can see the documented replay reorder of pipelined
``submit_batch`` writes, which plain linearizability would excuse as
concurrency.

Replay is at-least-once, and the model says so: a request may run once
early, unanswered, before the point that answers it (see
:func:`linearizable`); a failed write may or may not have taken effect,
so it is linearized at any point after its invocation, or never; a failed
read is dropped.

Transactions join the same per-key registers (:func:`record_transactions`):
a committed transfer is one blind *write* per key, all invoked when it is
submitted and done when it is acknowledged at its commit point, so the
search places its writes between the two; an aborted one applied nothing
and is dropped.  A scan is a read of every key under its prefix over the
scan's interval, and a group-commit batch (``submit_batch`` or
``submit_batch_answers``) is its requests, each over the batch's
interval.  :meth:`History.torn_reads` checks the second promise directly:
a read or scan invoked after a transfer's ack sees, on each of its keys,
that transfer's write or a write that may follow it, never the state
before it — so never half of it.
"""

from __future__ import annotations

import itertools
import random
import sys
import threading
from collections import deque
from concurrent.futures import wait
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

import pytest

from repro.cluster import ClusterEngine, TxnAborted
from repro.protocols.kvs import RequestKind, Response, ResponseKind

NEVER = float("inf")
#: Search states one key may visit: a bound on time and memory, far above
#: what the suites' histories need (one issuer, eight in flight).
MAX_STATES = 200_000


@dataclass
class Op:
    """One recorded request: its interval, its issuer, and what it saw."""

    kind: str  # "put" / "get" / "delete", or a transaction's blind "write"
    key: str
    value: Optional[str]  # what a put writes
    process: int
    invoke: int
    done: float = NEVER  # the ok/fail stamp; NEVER while unknown
    ok: bool = False
    output: Optional[str] = None  # the binding the response reports


@dataclass
class History:
    """Thread-safe invoke / ok / fail recorder, one register per (scope, key)."""

    ops: List[Tuple[Hashable, Op]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._clock = itertools.count()
        self._serials = itertools.count()

    def scope(self, cluster: ClusterEngine) -> Hashable:
        """A cluster's register scope: its durable root, so a reopened
        cluster continues the history of the one it recovers; else one per
        cluster."""
        if cluster.durability is not None:
            return cluster.durability.root
        with self._lock:  # first calls race: one cluster, one serial
            if not hasattr(cluster, "_history_scope"):
                cluster._history_scope = next(self._serials)
            return cluster._history_scope

    def invoke(self, scope: Hashable, kind: str, key: str,
               value: Optional[str] = None, process: Optional[int] = None) -> Op:
        """Record an invocation; ``process`` (the issuer) defaults to the thread."""
        if process is None:
            process = threading.get_ident()
        with self._lock:
            op = Op(kind, key, value, process, next(self._clock))
            self.ops.append((scope, op))
        return op

    def complete(self, op: Op, response: Optional[Response]) -> None:
        """Record ``op``'s ok (with its Response) or, for ``None``, its fail.

        A failed op keeps ``done = NEVER``: a write the cluster gave up on
        may still surface later (a backup that applied it can be promoted).
        """
        if response is None:
            return
        with self._lock:
            op.done = next(self._clock)
            op.ok = True
            op.output = response.value if response.kind is ResponseKind.FOUND else None

    def invoke_all(self, scope: Hashable, reads: Sequence[tuple]) -> List[Op]:
        """Invoke several ops at one stamp (a transaction's writes, a batch);
        ``reads`` are ``(kind, key, value)``."""
        process = threading.get_ident()
        with self._lock:
            stamp = next(self._clock)
            ops = [Op(kind, key, value, process, stamp) for kind, key, value in reads]
            self.ops.extend((scope, op) for op in ops)
        return ops

    def complete_all(self, ops: Sequence[Op], outputs: Sequence[Optional[Response]]) -> None:
        """Complete several ops at one stamp (``None``: a blind write's ok)."""
        with self._lock:
            stamp = next(self._clock)
            for op, response in zip(ops, outputs):
                op.done, op.ok = stamp, True
                if response is not None and response.kind is ResponseKind.FOUND:
                    op.output = response.value

    def discard(self, ops: Sequence[Op]) -> None:
        """Forget ops that took no effect (an aborted transaction's writes)."""
        dropped = set(map(id, ops))
        with self._lock:
            self.ops = [(scope, op) for scope, op in self.ops if id(op) not in dropped]

    def scanned(self, scope: Hashable, prefix: str, invoke: int,
                items: Sequence[Tuple[str, str]]) -> None:
        """Record a scan invoked at ``invoke`` as a read of every key under
        ``prefix`` this scope has seen, answered now."""
        found = dict(items)
        with self._lock:
            done = next(self._clock)
            keys = {op.key for seen, op in self.ops if seen == scope}
            for key in sorted(keys.union(found)):
                if key.startswith(prefix):
                    op = Op("get", key, None, threading.get_ident(), invoke, done, True,
                            found.get(key))
                    self.ops.append((scope, op))

    def stamp(self) -> int:
        with self._lock:
            return next(self._clock)

    def torn_reads(self) -> List[Tuple[Hashable, str, Optional[str]]]:
        """Reads invoked after a committed transaction's ack that saw one of
        its keys as it was before: ``(scope, key, value read)``.

        Allowed are the transaction's own write and the value of any write
        to the key that may follow it (one not done before it was invoked).
        """
        by_key: Dict[Tuple[Hashable, str], List[Op]] = {}
        with self._lock:
            for scope, op in self.ops:
                by_key.setdefault((scope, op.key), []).append(op)
        torn = []
        for (scope, key), ops in by_key.items():
            writes = [op for op in ops if op.kind != "get"]
            for txn in (op for op in writes if op.kind == "write" and op.ok):
                allowed = {_apply(txn, None)}.union(
                    _apply(op, None) for op in writes if op.done > txn.invoke)
                torn.extend((scope, key, read.output) for read in ops
                            if read.kind == "get" and read.ok and read.invoke > txn.done
                            and read.output not in allowed)
        return torn

    def violations(self) -> List[Tuple[Hashable, str]]:
        """Every ``(scope, key)`` whose sub-history has no linearization."""
        by_key: Dict[Tuple[Hashable, str], List[Op]] = {}
        with self._lock:
            for scope, op in self.ops:
                if op.ok or op.kind != "get":  # a failed read changed nothing
                    by_key.setdefault((scope, op.key), []).append(op)
        return [key for key, ops in by_key.items() if not linearizable(ops)]


def _apply(op: Op, binding: Optional[str]) -> Optional[str]:
    if op.kind in ("put", "write"):
        return op.value
    return None if op.kind == "delete" else binding


def linearizable(ops: List[Op], initial: Optional[str] = None) -> bool:
    """Wing–Gong search over one key's ops, memoized on the search state.

    Replay is at-least-once: an instance that failed after a surviving
    replica applied it runs again, and its answers come from that last
    round.  The search therefore lets each request run once *early*,
    unanswered, before the point that answers it (an early read has no
    effect, but takes its turn in issue order).  One early round stands
    for any number of them: a replayed fold re-applies whole, so every
    round ends in the same state.
    """
    ops = sorted(ops, key=lambda op: op.invoke)
    everything = (1 << len(ops)) - 1
    seen = set()
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 2 * len(ops) + 100))

    def search(final: int, early: int, binding: Optional[str]) -> bool:
        if final == everything:
            return True
        if (final, early, binding) in seen:
            return False
        seen.add((final, early, binding))
        if len(seen) > MAX_STATES:
            raise RuntimeError(f"history of {len(ops)} ops too large to check")
        pending = [i for i in range(len(ops)) if not final >> i & 1]
        # Real time: nothing may go next that was invoked after some
        # pending op already completed.
        horizon = min(ops[i].done for i in pending)
        unanswered, unapplied = set(), set()  # issuers with an earlier op pending
        for i in pending:
            op = ops[i]
            if op.invoke > horizon:
                break
            # One issuer's requests take effect in issue order, and are
            # answered in issue order.
            applied = early >> i & 1
            if (not applied and op.process not in unapplied
                    and search(final, early | 1 << i, _apply(op, binding))):
                return True
            if op.process not in unanswered:
                # Answered ops leave ``early``, so it only tells pending ops apart.
                after, rest = final | 1 << i, early & ~(1 << i)
                if op.ok:
                    if (op.kind == "write" or op.output == binding) and search(
                            after, rest, _apply(op, binding)):
                        return True
                # A failed write: it took effect (again) here, or not again.
                elif search(after, rest, _apply(op, binding)) or (
                        search(after, rest, binding)):
                    return True
            unanswered.add(op.process)
            if not applied:
                unapplied.add(op.process)
        return False

    return search(0, 0, initial)


def record_single_requests(monkeypatch) -> History:
    """Record every single put/get/delete any ClusterEngine is asked for.

    Quorum GETs run unfolded and are not recorded.  A cluster's history
    scope is its durable root, so a reopened cluster continues the
    history of the one it recovers; ephemeral clusters each start fresh.
    """
    history = History()

    def recorded(kind: str, real):
        def submit(cluster, key, *args, **kwargs):
            if kwargs.get("quorum"):
                return real(cluster, key, *args, **kwargs)
            op = history.invoke(history.scope(cluster), kind, key, args[0] if args else None)
            try:
                future = real(cluster, key, *args, **kwargs)
            except BaseException:
                history.complete(op, None)
                raise
            future.add_done_callback(lambda done: history.complete(
                op, None if done.exception() else done.result()))
            return future
        return submit

    for kind in ("put", "get", "delete"):
        name = f"submit_{kind}"
        monkeypatch.setattr(ClusterEngine, name, recorded(kind, getattr(ClusterEngine, name)))
    return history


def record_transactions(monkeypatch, history: History) -> History:
    """Also record every transaction, scan and group-commit batch.

    A transaction that aborts (:class:`~repro.cluster.TxnAborted`) applied
    nothing and leaves the history; one that fails otherwise may or may not
    have committed, like a failed write.
    """

    def submit_txn(cluster, requests, **kwargs):
        requests = list(requests)
        ops = history.invoke_all(history.scope(cluster), [
            ("write", request.key, request.value if request.kind is RequestKind.PUT
             else None) for request in requests])
        future = real_txn(cluster, requests, **kwargs)

        def done(future):
            if isinstance(future.exception(), TxnAborted):
                history.discard(ops)
            elif future.exception() is None:
                history.complete_all(ops, [None] * len(ops))
        future.add_done_callback(done)
        return future

    def when_all(futures, then) -> None:
        """Call ``then()`` once, when every one of ``futures`` succeeded."""
        remaining, lock = [len(futures)], threading.Lock()

        def done(_future):
            with lock:
                remaining[0] -= 1
                if remaining[0]:
                    return
            if not any(future.exception() for future in futures):
                then()
        for future in futures:
            future.add_done_callback(done)

    def submit_scan(cluster, prefix=""):
        invoke = history.stamp()
        futures = real_scan(cluster, prefix)
        when_all(list(futures.values()), lambda: history.scanned(
            history.scope(cluster), prefix, invoke,
            [item for future in futures.values()
             for item in cluster.response_of(future.result())]))
        return futures

    def submit_batch(cluster, requests):
        requests = list(requests)
        futures = real_batch(cluster, requests)
        answered = [(request, future) for request, future in zip(requests, futures)
                    if request.kind is not RequestKind.STOP]
        ops = history.invoke_all(history.scope(cluster), [
            (request.kind.value, request.key, request.value) for request, _ in answered])
        when_all([future for _, future in answered], lambda: history.complete_all(
            ops, [future.result() for _, future in answered]))
        return futures

    def submit_batch_answers(cluster, requests):
        requests = list(requests)
        whole = real_answers(cluster, requests)
        answered = [index for index, request in enumerate(requests)
                    if request.kind is not RequestKind.STOP]
        ops = history.invoke_all(history.scope(cluster), [
            (requests[index].kind.value, requests[index].key, requests[index].value)
            for index in answered])
        when_all([whole], lambda: history.complete_all(
            ops, [whole.result()[index] for index in answered]))
        return whole

    real_txn, real_scan, real_batch, real_answers = (
        ClusterEngine.submit_txn, ClusterEngine.submit_scan, ClusterEngine.submit_batch,
        ClusterEngine.submit_batch_answers)
    monkeypatch.setattr(ClusterEngine, "submit_txn", submit_txn)
    monkeypatch.setattr(ClusterEngine, "submit_scan", submit_scan)
    monkeypatch.setattr(ClusterEngine, "submit_batch", submit_batch)
    monkeypatch.setattr(ClusterEngine, "submit_batch_answers", submit_batch_answers)
    return history


@pytest.fixture(autouse=True)
def linearizable_history(monkeypatch) -> Iterator[History]:
    """Record a test's single requests; fail it unless every key linearizes.

    Autouse wherever it is imported: the failover and promotion chaos
    suites check every history they produce.
    """
    history = record_single_requests(monkeypatch)
    yield history
    assert history.violations() == []


@pytest.fixture(autouse=True)
def txn_history(monkeypatch) -> Iterator[History]:
    """Record what every test's clients saw — single requests, transactions,
    scans and batches; fail it unless each key linearizes and no read after
    a transfer's ack saw the state before it.

    Autouse wherever it is imported: the transaction, recovery and reads
    suites, whose batch writes the single-request recorder alone would miss.
    """
    history = record_transactions(monkeypatch, record_single_requests(monkeypatch))
    yield history
    assert history.violations() == []
    assert history.torn_reads() == []


def pipelined(cluster: ClusterEngine, ops: Sequence[tuple], window: int = 8) -> list:
    """Issue ``("put", key, value)`` / ``("get", key)`` ops from one thread
    with up to ``window`` unacknowledged, as ``gw_request`` does; returns
    their Futures once all have settled (failures are the caller's call)."""
    futures: list = []
    inflight: deque = deque()
    for kind, key, *value in ops:
        if len(inflight) == window:
            wait([inflight.popleft()])
        submit = cluster.submit_put if kind == "put" else cluster.submit_get
        inflight.append(submit(key, *value))
        futures.append(inflight[-1])
    wait(futures)
    return futures


def mixed_ops(seed: int, count: int = 400, keys: int = 6) -> List[tuple]:
    """A 50/50 put/get stream over a few hot keys: the folds mix both."""
    rng = random.Random(seed)
    return [
        ("put", f"k{rng.randrange(keys)}", f"v{index}") if rng.random() < 0.5
        else ("get", f"k{rng.randrange(keys)}")
        for index in range(count)
    ]
