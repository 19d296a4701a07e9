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

from repro.cluster import ClusterEngine
from repro.protocols.kvs import Response, ResponseKind

NEVER = float("inf")
#: Search states one key may visit: a bound on time and memory, far above
#: what the suites' histories need (one issuer, eight in flight).
MAX_STATES = 200_000


@dataclass
class Op:
    """One recorded request: its interval, its issuer, and what it saw."""

    kind: str  # "put" / "get" / "delete"
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

    def violations(self) -> List[Tuple[Hashable, str]]:
        """Every ``(scope, key)`` whose sub-history has no linearization."""
        by_key: Dict[Tuple[Hashable, str], List[Op]] = {}
        with self._lock:
            for scope, op in self.ops:
                if op.ok or op.kind != "get":  # a failed read changed nothing
                    by_key.setdefault((scope, op.key), []).append(op)
        return [key for key, ops in by_key.items() if not linearizable(ops)]


def _apply(op: Op, binding: Optional[str]) -> Optional[str]:
    if op.kind == "put":
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
                    if op.output == binding and search(after, rest, _apply(op, binding)):
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
    serials = itertools.count()

    def scope(cluster: ClusterEngine) -> Hashable:
        if cluster.durability is not None:
            return cluster.durability.root
        if not hasattr(cluster, "_history_scope"):
            cluster._history_scope = next(serials)
        return cluster._history_scope

    def recorded(kind: str, real):
        def submit(cluster, key, *args, **kwargs):
            if kwargs.get("quorum"):
                return real(cluster, key, *args, **kwargs)
            op = history.invoke(scope(cluster), kind, key, args[0] if args else None)
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


@pytest.fixture(autouse=True)
def linearizable_history(monkeypatch) -> Iterator[History]:
    """Record a test's single requests; fail it unless every key linearizes.

    Autouse wherever it is imported: the failover and promotion chaos
    suites check every history they produce.
    """
    history = record_single_requests(monkeypatch)
    yield history
    assert history.violations() == []


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
