"""Chaos suite, part 5: cross-shard transactions — choreographic 2PC.

The promises under test:

* :meth:`~repro.cluster.ClusterEngine.submit_txn` is **atomic across
  shards**: every write in the set applies, or the caller gets the typed
  :class:`~repro.cluster.TxnConflict` / :class:`~repro.cluster.TxnAborted`
  and *nothing* was applied anywhere — no partial transfer is ever visible;
* prepares park per-key **write intents** on every replica (WAL-first on
  durable clusters) and refuse conflicting transactions and failed
  ``expects`` guards; a decide — commit or rollback — always drops the
  intent, so no committed or aborted transaction leaves one dangling;
* the **coordinator decision log** is written before any participant learns
  a commit: a coordinator crash after the log entry is finished forward by
  :meth:`~repro.cluster.ClusterEngine.recover_in_doubt` on restart, a crash
  before it is presumed abort — the in-doubt participant rolls back (and a
  live one expires the intent after :data:`~repro.storage.TXN_INTENT_TTL`
  later prepares, so a dead coordinator cannot block a key forever);
* participant crashes and primary promotions mid-transaction heal through
  the ordinary failover machinery — prepare and decide replay against the
  re-bound group, idempotently;
* the client surface honours the retry contract: ``batch`` and ``txn`` are
  never auto-retried (only idempotent reads are), and a retried quorum
  ``get`` still costs the client side exactly two messages per attempt;
* the acceptance bar: a concurrent bank-transfer workload **conserves the
  total balance** under seeded participant crashes, coordinator crashes,
  and mid-run promotions, leaves no dangling intents, and — because an
  abort applies nothing and transfers commute — converges byte-identically
  with the fault-free same-seed twin;
* what clients saw (``tests/linearizability.py``, autouse): every single
  request, batch, scan and committed transfer forms a linearizable history
  per key, each transfer's writes taking effect between its submit and its
  ack at the commit point, and no read or scan issued after an ack sees
  any of that transfer's keys as they were before it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterClient, ClusterEngine, FaultPlan, TxnAborted, TxnConflict
from repro.core.errors import ChoreographyRuntimeError
from repro.protocols.kvs import Request
from repro.storage import TXN_INTENT_TTL, txns_of
from tests.linearizability import record_single_requests, record_transactions
from tests.test_cluster_failover import BACKEND, CHAOS_SEEDS, TIMEOUT
from tests.test_cluster_promotion import durable_cluster

ACCOUNTS = 8
OPENING = 100


# ---------------------------------------------------------------------- helpers --


@pytest.fixture(autouse=True)
def txn_history(monkeypatch):
    """Record what every test's clients saw; fail it unless each key
    linearizes and no read after a transfer's ack saw the state before it."""
    history = record_transactions(monkeypatch, record_single_requests(monkeypatch))
    yield history
    assert history.violations() == []
    assert history.torn_reads() == []



def open_accounts(kvs, count: int = ACCOUNTS) -> None:
    """Seed ``count`` accounts, each holding the OPENING balance."""
    for index in range(count):
        kvs.put(f"acct{index:02d}", str(OPENING))


def balances(kvs) -> dict:
    return {key: int(value) for key, value in kvs.scan("acct")}


def transfer(kvs, src: str, dst: str, amount: int, *, attempts: int = 50) -> str:
    """One guarded transfer, retried as a *fresh* transaction until it commits.

    Each attempt re-reads both balances and guards the write set with
    ``expects`` — the read-modify-write shape transactions exist for.  An
    abort applied nothing, so retrying from a re-read is always safe; the
    committed effect is "move ``amount`` from src to dst" exactly once.
    """
    for _ in range(attempts):
        source, target = int(kvs.get(src)), int(kvs.get(dst))
        try:
            result = kvs.txn(
                [
                    Request.put(src, str(source - amount)),
                    Request.put(dst, str(target + amount)),
                ],
                expects={src: str(source), dst: str(target)},
            )
        except (TxnAborted, ChoreographyRuntimeError):
            continue
        return result.txn_id
    raise AssertionError(f"transfer {src}->{dst} never committed")


def transfer_plan(count: int, *, seed: int):
    """A deterministic list of (src, dst, amount) transfers for ``seed``."""
    import random

    rng = random.Random(seed)
    plan = []
    for _ in range(count):
        src, dst = rng.sample(range(ACCOUNTS), 2)
        plan.append((f"acct{src:02d}", f"acct{dst:02d}", rng.randint(1, 9)))
    return plan


def assert_no_dangling_intents(cluster) -> None:
    """No *live* replica facet holds a parked write intent."""
    for shard_id, health in cluster.health().items():
        session = cluster.session(shard_id)
        for replica, state in health.replicas.items():
            if state != "up":
                continue  # a crashed facet resolves on rejoin/restart
            facet = session.state.facet_for(replica)
            assert txns_of(facet) == {}, (
                f"{shard_id}/{replica} still holds intents: {txns_of(facet)}"
            )


def settle(cluster, *, timeout: float = 30.0) -> None:
    """Wait for every in-flight submit to resolve (bounded)."""
    import time

    deadline = time.monotonic() + timeout
    while cluster.pending and time.monotonic() < deadline:
        time.sleep(0.01)
    assert cluster.pending == 0


# ----------------------------------------------------------------------- basics --


class TestTxnBasics:
    def test_cross_shard_commit_applies_everywhere(self):
        with ClusterClient(
            shards=2, replication=2, backend=BACKEND, timeout=TIMEOUT
        ) as kvs:
            result = kvs.txn(
                [Request.put("alice", "50"), Request.put("bob", "150")]
            )
            assert result.committed
            assert result.txn_id == "txn-1"
            assert len(result.shards) == len(
                {kvs.cluster.shard_for("alice"), kvs.cluster.shard_for("bob")}
            )
            assert kvs.get("alice") == "50"
            assert kvs.get("bob") == "150"
            assert kvs.cluster.in_doubt() == {}
            assert_no_dangling_intents(kvs.cluster)

    def test_delete_rides_the_write_set(self):
        with ClusterClient(
            shards=2, replication=2, backend=BACKEND, timeout=TIMEOUT
        ) as kvs:
            kvs.put("alice", "50")
            kvs.txn([Request.delete("alice"), Request.put("bob", "200")])
            assert kvs.get("alice") is None
            assert kvs.get("bob") == "200"
            assert_no_dangling_intents(kvs.cluster)

    def test_failed_expects_guard_aborts_with_the_keys(self):
        with ClusterClient(
            shards=2, replication=2, backend=BACKEND, timeout=TIMEOUT
        ) as kvs:
            kvs.put("alice", "50")
            with pytest.raises(TxnConflict) as failure:
                kvs.txn(
                    [Request.put("alice", "0"), Request.put("bob", "50")],
                    expects={"alice": "999"},
                )
            assert failure.value.keys == ("alice",)
            assert failure.value.txn_id
            # Atomicity: the guarded shard refused, so the *other* shard's
            # write must not have landed either.
            assert kvs.get("alice") == "50"
            assert kvs.get("bob") is None
            assert_no_dangling_intents(kvs.cluster)

    def test_parked_intent_refuses_a_conflicting_transaction(self):
        with ClusterEngine(
            shards=1, replication=2, backend=BACKEND, timeout=TIMEOUT
        ) as cluster:
            # Park an intent by stalling the decide phase for one txn.
            real_decide = cluster._decide_phase
            cluster._decide_phase = lambda *args: None
            cluster.submit_txn([Request.put("hot", "1")], txn_id="parked")
            settle(cluster)
            cluster._decide_phase = real_decide
            with pytest.raises(TxnConflict) as failure:
                cluster.submit_txn([Request.put("hot", "2")]).result(timeout=30.0)
            assert failure.value.keys == ("hot",)
            # A disjoint write set sails through.  Its commit is acknowledged
            # at the commit point and owed to the shard; the next dispatch
            # (this GET) carries it there first.
            cluster.submit_txn([Request.put("cold", "3")]).result(timeout=30.0)
            assert cluster.submit_get("cold").result(timeout=30.0).value == "3"
            session = cluster.session("shard0")
            assert session.state.facet_for(session.primary)["cold"] == "3"

    def test_validation_rejects_reads_and_empty_sets(self):
        with ClusterEngine(shards=1, replication=1, backend=BACKEND) as cluster:
            with pytest.raises(ValueError):
                cluster.submit_txn([])
            with pytest.raises(ValueError):
                cluster.submit_txn([Request.get("alice")])

    @pytest.mark.parametrize("replication", [2, 3])
    def test_transfer_message_budget(self, replication):
        """A transfer is one ``kvs_txn`` conclave round per participant
        shard, ``2 + 2·backups`` messages: its decides ride the next round
        on each shard, so a transfer's bill is set by the shards it touches,
        never by per-replica chatter or a second phase."""
        per_round = 2 + 2 * (replication - 1)
        accounts = [f"acct{index:02d}" for index in range(16)]
        with ClusterEngine(shards=4, replication=replication, backend=BACKEND) as cluster:
            for future in cluster.submit_batch([Request.put(a, "100") for a in accounts]):
                future.result(timeout=TIMEOUT)
            spent, touched = [], set()
            for src, dst in zip(accounts[0::2], accounts[1::2]):
                before = cluster.stats.total_messages
                result = cluster.submit_txn(
                    [Request.put(src, "99"), Request.put(dst, "101")],
                    expects={src: "100", dst: "100"},
                ).result(timeout=TIMEOUT)
                assert result.committed
                spent.append(cluster.stats.total_messages - before)
                touched.add(len(result.shards))
                assert spent[-1] == per_round * len(result.shards)
        assert touched == {1, 2}  # both single- and cross-shard transfers ran
        assert sum(spent) / len(spent) <= 4 * per_round

    def test_intent_expires_after_ttl_prepares(self):
        # A coordinator that dies before logging its decision must not block
        # its keys forever: the parked intent is presumed aborted once
        # TXN_INTENT_TTL later prepares have advanced the shard's txn clock.
        with ClusterEngine(
            shards=1, replication=2, backend=BACKEND, timeout=TIMEOUT
        ) as cluster:
            real_decide = cluster._decide_phase
            cluster._decide_phase = lambda *args: None  # coordinator "dies"
            cluster.submit_txn([Request.put("hot", "1")], txn_id="orphan")
            settle(cluster)
            cluster._decide_phase = real_decide
            with pytest.raises(TxnConflict):
                cluster.submit_txn([Request.put("hot", "2")]).result(timeout=30.0)
            # Every prepare — grants and refusals alike — ticks the clock.
            for index in range(TXN_INTENT_TTL):
                cluster.submit_txn(
                    [Request.put(f"fill{index}", "x")]
                ).result(timeout=30.0)
            result = cluster.submit_txn(
                [Request.put("hot", "2")]
            ).result(timeout=30.0)
            assert result.committed
            assert cluster.in_doubt() == {}  # delivers the owed commit
            session = cluster.session("shard0")
            head = session.state.facet_for(session.primary)
            assert head["hot"] == "2"
            assert head.get("orphan") is None  # the orphan applied nothing
            assert_no_dangling_intents(cluster)


# ----------------------------------------------------------- client retry pins --


class TestClientRetryContract:
    """``retries=`` applies to idempotent reads only — pinned, not assumed."""

    def _failing(self, counter, exc):
        def fail(*_args, **_kwargs):
            counter[0] += 1
            raise exc

        return fail

    def test_get_is_retried_but_txn_and_batch_are_not(self):
        boom = ChoreographyRuntimeError("shard0.r0", RuntimeError("flake"))
        with ClusterClient(
            shards=1, replication=1, backend=BACKEND, retries=3
        ) as kvs:
            calls = [0]
            kvs.cluster.submit_get = self._failing(calls, boom)
            with pytest.raises(ChoreographyRuntimeError):
                kvs.get("k")
            assert calls[0] == 4  # retries + the final surfaced attempt

            calls = [0]
            kvs.cluster.submit_txn = self._failing(calls, boom)
            with pytest.raises(ChoreographyRuntimeError):
                kvs.txn([Request.put("k", "v")])
            assert calls[0] == 1  # never auto-retried

            calls = [0]
            kvs.cluster.submit_batch = self._failing(calls, boom)
            with pytest.raises(ChoreographyRuntimeError):
                kvs.batch([Request.put("k", "v")])
            assert calls[0] == 1  # never auto-retried

    def test_retried_quorum_get_still_costs_two_client_messages(self):
        # The docstring's promise: a quorum get is two client-side messages
        # per attempt (key out, majority answer back) — the voting stays
        # inside the replica conclave.  A client-level retry re-issues the
        # attempt; it must not multiply the per-attempt client cost.
        with ClusterClient(
            shards=1, replication=3, backend=BACKEND, retries=2
        ) as kvs:
            kvs.put("k", "v")

            def client_messages() -> int:
                return sum(
                    count
                    for (sender, receiver), count in kvs.stats.messages.items()
                    if "client" in (sender, receiver)
                )

            before = client_messages()
            assert kvs.get("k", quorum=True) == "v"
            assert client_messages() - before == 2

            # Fail the first attempt before any message moves; the retry's
            # single re-issue is the only client traffic.
            real = kvs.cluster.submit_get
            state = {"failed": False}

            def flaky(*args, **kwargs):
                if not state["failed"]:
                    state["failed"] = True
                    raise ChoreographyRuntimeError(
                        "shard0.r0", RuntimeError("flake")
                    )
                return real(*args, **kwargs)

            kvs.cluster.submit_get = flaky
            before = client_messages()
            assert kvs.get("k", quorum=True) == "v"
            assert state["failed"]
            assert client_messages() - before == 2


# ----------------------------------------------------------- coordinator crash --


class TestCoordinatorCrash:
    """The classic 2PC windows, exercised through the durable decision log."""

    def _arm_crash(self, cluster, *, after_log: bool):
        """Make the next decide phase die (optionally after logging commit)."""
        real = cluster._decide_phase

        def dying(txn_id, participants, writes_by_shard, votes, failures, outer):
            cluster._decide_phase = real  # one-shot
            granted = not failures and all(
                vote.value == txn_id for vote in votes.values()
            )
            if after_log and granted:
                with cluster._lock:
                    cluster._txn_log[txn_id] = "commit"
            # ...and the coordinator dies before any decide is fanned out.

        cluster._decide_phase = dying

    def test_crash_after_logging_commit_is_finished_forward(self, tmp_path):
        with durable_cluster(tmp_path, shards=2) as cluster:
            kvs = ClusterClient(cluster)
            open_accounts(kvs, 2)
            self._arm_crash(cluster, after_log=True)
            cluster.submit_txn(
                [Request.put("acct00", "40"), Request.put("acct01", "160")],
                txn_id="inflight",
            )
            settle(cluster)
            # The intents are parked: both participants are in doubt.
            assert any(
                "inflight" in table for table in cluster.in_doubt().values()
            )

        # Restart: recover_in_doubt runs in __init__ and, finding the
        # commit record, finishes the transaction forward.
        with durable_cluster(tmp_path, shards=2) as reopened:
            kvs = ClusterClient(reopened)
            assert kvs.get("acct00") == "40"
            assert kvs.get("acct01") == "160"
            assert reopened.in_doubt() == {}
            assert_no_dangling_intents(reopened)

    def test_crash_before_logging_is_presumed_abort(self, tmp_path):
        with durable_cluster(tmp_path, shards=2) as cluster:
            kvs = ClusterClient(cluster)
            open_accounts(kvs, 2)
            self._arm_crash(cluster, after_log=False)
            cluster.submit_txn(
                [Request.put("acct00", "40"), Request.put("acct01", "160")],
                txn_id="doomed",
            )
            settle(cluster)

        with durable_cluster(tmp_path, shards=2) as reopened:
            kvs = ClusterClient(reopened)
            # No decision record -> presumed abort: nothing applied, and the
            # rolled-back keys serve new transactions immediately.
            assert kvs.get("acct00") == str(OPENING)
            assert kvs.get("acct01") == str(OPENING)
            assert reopened.in_doubt() == {}
            assert_no_dangling_intents(reopened)
            result = kvs.txn([Request.put("acct00", "70")])
            assert result.committed
            assert kvs.get("acct00") == "70"

    def test_recovery_is_idempotent_and_reports_verdicts(self, tmp_path):
        with durable_cluster(tmp_path, shards=2) as cluster:
            kvs = ClusterClient(cluster)
            open_accounts(kvs, 2)
            self._arm_crash(cluster, after_log=True)
            cluster.submit_txn(
                [Request.put("acct00", "40"), Request.put("acct01", "160")],
                txn_id="inflight",
            )
            settle(cluster)

        with durable_cluster(tmp_path, shards=2) as reopened:
            # __init__ already recovered; an explicit re-run finds nothing.
            assert reopened.recover_in_doubt() == {}
            assert ClusterClient(reopened).get("acct00") == "40"
            # The commit recovery finished forward is off the record too.
            assert dict(reopened._txn_log) == {}

    def test_decision_record_holds_only_what_is_in_flight(self, tmp_path):
        with durable_cluster(tmp_path, shards=2) as cluster:
            kvs = ClusterClient(cluster)
            open_accounts(kvs, 2)
            for amount in range(1, 40):
                txn_id = transfer(kvs, "acct00", "acct01", amount % 9 + 1)
                # The record holds the commit its participants are still
                # owed: the next dispatch to each carries the decide, and
                # the record goes once every participant applied it, so
                # neither it nor its checkpoints grow with history.
                assert dict(cluster._txn_log) == {txn_id: "commit"}
            assert cluster.in_doubt() == {}
            assert dict(cluster._txn_log) == {}
            self._arm_crash(cluster, after_log=True)
            cluster.submit_txn([Request.put("acct00", "1")], txn_id="inflight")
            settle(cluster)
            # Logged but never fanned out: this one recovery still needs.
            assert dict(cluster._txn_log) == {"inflight": "commit"}

        with durable_cluster(tmp_path, shards=2) as reopened:
            assert ClusterClient(reopened).get("acct00") == "1"
            assert dict(reopened._txn_log) == {}
            # Fresh ids restart above what is still on record (nothing).
            assert ClusterClient(reopened).txn([Request.put("acct01", "2")]).txn_id == "txn-1"


# ------------------------------------------------------------------ concurrency --


class TestConcurrentTransfers:
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        moves=st.lists(
            st.tuples(
                st.integers(0, ACCOUNTS - 1),
                st.integers(0, ACCOUNTS - 1),
                st.integers(1, 9),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_pipelined_transfers_conserve_the_total_balance(self, moves):
        # All transfers are submitted concurrently with *pre-read* guards,
        # so overlapping write sets race for the same intents: some commit,
        # the rest abort with TxnConflict.  The invariant is that every
        # outcome is atomic — the total balance never drifts.
        with ClusterClient(
            shards=2, replication=2, backend=BACKEND, timeout=TIMEOUT
        ) as kvs:
            open_accounts(kvs)
            books = balances(kvs)
            futures = []
            for src_i, dst_i, amount in moves:
                if src_i == dst_i:
                    continue
                src, dst = f"acct{src_i:02d}", f"acct{dst_i:02d}"
                futures.append(
                    kvs.txn_async(
                        [
                            Request.put(src, str(books[src] - amount)),
                            Request.put(dst, str(books[dst] + amount)),
                        ],
                        expects={src: str(books[src]), dst: str(books[dst])},
                    )
                )
            committed = 0
            for future in futures:
                try:
                    assert future.result(timeout=30.0).committed
                    committed += 1
                except TxnAborted:
                    pass  # lost the race; applied nothing
            final = balances(kvs)
            assert sum(final.values()) == ACCOUNTS * OPENING
            if committed == 0:
                assert final == books
            assert kvs.cluster.in_doubt() == {}
            assert_no_dangling_intents(kvs.cluster)


# ------------------------------------------------------------------- acceptance --


def run_transfers_under_faults(seed: int, plan: FaultPlan, transfers: int = 25):
    """Drive the transfer workload under ``plan``; return the evidence."""
    with ClusterClient(
        shards=2, replication=3, backend=BACKEND, timeout=TIMEOUT, faults=plan
    ) as kvs:
        open_accounts(kvs)
        for src, dst, amount in transfer_plan(transfers, seed=seed):
            transfer(kvs, src, dst, amount)
        final = balances(kvs)
        assert sum(final.values()) == ACCOUNTS * OPENING
        assert kvs.cluster.in_doubt() == {}
        assert_no_dangling_intents(kvs.cluster)
        schedules = {
            shard_id: kvs.cluster.session(shard_id).engine.transport.faults.schedule()
            for shard_id in kvs.shards
        }
        return final, schedules, list(kvs.cluster.promotions)


class TestAcceptance:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_participant_crash_mid_prepare_conserves_balance(self, seed):
        plan = FaultPlan(seed=seed).crash("shard0.r1", after_ops=15)
        final, schedules, _promotions = run_transfers_under_faults(seed, plan)
        assert any(
            event[2] == "crash" for shard in schedules.values() for event in shard
        )
        assert sum(final.values()) == ACCOUNTS * OPENING

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_primary_promotion_mid_transaction_conserves_balance(self, seed):
        plan = FaultPlan(seed=seed).crash("shard0.r0", after_ops=20)
        final, _schedules, promotions = run_transfers_under_faults(seed, plan)
        assert promotions  # the head actually fell mid-workload
        assert sum(final.values()) == ACCOUNTS * OPENING

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_faulty_run_converges_with_the_fault_free_twin(self, seed):
        # Transfers commute and aborts apply nothing, so retry-until-commit
        # makes the final books a pure function of the transfer plan: the
        # crashed run must land byte-identical to the clean one.
        plan = FaultPlan(seed=seed).crash("shard0.r1", after_ops=15)
        faulty, _schedules, _promotions = run_transfers_under_faults(seed, plan)
        with ClusterClient(
            shards=2, replication=3, backend=BACKEND, timeout=TIMEOUT
        ) as clean:
            open_accounts(clean)
            for src, dst, amount in transfer_plan(25, seed=seed):
                transfer(clean, src, dst, amount)
            assert balances(clean) == faulty

    def test_identical_seed_reproduces_the_identical_run(self):
        seed = CHAOS_SEEDS[0]
        plan = lambda: FaultPlan(seed=seed).crash("shard0.r1", after_ops=15)  # noqa: E731
        first = run_transfers_under_faults(seed, plan(), transfers=12)
        second = run_transfers_under_faults(seed, plan(), transfers=12)
        assert first[0] == second[0]  # final books
        assert first[1] == second[1]  # injected fault schedules

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_coordinator_crash_mid_workload_loses_no_committed_transfer(
        self, seed, tmp_path
    ):
        # Half the plan commits normally; then the coordinator dies after
        # logging a commit decision for an in-flight transfer.  The restart
        # must finish that transfer forward and conserve the total balance.
        moves = transfer_plan(12, seed=seed)
        with durable_cluster(tmp_path, shards=2, replication=2) as cluster:
            kvs = ClusterClient(cluster)
            open_accounts(kvs)
            for src, dst, amount in moves[:6]:
                transfer(kvs, src, dst, amount)
            books = balances(kvs)
            src, dst, amount = moves[6]  # transfer_plan never picks src == dst
            real = cluster._decide_phase

            def dying(txn_id, participants, writes_by_shard, votes, failures, outer):
                cluster._decide_phase = real
                granted = not failures and all(
                    vote.value == txn_id for vote in votes.values()
                )
                assert granted  # pre-read guards: nothing contends
                with cluster._lock:
                    cluster._txn_log[txn_id] = "commit"

            cluster._decide_phase = dying
            cluster.submit_txn(
                [
                    Request.put(src, str(books[src] - amount)),
                    Request.put(dst, str(books[dst] + amount)),
                ],
                expects={src: str(books[src]), dst: str(books[dst])},
            )
            settle(cluster)

        with durable_cluster(tmp_path, shards=2, replication=2) as reopened:
            kvs = ClusterClient(reopened)
            final = balances(kvs)
            # The logged commit was finished forward on restart...
            assert final[src] == books[src] - amount
            assert final[dst] == books[dst] + amount
            # ...and nothing anywhere was lost or double-applied.
            assert sum(final.values()) == ACCOUNTS * OPENING
            assert reopened.in_doubt() == {}
            assert_no_dangling_intents(reopened)


# ------------------------------------------------------------------ count guard --


class TestDecidesRideTheNextInstance:
    """Phase two has no instance of its own: a shard's owed decides ride the
    next instance dispatched to it (``engine_jobs`` counts the workers each
    instance wakes; the client joins every instance)."""

    @staticmethod
    def accounts(cluster, count: int = 64) -> dict:
        names = [f"acct{index:03d}" for index in range(count)]
        for future in cluster.submit_batch([Request.put(name, "100") for name in names]):
            future.result(timeout=30.0)
        return {name: 100 for name in names}

    def test_a_transfer_is_one_instance_per_touched_shard(self, engine_jobs):
        import random

        rng = random.Random(11)
        with ClusterEngine(4, replication=2, backend="local") as cluster:
            books = self.accounts(cluster)
            touched = set()
            for _ in range(200):
                src, dst = rng.sample(sorted(books), 2)
                amount = rng.randint(1, 9)
                instances, messages = engine_jobs["client"], cluster.stats.total_messages
                result = cluster.submit_txn(
                    [Request.put(src, str(books[src] - amount)),
                     Request.put(dst, str(books[dst] + amount))],
                    expects={src: str(books[src]), dst: str(books[dst])},
                ).result(timeout=30.0)
                books[src] -= amount
                books[dst] += amount
                assert engine_jobs["client"] - instances == len(result.shards)
                assert cluster.stats.total_messages - messages == 4 * len(result.shards)
                touched.add(len(result.shards))
            assert touched == {1, 2}
            scanned = {}
            for future in cluster.submit_scan("acct").values():
                scanned.update(cluster.response_of(future.result(timeout=30.0)))
            assert scanned == {name: str(balance) for name, balance in books.items()}

    def test_a_get_behind_an_owed_decide_sends_it_first(self, engine_jobs):
        with ClusterEngine(4, replication=2, backend="local") as cluster:
            cluster.submit_txn([Request.put("k", "v")]).result(timeout=30.0)
            shard = cluster.shard_for("k")
            primary, backup = cluster.session(shard).servers
            before, messages = engine_jobs.copy(), cluster.stats.total_messages
            assert cluster.submit_get("k").result(timeout=30.0).value == "v"
            # One decide-only round (client, primary, backup), then the GET.
            assert engine_jobs - before == {"client": 2, primary: 2, backup: 1}
            assert cluster.stats.total_messages - messages == 4 + 2
            before = engine_jobs.copy()
            assert cluster.submit_get("k").result(timeout=30.0).value == "v"
            assert engine_jobs - before == {"client": 1, primary: 1}

    def test_close_delivers_the_owed_decides(self, engine_jobs, tmp_path):
        from repro.storage import Durability, DurableState

        with durable_cluster(tmp_path, shards=4, replication=2, backend="local") as cluster:
            cluster.submit_txn(
                [Request.put(f"k{index}", str(index)) for index in range(8)]
            ).result(timeout=30.0)
            owed = [session for session in map(cluster.session, cluster.shards)
                    if session.owed]
            assert owed and dict(cluster._txn_log) != {}
            before = engine_jobs["client"]
        assert engine_jobs["client"] - before == len(owed)  # one decide-only round each
        durability = Durability(root=str(tmp_path))
        for session in owed:
            for replica in session.servers:
                store = durability.open_state(session.shard_id, replica)
                assert txns_of(store) == {}
                store.close()
        log = DurableState(durability.state_dir("_txn", "coordinator"))
        assert dict(log) == {}
        log.close()
        with durable_cluster(tmp_path, shards=4, replication=2, backend="local") as reopened:
            assert reopened.recover_in_doubt() == {}
            assert ClusterClient(reopened).get("k7") == "7"


# -------------------------------------------------------------------- histories --


class TestTxnHistories:
    """What clients saw across transfers, checked by the autouse recorder:
    per-key linearizability with each transfer's writes between its submit
    and its ack, and no read after an ack that misses any of it."""

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_reads_after_an_ack_see_the_whole_transfer(self, seed, txn_history):
        import random

        rng = random.Random(seed)
        with ClusterClient(shards=2, replication=2, backend=BACKEND, timeout=TIMEOUT) as kvs:
            open_accounts(kvs)
            books = balances(kvs)
            for _ in range(20):
                src, dst = rng.sample(sorted(books), 2)
                amount = rng.randint(1, 9)
                kvs.txn([Request.put(src, str(books[src] - amount)),
                         Request.put(dst, str(books[dst] + amount))],
                        expects={src: str(books[src]), dst: str(books[dst])})
                books[src] -= amount
                books[dst] += amount
                # Pipelined reads of both halves, and now and then a scan
                # across shards: the recorder judges what they saw.
                for read in [kvs.cluster.submit_get(key) for key in (dst, src)]:
                    read.result(timeout=30.0)
                if rng.random() < 0.3:
                    balances(kvs)
        assert txn_history.torn_reads() == []
        assert txn_history.violations() == []

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_reads_wait_behind_a_failed_carrier(self, seed, txn_history):
        """A backup dies inside a decide-only round while a GET waits behind
        it: the round replays on the survivors before the GET goes out."""
        import random

        # The backup's ops: 2 for the opening batch, then 2 per prepare and
        # 2 per carrier, so op 4j + 1 is the j-th carrier's first receive.
        plan = FaultPlan(seed=seed).crash(
            "shard0.r2", after_ops=4 * random.Random(seed).randint(2, 8))
        with ClusterClient(shards=1, replication=3, backend=BACKEND, timeout=TIMEOUT,
                           faults=plan) as kvs:
            for future in kvs.cluster.submit_batch(
                    [Request.put(f"acct{index:02d}", str(OPENING)) for index in range(2)]):
                future.result(timeout=30.0)
            books = {"acct00": OPENING, "acct01": OPENING}
            src, dst = "acct01", "acct00"  # balances never repeat a value
            for _ in range(12):
                kvs.txn([Request.put(src, str(books[src] - 1)),
                         Request.put(dst, str(books[dst] + 1))],
                        expects={src: str(books[src]), dst: str(books[dst])})
                books[src] -= 1
                books[dst] += 1
                kvs.get(src)  # the recorder judges what it saw
            assert kvs.cluster.failovers == [("shard0", "shard0.r2")]
        assert txn_history.torn_reads() == []
        assert txn_history.violations() == []
