"""Tests for persistent ChoreoEngine sessions and their named backends."""

from __future__ import annotations

import threading
import time
from collections import deque

import pytest

from repro import ChoreoEngine
from repro.core.errors import CensusError, ChoreographyRuntimeError, OwnershipError
from repro.core.located import Located
from repro.runtime.central import CentralOp, run_centralized
from repro.runtime.local import LocalTransport
from repro.runtime.stats import ChannelStats
from repro.runtime.tcp import TCPTransport

CENSUS = ["alice", "bob", "carol"]

ALL_BACKENDS = ["local", "tcp", "asyncio", "simulated", "central"]


def ping_pong(op, payload):
    at_bob = op.comm("alice", "bob", op.locally("alice", lambda _un: payload))
    echoed = op.locally("bob", lambda un: un(at_bob) + "!")
    return op.broadcast("bob", echoed)


def bookstore(op, title):
    """The quickstart choreography: request, lookup, broadcast the price."""
    catalogue = {"HoTT": 120, "TAPL": 80, "SICP": 40}
    wanted = op.locally("buyer", lambda _un: title)
    request = op.comm("buyer", "seller", wanted)
    price = op.locally("seller", lambda un: catalogue.get(un(request), -1))
    amount = op.broadcast("seller", price)
    if amount < 0:
        return f"{title}: not in catalogue"
    return f"{title}: {amount}"


class TestOneEngineEveryBackend:
    """Acceptance: all four backends run the quickstart choreography through
    the single ``ChoreoEngine``/``engine.run`` surface."""

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_quickstart_runs_on_every_backend(self, backend):
        with ChoreoEngine(["buyer", "seller"], backend=backend) as engine:
            result = engine.run(bookstore, args=("TAPL",))
            assert result.returns["buyer"] == "TAPL: 80"
            assert result.returns["buyer"] == result.returns["seller"]
            assert result.stats.snapshot() == {
                ("buyer", "seller"): 1,
                ("seller", "buyer"): 1,
            }

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_failures_surface_uniformly(self, backend):
        def broken(op):
            return op.locally("alice", lambda _un: 1 / 0)

        with ChoreoEngine(CENSUS, backend=backend) as engine:
            with pytest.raises(ChoreographyRuntimeError) as err:
                engine.run(broken)
            # the centralized backend has one worker, so it names no endpoint
            expected = "<centralized>" if backend == "central" else "alice"
            assert err.value.location == expected
            assert isinstance(err.value.original, ZeroDivisionError)
            # the session survives a failed instance
            assert engine.run(ping_pong, args=("ok",)).returns["carol"] == "ok!"


class TestEngineReuse:
    """N sequential runs reuse one warm transport: no re-setup per instance."""

    def _spy_endpoint_creation(self, transport):
        created = []
        original = transport._make_endpoint

        def counting_make_endpoint(location):
            created.append(location)
            return original(location)

        transport._make_endpoint = counting_make_endpoint
        return created

    @pytest.mark.parametrize("transport_cls", [LocalTransport, TCPTransport])
    def test_sequential_runs_share_one_transport(self, transport_cls):
        transport = transport_cls(CENSUS, timeout=10.0)
        created = self._spy_endpoint_creation(transport)
        try:
            with ChoreoEngine(CENSUS, backend=transport) as engine:
                assert sorted(created) == sorted(CENSUS)
                for index in range(4):
                    result = engine.run(ping_pong, args=(f"m{index}",))
                    assert result.returns["alice"] == f"m{index}!"
                # endpoints were materialized exactly once, at engine start
                assert sorted(created) == sorted(CENSUS)
                assert engine.transport is transport
        finally:
            transport.close()

    def test_per_run_stats_are_deltas_and_cumulative_on_engine(self):
        with ChoreoEngine(CENSUS, backend="local") as engine:
            first = engine.run(ping_pong, args=("x",))
            second = engine.run(ping_pong, args=("y",))
        per_run = {("alice", "bob"): 1, ("bob", "alice"): 1, ("bob", "carol"): 1}
        assert first.stats.snapshot() == per_run
        assert second.stats.snapshot() == per_run
        assert first.instance == 0 and second.instance == 1
        assert first.elapsed_seconds > 0 and second.elapsed_seconds > 0
        assert engine.stats.snapshot() == {channel: 2 for channel in per_run}

    @pytest.mark.parametrize("backend", ["local", "tcp", "asyncio"])
    def test_engine_runs_keep_byte_accounting_exact(self, backend):
        """Instance scoping must not inflate recorded payload bytes: engine
        runs agree with the centralized cost model byte-for-byte."""
        from repro.analysis import communication_cost

        def share_bit(op):
            bit = op.locally("alice", lambda _un: True)
            return op.broadcast("alice", bit)

        predicted = communication_cost(share_bit, CENSUS)
        with ChoreoEngine(CENSUS, backend=backend) as engine:
            engine.run(ping_pong, args=("warm",))  # a prior instance ran first
            result = engine.run(share_bit)
        assert result.stats.total_bytes == predicted.total_bytes
        # a boolean share is one wire byte per receiver, instance tag or not
        assert result.stats.payload_bytes[("alice", "bob")] == 1

    def test_worker_threads_are_daemons(self):
        with ChoreoEngine(CENSUS, backend="local") as engine:
            engine.run(ping_pong, args=("x",))
            workers = [t for t in threading.enumerate() if t.name.startswith("engine-")]
            assert workers
            assert all(worker.daemon for worker in workers)


def staggered(op, payload, delay):
    """carol reports to alice immediately; alice/bob then ping-pong slowly.

    With pipelined submissions carol races ahead to later instances while
    alice is still mid-earlier-instance, so instance tags are exercised.
    """
    early = op.comm("carol", "alice", op.locally("carol", lambda _un: payload * 10))
    at_bob = op.comm("alice", "bob", op.locally("alice", lambda _un: payload))
    slowed = op.locally("bob", lambda un: (time.sleep(delay), un(at_bob))[1])
    back = op.comm("bob", "alice", slowed)
    total = op.locally("alice", lambda un: un(back) + un(early))
    return op.broadcast("alice", total)


class TestPipelinedSubmissions:
    @pytest.mark.parametrize("backend", ["local", "tcp", "asyncio"])
    def test_concurrent_submits_do_not_interleave(self, backend):
        with ChoreoEngine(CENSUS, backend=backend, timeout=10.0) as engine:
            futures = [
                engine.submit(staggered, args=(index, 0.02 if index == 0 else 0.0))
                for index in range(6)
            ]
            results = [future.result(timeout=30.0) for future in futures]
        for index, result in enumerate(results):
            assert result.returns["alice"] == index * 11
            assert result.returns["carol"] == index * 11
            # every run's stats delta is exactly one instance's traffic:
            # carol→alice, alice→bob, bob→alice, broadcast alice→{bob, carol}
            assert result.stats.total_messages == 5
        assert [result.instance for result in results] == list(range(6))

    def test_pipelining_after_a_failed_instance(self):
        """A failed instance's unconsumed messages must not leak into later ones.

        bob dies before receiving, so alice's instance-0 message is left in
        the channel; instance 1 must drop that stale-tagged leftover and see
        its own payload.
        """

        def leaky(op, boom, payload):
            if boom:
                op.locally("bob", lambda _un: 1 / 0)  # bob dies; alice skips this
            at_bob = op.comm("alice", "bob", op.locally("alice", lambda _un: payload))
            return op.locally("bob", lambda un: un(at_bob))

        with ChoreoEngine(CENSUS, backend="local", timeout=5.0) as engine:
            bad = engine.submit(leaky, args=(True, "stale"))
            good = engine.submit(leaky, args=(False, "fresh"))
            with pytest.raises(ChoreographyRuntimeError) as err:
                bad.result(timeout=30.0)
            assert isinstance(err.value.original, ZeroDivisionError)
            result = good.result(timeout=30.0)
            assert result.value_at("bob") == "fresh"


class TestStashPurging:
    """A long-lived session must not accumulate stash entries (memory leak)."""

    @pytest.mark.parametrize("backend", ["local", "asyncio"])
    def test_racing_failure_leaves_no_stash_entries(self, backend):
        """a fails instance 0 before sending, so b stashes instance-1 traffic
        while still blocked in instance 0; after both instances resolve, every
        worker stash must be empty again.

        The choreography is deliberately one-way (a → b): a's instance-1
        completion must not depend on b, because b can only leave its doomed
        instance-0 wait by receive timeout — any a-side wait on b would race
        that timeout.
        """

        def flaky(op, boom):
            def compute(_un):
                if boom:
                    raise RuntimeError("boom")
                return 42

            value = op.locally("a", compute)
            at_b = op.comm("a", "b", value)
            return op.locally("b", lambda un: un(at_b))

        with ChoreoEngine(["a", "b"], backend=backend, timeout=1.0) as engine:
            bad = engine.submit(flaky, args=(True,))
            good = engine.submit(flaky, args=(False,))
            with pytest.raises(ChoreographyRuntimeError) as err:
                bad.result(timeout=30.0)
            assert isinstance(err.value.original, RuntimeError)
            result = good.result(timeout=30.0)
            assert result.value_at("b") == 42
            assert all(stash == {} for stash in engine._stashes.values()), (
                engine._stashes
            )

    def test_stale_stash_keys_below_current_are_purged(self):
        """Regression: entries for completed/failed instances used to linger —
        the per-instance pop only removed the *current* instance's key, so a
        key from a skipped instance stayed forever.  Run end now purges every
        key ≤ the just-finished instance."""
        from collections import deque

        with ChoreoEngine(CENSUS, backend="local", timeout=5.0) as engine:
            engine.run(ping_pong, args=("x",))  # instance 0
            # Plant the leak shape directly: a stash entry whose instance has
            # already finished and will therefore never consume it.
            engine._stashes["alice"][0] = {"carol": deque(["dead"])}
            engine.run(ping_pong, args=("y",))  # instance 1: purge keys <= 1
            assert engine._stashes["alice"] == {}


def relay(op, payload):
    """Census-polymorphic: the payload hops along the census, then the last
    member broadcasts it."""
    members = list(op.census)
    value = op.locally(members[0], lambda _un: payload)
    for sender, receiver in zip(members, members[1:]):
        value = op.comm(sender, receiver, value)
    return op.broadcast(members[-1], value)


SUB_CENSUS_BACKENDS = ["local", "tcp", "central"]


class TestSubCensusInstances:
    """``census=`` is ``op.conclave(census, chor)`` applied at dispatch: only
    the members' workers run the instance."""

    @pytest.mark.parametrize("backend", SUB_CENSUS_BACKENDS)
    def test_non_members_hold_the_placeholder_and_never_wake(self, backend, engine_jobs):
        with ChoreoEngine(CENSUS, backend=backend) as engine:
            result = engine.run(ping_pong, args=("x",), census=["alice", "bob"])
        assert result.census == CENSUS
        assert result.returns["carol"] is Located.absent(["alice", "bob"])
        assert result.present_values() == {"alice": "x!", "bob": "x!"}
        assert result.value_at("carol", default="skipped") == "skipped"
        assert result.stats.snapshot() == {("alice", "bob"): 1, ("bob", "alice"): 1}
        if backend != "central":
            assert engine_jobs == {"alice": 1, "bob": 1}

    @pytest.mark.parametrize("backend", SUB_CENSUS_BACKENDS)
    def test_addressing_a_non_member_fails_at_the_sender(self, backend):
        def chor(op):
            return op.comm("alice", "carol", op.locally("alice", lambda _un: 1))

        with ChoreoEngine(CENSUS, backend=backend, timeout=30.0) as engine:
            started = time.monotonic()
            with pytest.raises(ChoreographyRuntimeError) as err:
                engine.run(chor, census=["alice", "bob"])
            assert time.monotonic() - started < 10.0  # no receive timed out
        assert all(isinstance(exc, CensusError) for exc in err.value.failures.values())
        if backend != "central":
            assert err.value.location == "alice"
            assert engine.stats.total_messages == 0

    @pytest.mark.parametrize("backend", SUB_CENSUS_BACKENDS)
    def test_census_must_be_a_nonempty_subset(self, backend):
        with ChoreoEngine(CENSUS, backend=backend) as engine:
            with pytest.raises(CensusError):
                engine.submit(ping_pong, args=("x",), census=["alice", "mallory"])
            with pytest.raises(CensusError):
                engine.submit(ping_pong, args=("x",), census=[])
            with pytest.raises(ValueError):
                engine.submit(ping_pong, args=("x",), census=["alice", "bob"],
                              location_args={"carol": ("y",)})
            assert engine.pending == 0
            assert engine.run(ping_pong, args=("ok",)).value_at("carol") == "ok!"

    def test_pipelined_full_and_narrowed_instances(self):
        censuses = [CENSUS, ["carol", "alice"], CENSUS, ["bob", "carol"]]
        window: deque = deque()

        def check(index, members, future):
            result = future.result(timeout=30.0)
            assert result.instance == index
            for location in CENSUS:
                if location in members:
                    assert result.value_at(location) == index
                else:
                    assert result.returns[location] is Located.absent(members)

        with ChoreoEngine(CENSUS, backend="tcp", timeout=10.0) as engine:
            for index in range(200):
                if len(window) == 8:
                    check(*window.popleft())
                members = censuses[index % len(censuses)]
                window.append((index, members, engine.submit(
                    relay, args=(index,), census=members)))
            while window:
                check(*window.popleft())
            assert all(stash == {} for stash in engine._stashes.values()), engine._stashes


class TestEngineLifecycle:
    def test_context_manager_closes_owned_transport(self):
        engine = ChoreoEngine(CENSUS, backend="local")
        engine.run(ping_pong, args=("x",))
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.submit(ping_pong, args=("y",))
        engine.close()  # idempotent

    def test_borrowed_transport_left_open(self):
        transport = LocalTransport(CENSUS, timeout=5.0)
        with ChoreoEngine(CENSUS, backend=transport) as engine:
            result = engine.run(ping_pong, args=("x",))
        # result.stats is this run's delta; the borrowed transport accumulates
        # the same messages on its own (cumulative) stats
        assert result.stats is not transport.stats
        assert result.stats.snapshot() == transport.stats.snapshot()
        transport.endpoint("alice").send("bob", 1)
        transport.endpoint("alice").flush()
        assert transport.endpoint("bob").recv("alice") == 1
        transport.close()

    def test_close_drains_pending_submissions(self):
        engine = ChoreoEngine(CENSUS, backend="local", timeout=5.0)
        futures = [engine.submit(ping_pong, args=(f"m{i}",)) for i in range(4)]
        engine.close()
        assert [f.result(timeout=1.0).returns["alice"] for f in futures] == [
            "m0!", "m1!", "m2!", "m3!",
        ]

    @pytest.mark.parametrize("backend", ["local", "central"])
    def test_cancelled_future_does_not_kill_the_workers(self, backend):
        """Cancelling a pending Future makes the worker's later ``set_result``
        raise ``InvalidStateError``; the session must shrug it off."""
        release = threading.Event()

        def gated(op):
            return op.locally("alice", lambda _un: release.wait(10.0))

        with ChoreoEngine(CENSUS, backend=backend, timeout=5.0) as engine:
            future = engine.submit(gated)
            assert future.cancel()
            release.set()
            assert engine.run(ping_pong, args=("after",)).returns["carol"] == "after!"
            assert engine.pending == 0

    def test_one_live_engine_per_transport(self):
        """Two live engines on one transport would share cached endpoints and
        collide on instance ids; the second engine must be refused."""
        transport = LocalTransport(CENSUS, timeout=5.0)
        try:
            with ChoreoEngine(CENSUS, backend=transport) as engine:
                engine.run(ping_pong, args=("x",))
                with pytest.raises(ValueError, match="another live ChoreoEngine"):
                    ChoreoEngine(CENSUS, backend=transport)
            # the lease is released on close: a new session may claim it
            with ChoreoEngine(CENSUS, backend=transport) as engine:
                assert engine.run(ping_pong, args=("y",)).returns["bob"] == "y!"
        finally:
            transport.close()

    def test_backend_options_rejected_for_prebuilt_backends(self):
        transport = LocalTransport(CENSUS, timeout=5.0)
        with pytest.raises(ValueError, match="backend options"):
            ChoreoEngine(CENSUS, backend=transport, latency=1.0)
        transport.close()

    def test_location_args_routed_per_endpoint(self):
        def chor(op, mine=None):
            facets = op.parallel(list(op.census), lambda loc, _un: mine)
            gathered = op.gather(list(op.census), [list(op.census)[0]], facets)
            first = list(op.census)[0]
            total = op.locally(first, lambda un: sum(un(gathered).values()))
            return op.broadcast(first, total)

        with ChoreoEngine(["a", "b"], backend="local") as engine:
            result = engine.run(chor, location_args={"a": (1,), "b": (2,)})
            assert result.returns["a"] == 3

    def test_kwargs_passed_to_every_endpoint(self):
        def chor(op, *, suffix):
            return op.broadcast("alice", op.locally("alice", lambda _un: "x" + suffix))

        with ChoreoEngine(["alice", "bob"], backend="local") as engine:
            result = engine.run(chor, kwargs={"suffix": "!"})
        assert result.returns == {"alice": "x!", "bob": "x!"}

    @pytest.mark.parametrize("backend", ["local", "central"])
    def test_legitimate_none_return_is_present(self, backend):
        # Presence is ownership, not a comparison against None: a choreography
        # that genuinely returns None at an owner must show up in the result.
        def chor(op):
            return op.locally("alice", lambda _un: None)

        with ChoreoEngine(["alice", "bob"], backend=backend) as engine:
            result = engine.run(chor)
        assert result.has_value("alice") is True
        assert result.has_value("bob") is False
        assert result.present_values() == {"alice": None}
        assert result.value_at("alice", default="missing") is None
        assert result.value_at("bob", default="missing") == "missing"


class TestCentralBackend:
    def test_location_args_rejected(self):
        with ChoreoEngine(["a", "b"], backend="central") as engine:
            with pytest.raises(ValueError, match="per-location arguments"):
                engine.submit(ping_pong, args=("x",), location_args={"a": (1,)})

    def test_returns_are_localized(self):
        def chor(op):
            return op.locally("alice", lambda _un: 7)

        with ChoreoEngine(CENSUS, backend="central") as engine:
            result = engine.run(chor)
        assert result.value_at("alice") == 7
        assert result.has_value("bob") is False
        assert result.present_values() == {"alice": 7}

    def test_census_violations_are_wrapped(self):
        def chor(op):
            return op.locally("mallory", lambda _un: 1)

        with ChoreoEngine(CENSUS, backend="central") as engine:
            with pytest.raises(ChoreographyRuntimeError) as err:
                engine.run(chor)
            assert isinstance(err.value.original, CensusError)


class TestCentralOp:
    def test_run_centralized_matches_distributed_result(self):
        with ChoreoEngine(CENSUS, backend="local") as engine:
            distributed = engine.run(ping_pong, args=("z",))
        stats = ChannelStats()
        central_value = run_centralized(ping_pong, CENSUS, "z", stats=stats)
        assert central_value == "z!"
        assert stats.snapshot() == distributed.stats.snapshot()

    def test_locally_checks_census(self):
        op = CentralOp(["a", "b"])
        with pytest.raises(CensusError):
            op.locally("z", lambda _un: 1)

    def test_multicast_checks_ownership(self):
        op = CentralOp(["a", "b"])
        with pytest.raises(OwnershipError):
            op.multicast("a", ["b"], Located(["b"], 1))

    def test_multicast_counts_would_be_messages(self):
        op = CentralOp(["a", "b", "c"])
        value = op.locally("a", lambda _un: "payload")
        op.multicast("a", ["a", "b", "c"], value)
        assert op.stats.total_messages == 2

    def test_naked_requires_full_census(self):
        op = CentralOp(["a", "b"])
        with pytest.raises(OwnershipError):
            op.naked(Located(["a"], 1))
        assert op.naked(Located(["a", "b"], 5)) == 5

    def test_naked_requires_known_owners(self):
        op = CentralOp(["a", "b"])
        with pytest.raises(OwnershipError):
            op.naked(Located.absent(None))

    def test_congruently_checks_replica_ownership(self):
        op = CentralOp(["a", "b", "c"])
        partial = op.locally("a", lambda _un: 1)
        with pytest.raises(OwnershipError):
            op.congruently(["a", "b"], lambda un: un(partial))

    def test_conclave_shares_stats_with_parent(self):
        op = CentralOp(["a", "b", "c"])

        def sub(inner):
            payload = inner.locally("a", lambda _un: 1)
            return inner.broadcast("a", payload)

        op.conclave(["a", "b"], sub)
        assert op.stats.total_messages == 1

    def test_faceted_unwrap_requires_owner_name(self):
        op = CentralOp(["a", "b"])
        faceted = op.parallel(["a", "b"], lambda loc, _un: loc)
        with pytest.raises(OwnershipError):
            op.congruently(["a", "b"], lambda un: un(faceted))


class TestBackends:
    def test_prebuilt_custom_transport_runs(self):
        class TracingTransport(LocalTransport):
            pass

        transport = TracingTransport(CENSUS)
        try:
            with ChoreoEngine(CENSUS, backend=transport) as engine:
                assert engine.transport is transport
                assert engine.run(ping_pong, args=("x",)).returns["bob"] == "x!"
        finally:
            transport.close()

    def test_unknown_backend_lists_the_names(self):
        with pytest.raises(ValueError, match="unknown transport/backend 'carrier-pigeon'") as err:
            ChoreoEngine(CENSUS, backend="carrier-pigeon")
        assert "choose from ['asyncio', 'central', 'local', 'simulated', 'tcp']" in str(err.value)

    def test_simulated_backend_options_forwarded(self):
        with ChoreoEngine(CENSUS, backend="simulated", latency=2.5, bandwidth=1e6) as engine:
            assert engine.transport.latency == 2.5
            assert engine.transport.bandwidth == 1e6

    def test_central_runs(self):
        with ChoreoEngine(CENSUS, backend="central") as engine:
            assert engine.transport is None
            assert engine.run(ping_pong, args=("x",)).returns["bob"] == "x!"


class TestCloseDeadlineCap:
    """Regression: close() used to wait timeout * 2 * (backlog + 1) — with a
    wedged census and a deep pipelined backlog that is effectively forever."""

    def test_close_is_bounded_with_hung_census_and_deep_backlog(
        self, monkeypatch, caplog
    ):
        from repro.runtime import engine as engine_module

        monkeypatch.setattr(engine_module, "CLOSE_DEADLINE_CAP", 1.0)
        hang = threading.Event()

        def wedge(op):
            return op.locally("a", lambda _un: hang.wait())

        engine = ChoreoEngine(["a", "b"], backend="local", timeout=0.5)
        try:
            for _ in range(1000):
                engine.submit(wedge)
            start = time.monotonic()
            with caplog.at_level("WARNING", logger="repro.runtime.engine"):
                engine.close()
            elapsed = time.monotonic() - start
            # Uncapped, the deadline would be 0.5 * 2 * 1001 ≈ 1001 s; the
            # cap brings it to 0.5 * 2 + 1.0 = 2 s.  Generous headroom for
            # slow CI, but orders of magnitude under the uncapped wait.
            assert elapsed < 20.0
            assert any(
                "abandoned" in record.getMessage() for record in caplog.records
            ), caplog.records
        finally:
            hang.set()  # let the abandoned daemon worker drain

    def test_healthy_backlog_still_drains_fully(self, monkeypatch):
        """The cap must not cut off a *healthy* queue: everything already
        submitted still completes before the transport goes away."""
        from repro.runtime import engine as engine_module

        monkeypatch.setattr(engine_module, "CLOSE_DEADLINE_CAP", 30.0)
        engine = ChoreoEngine(CENSUS, backend="local", timeout=5.0)
        futures = [engine.submit(ping_pong, args=(f"m{i}",)) for i in range(32)]
        engine.close()
        assert [f.result(timeout=1.0).returns["alice"] for f in futures] == [
            f"m{i}!" for i in range(32)
        ]
