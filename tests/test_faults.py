"""Chaos suite, part 1: the deterministic fault-injection subsystem.

Every test here asserts one of the three promises ``repro.faults`` makes:

1. **Determinism** — identical seeds reproduce identical injected schedules
   (and identical :class:`ChannelStats`), on fresh transports, every time.
2. **Invariant preservation** — injected chaos never breaks the guarantees
   the transports owe the choreographies: per-pair FIFO survives reordering,
   held frames are released before any blocking receive (no injected
   deadlock), and message accounting stays exact across injected retries.
3. **Loud failure** — a crashed location fails its instance with a typed,
   diagnosable error (:class:`CrashFault` at the crash site,
   :class:`ChoreoTimeout` at the peers it strands) and the engine's Futures
   always resolve; nothing hangs.

``CHAOS_SEED`` (comma-separated ints) widens the seed sweep; the CI ``chaos``
job runs three fixed seeds.  See ``docs/testing.md`` for the conventions.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import ChoreoEngine, choreography
from repro.core.errors import ChoreographyRuntimeError, ChoreoTimeout, TransportError
from repro.faults import CrashFault, FaultPlan, FaultyEndpoint
from repro.runtime.engine import _TeeStats
from repro.runtime.simulated import SimulatedNetworkTransport
from repro.runtime.stats import ChannelStats
from repro.runtime.tcp import TCPTransport

#: Seeds the schedule-determinism tests sweep; the CI chaos job overrides
#: this through the environment to cover three fixed seeds per backend.
CHAOS_SEEDS = [int(raw) for raw in os.environ.get("CHAOS_SEED", "7").split(",")]


@choreography(census=["a", "b"])
def echo(op, token):
    """a → b → a round trip; the minimal two-message workload."""
    located = op.locally("a", lambda _un: token)
    at_b = op.comm("a", "b", located)
    reply = op.locally("b", lambda un: un(at_b) + "!")
    return op.comm("b", "a", reply)


@choreography(census=["a", "b", "c"])
def fan_round(op, count):
    """a sends ``count`` sequenced messages alternately to b and c, then
    gathers one digest from each — lots of independent-channel traffic."""
    digests = {}
    for peer in ["b", "c"]:
        for index in range(count):
            payload = op.locally("a", lambda _un, _i=index, _p=peer: (_p, _i))
            at_peer = op.comm("a", peer, payload)
            op.locally(peer, lambda un, _p=peer: digests.setdefault(_p, []).append(un(at_peer)))
    checks = {}
    for peer in ["b", "c"]:
        summary = op.locally(
            peer, lambda un, _p=peer: digests.get(_p) == [(_p, i) for i in range(count)]
        )
        at_a = op.comm(peer, "a", summary)
        op.locally("a", lambda un, _p=peer: checks.setdefault(_p, un(at_a)))
    return op.locally("a", lambda _un: dict(checks))


# ---------------------------------------------------------------------------- DSL --


class TestFaultPlanDSL:
    def test_builder_chains(self):
        plan = (
            FaultPlan(seed=7)
            .delay(jitter=0.5, rate=0.3)
            .reorder(rate=0.2, span=3)
            .crash("b", after_ops=10)
            .flaky_connect("a", "b", failures=2)
        )
        assert len(plan.delays) == 1
        assert len(plan.reorders) == 1
        assert plan.crash_rule_for("b").after_ops == 10
        assert plan.flaky_rule_for("a", "b").failures == 2
        assert "seed=7" in repr(plan)

    @pytest.mark.parametrize("rate", [-0.1, 1.5])
    def test_rates_must_be_probabilities(self, rate):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            FaultPlan().delay(jitter=1.0, rate=rate)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            FaultPlan().reorder(rate=rate)

    def test_delay_rejects_negative_jitter(self):
        with pytest.raises(ValueError, match="jitter"):
            FaultPlan().delay(jitter=-1.0)

    def test_reorder_rejects_nonpositive_span(self):
        with pytest.raises(ValueError, match="span"):
            FaultPlan().reorder(rate=0.5, span=0)

    def test_crash_needs_exactly_one_trigger(self):
        with pytest.raises(ValueError, match="exactly one"):
            FaultPlan().crash("a")
        with pytest.raises(ValueError, match="exactly one"):
            FaultPlan().crash("a", after_ops=1, at_time=2.0)

    def test_crash_rejects_wildcard_and_duplicates(self):
        with pytest.raises(ValueError, match="wildcard"):
            FaultPlan().crash("*", after_ops=1)
        plan = FaultPlan().crash("a", after_ops=1)
        with pytest.raises(ValueError, match="already"):
            plan.crash("a", after_ops=2)

    def test_flaky_validation(self):
        with pytest.raises(ValueError, match="failures"):
            FaultPlan().flaky_connect(failures=0)
        with pytest.raises(ValueError, match="max_retries"):
            FaultPlan().flaky_connect(max_retries=-1)

    def test_wildcards_match_any_channel(self):
        plan = FaultPlan(seed=1).delay(jitter=1.0, rate=1.0)
        assert plan.delay_for("x", "y", 0) > 0
        assert plan.delay_for("p", "q", 3) > 0

    def test_concrete_patterns_only_match_their_channel(self):
        plan = FaultPlan(seed=1).delay("a", "b", jitter=1.0, rate=1.0)
        assert plan.delay_for("a", "b", 0) > 0
        assert plan.delay_for("b", "a", 0) == 0.0
        assert plan.delay_for("a", "c", 0) == 0.0

    def test_decisions_are_pure_functions_of_seed_and_index(self):
        one = FaultPlan(seed=9).delay(jitter=1.0, rate=0.5).reorder(rate=0.5, span=4)
        two = FaultPlan(seed=9).delay(jitter=1.0, rate=0.5).reorder(rate=0.5, span=4)
        for index in range(50):
            assert one.delay_for("a", "b", index) == two.delay_for("a", "b", index)
            assert one.reorder_hold("a", "b", index) == two.reorder_hold("a", "b", index)

    def test_different_seeds_draw_different_decisions(self):
        one = FaultPlan(seed=1).delay(jitter=1.0, rate=0.5)
        two = FaultPlan(seed=2).delay(jitter=1.0, rate=0.5)
        draws = [(one.delay_for("a", "b", i), two.delay_for("a", "b", i)) for i in range(64)]
        assert any(x != y for x, y in draws)

    def test_sessions_do_not_share_logs(self):
        plan = FaultPlan(seed=1)
        first, second = plan.session(), plan.session()
        first.record("delay", "a", "b", 1, 0.5)
        assert len(first.events) == 1
        assert second.events == ()


# ------------------------------------------------------------------- mechanics --


def run_fan_round(plan, *, count=12, backend="simulated", timeout=5.0):
    with ChoreoEngine(["a", "b", "c"], backend=backend, faults=plan, timeout=timeout) as engine:
        result = engine.run(fan_round, args=(count,))
        return result, engine.transport.faults, engine.stats.snapshot()


class TestInjectionMechanics:
    def test_delay_advances_virtual_clock_not_wall_clock(self):
        heavy = FaultPlan(seed=3).delay(jitter=5.0, rate=1.0)
        started = time.perf_counter()
        with ChoreoEngine(["a", "b"], backend="simulated", faults=heavy) as engine:
            engine.run(echo, args=("hi",))
            jittered = engine.transport.critical_path
        assert time.perf_counter() - started < 3.0  # no real sleeping
        with ChoreoEngine(["a", "b"], backend="simulated") as engine:
            engine.run(echo, args=("hi",))
            baseline = engine.transport.critical_path
        assert jittered > baseline

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_reorder_preserves_per_pair_fifo(self, seed):
        plan = FaultPlan(seed=seed).reorder(rate=0.6, span=4)
        result, session, _stats = run_fan_round(plan)
        # The choreography itself checks sequence numbers at each receiver.
        assert result.value_at("a") == {"b": True, "c": True}
        assert any(event.kind == "reorder" for event in session.events)

    def test_reorder_releases_before_blocking_recv(self):
        # Hold *every* a→b send back as far as possible: if held frames were
        # not released before a blocks receiving b's reply, this would
        # deadlock until the timeout instead of completing.
        plan = FaultPlan(seed=1).reorder("a", "b", rate=1.0, span=10)
        with ChoreoEngine(["a", "b"], backend="simulated", faults=plan, timeout=3.0) as engine:
            result = engine.run(echo, args=("ping",))
        assert result.value_at("a") == "ping!"

    def test_crash_after_ops_kills_every_later_op(self):
        plan = FaultPlan(seed=1).crash("b", after_ops=0)
        transport = SimulatedNetworkTransport(["a", "b"], faults=plan)
        endpoint = transport.endpoint("b")
        assert isinstance(endpoint, FaultyEndpoint)
        assert not endpoint.crashed
        with pytest.raises(CrashFault):
            endpoint.send("a", "boom")
        assert endpoint.crashed
        with pytest.raises(CrashFault):
            endpoint.recv("a")
        endpoint.flush()  # a dead location's flush is a safe no-op
        transport.close()

    def test_held_frame_discarded_by_a_crash_stays_counted(self):
        """Frames are counted when sent: a reorder-held frame its sender's
        later crash discards is in ``ChannelStats`` but never arrives, like
        a coalesced frame still in a write buffer at ``close()``."""
        plan = FaultPlan(seed=1).reorder("a", "b", rate=1.0, span=10).crash("a", after_ops=1)
        transport = SimulatedNetworkTransport(["a", "b"], faults=plan, timeout=0.1)
        a, b = transport.endpoint("a"), transport.endpoint("b")
        a.send("b", "held")  # op 1: accepted and held
        assert transport.stats.snapshot() == {("a", "b"): 1}
        with pytest.raises(CrashFault):
            a.send("b", "never sent")  # op 2: the crash drops what was held
        a.flush()
        with pytest.raises(ChoreoTimeout):
            b.recv("a")
        assert transport.stats.snapshot() == {("a", "b"): 1}
        assert [event.kind for event in transport.faults.events] == ["reorder", "crash"]
        transport.close()

    def test_crash_at_time_uses_the_virtual_clock(self):
        plan = FaultPlan(seed=1).crash("b", at_time=4.0)
        transport = SimulatedNetworkTransport(["a", "b"], faults=plan, latency=1.0)
        b = transport.endpoint("b")
        transport.advance_clock("b", 10.0)
        with pytest.raises(CrashFault):
            b.send("a", "too late")
        transport.close()

    def test_crash_at_time_requires_a_clock(self):
        plan = FaultPlan(seed=1).crash("b", at_time=4.0)
        with pytest.raises(ValueError, match="simulated"):
            TCPTransport(["a", "b"], faults=plan).endpoint("b")

    def test_flaky_connect_is_transparent_within_budget(self):
        plan = FaultPlan(seed=5).flaky_connect("a", "b", failures=2, max_retries=3)
        with ChoreoEngine(["a", "b"], backend="simulated", faults=plan) as engine:
            result = engine.run(echo, args=("ok",))
            events = engine.transport.faults.events
        assert result.value_at("a") == "ok!"
        assert [event.kind for event in events] == ["connect-fail", "connect-fail"]

    def test_flaky_connect_surfaces_past_budget_then_recovers(self):
        plan = FaultPlan(seed=5).flaky_connect("a", "b", failures=1, max_retries=0)
        with ChoreoEngine(["a", "b"], backend="simulated", faults=plan, timeout=0.3) as engine:
            with pytest.raises(ChoreographyRuntimeError) as failure:
                engine.run(echo, args=("first",))
            assert isinstance(failure.value.original, TransportError)
            assert "transient connect failure" in str(failure.value.original)
            # The planned failures are spent; the channel works from now on.
            assert engine.run(echo, args=("second",)).value_at("a") == "second!"

    def test_stats_stay_exact_across_injected_retries(self):
        flaky = FaultPlan(seed=5).flaky_connect(failures=3, max_retries=5)
        with ChoreoEngine(["a", "b"], backend="simulated", faults=flaky) as engine:
            engine.run(echo, args=("x",))
            with_faults = engine.stats.snapshot()
        with ChoreoEngine(["a", "b"], backend="simulated") as engine:
            engine.run(echo, args=("x",))
            clean = engine.stats.snapshot()
        # A retried message is recorded once, by the attempt that lands.
        assert with_faults == clean


# ---------------------------------------------------------------- determinism --


class TestScheduleDeterminism:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_identical_seed_identical_schedule_and_stats(self, seed):
        def once():
            plan = (
                FaultPlan(seed=seed)
                .delay(jitter=0.3, rate=0.5)
                .reorder(rate=0.3, span=3)
                .flaky_connect("a", "b", failures=1, max_retries=2)
            )
            result, session, stats = run_fan_round(plan)
            assert result.value_at("a") == {"b": True, "c": True}
            return session.schedule(), stats

        first_schedule, first_stats = once()
        second_schedule, second_stats = once()
        assert first_schedule == second_schedule
        assert len(first_schedule) > 0
        assert first_stats == second_stats

    def test_pinned_schedule_and_stats_on_simulated(self):
        """Literal schedule, counts, bytes and virtual latency of one seeded
        delay + reorder + flaky plan: any change to where the fault layer
        ticks, draws, holds or stamps shows up here as a diff."""
        plan = (
            FaultPlan(seed=7)
            .delay(jitter=0.3, rate=0.5)
            .reorder(rate=0.3, span=3)
            .flaky_connect("a", "b", failures=1, max_retries=2)
        )
        with ChoreoEngine(["a", "b", "c"], backend="simulated", faults=plan, timeout=5.0) as engine:
            result = engine.run(fan_round, args=(4,))
            assert result.value_at("a") == {"b": True, "c": True}
            assert engine.transport.faults.schedule() == (
                ("a", 1, "connect-fail", "b", 1),
                ("a", 2, "delay", "b", 0.07532719695656737),
                ("a", 3, "delay", "b", 0.1626677018132665),
                ("a", 3, "reorder", "b", 2),
                ("a", 4, "reorder", "b", 1),
                ("a", 6, "delay", "c", 0.13489825225494279),
                ("a", 7, "reorder", "c", 2),
                ("a", 8, "delay", "c", 0.04141149806963318),
                ("c", 5, "reorder", "a", 2),
            )
            expected = {("a", "b"): 4, ("a", "c"): 4, ("b", "a"): 1, ("c", "a"): 1}
            assert engine.stats.snapshot() == expected
            assert result.stats.snapshot() == expected
            assert engine.stats.payload_bytes == {
                ("a", "b"): 28, ("a", "c"): 28, ("b", "a"): 1, ("c", "a"): 1,
            }
            assert engine.transport.critical_path == pytest.approx(2.41431264909441, rel=1e-12)

    def test_pinned_flaky_schedule_and_stats_on_tcp(self):
        plan = FaultPlan(seed=7).flaky_connect("a", "b", failures=2, max_retries=3)
        result, session, stats = run_fan_round(plan, count=4, backend="tcp")
        assert result.value_at("a") == {"b": True, "c": True}
        assert session.schedule() == (
            ("a", 1, "connect-fail", "b", 1),
            ("a", 1, "connect-fail", "b", 2),
        )
        assert stats == {("a", "b"): 4, ("a", "c"): 4, ("b", "a"): 1, ("c", "a"): 1}

    def test_different_seed_different_schedule(self):
        _result, session_a, _stats = run_fan_round(
            FaultPlan(seed=1).delay(jitter=0.3, rate=0.5), count=16
        )
        _result, session_b, _stats = run_fan_round(
            FaultPlan(seed=2).delay(jitter=0.3, rate=0.5), count=16
        )
        assert session_a.schedule() != session_b.schedule()

    def test_schedule_is_canonical_across_log_arrival_order(self):
        plan = FaultPlan(seed=3)
        session = plan.session()
        session.record("delay", "b", "a", 2, 0.1)
        session.record("delay", "a", "b", 1, 0.2)
        other = plan.session()
        other.record("delay", "a", "b", 1, 0.2)
        other.record("delay", "b", "a", 2, 0.1)
        assert session.schedule() == other.schedule()
        assert session.events != other.events  # arrival order differs
        assert [event.step for event in session.events_at("a")] == [1]


# -------------------------------------------------------------- engine behaviour --


class TestFaultsThroughTheEngine:
    def test_tcp_backend_accepts_the_same_plan(self):
        plan = (
            FaultPlan(seed=11)
            .delay(jitter=0.002, rate=0.4)
            .flaky_connect("a", "b", failures=1, max_retries=2)
        )
        with ChoreoEngine(["a", "b", "c"], backend="tcp", faults=plan, timeout=5.0) as engine:
            result = engine.run(fan_round, args=(6,))
            assert result.value_at("a") == {"b": True, "c": True}
            assert engine.transport.faults is not None

    def test_asyncio_backend_accepts_the_same_plan(self):
        """The event-loop backend takes the identical FaultPlan; as on
        ``tcp``, its injected delays are sleeps on the sending worker."""
        plan = (
            FaultPlan(seed=11)
            .delay(jitter=0.002, rate=0.4)
            .flaky_connect("a", "b", failures=1, max_retries=2)
        )
        with ChoreoEngine(
            ["a", "b", "c"], backend="asyncio", faults=plan, timeout=5.0
        ) as engine:
            result = engine.run(fan_round, args=(6,))
            assert result.value_at("a") == {"b": True, "c": True}
            assert engine.transport.faults is not None

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_asyncio_chaos_sweep_is_deterministic(self, seed):
        """The seed sweep extends to the asyncio backend: per-channel fault
        decisions are pure functions of (seed, channel, index), so two runs
        under the same seed inject the same canonical schedule and the
        choreography's results survive the chaos."""

        def once():
            plan = (
                FaultPlan(seed=seed)
                .delay(jitter=0.005, rate=0.5)
                .reorder(rate=0.3, span=3)
            )
            result, session, stats = run_fan_round(
                plan, count=5, backend="asyncio"
            )
            assert result.value_at("a") == {"b": True, "c": True}
            return session.schedule(), stats

        first_schedule, first_stats = once()
        second_schedule, second_stats = once()
        assert first_schedule == second_schedule
        assert len(first_schedule) > 0
        assert first_stats == second_stats

    def test_crash_fails_loudly_with_crash_root_cause(self):
        plan = FaultPlan(seed=1).crash("b", after_ops=1)
        with ChoreoEngine(["a", "b"], backend="simulated", faults=plan, timeout=0.3) as engine:
            future = engine.submit(echo, args=("x",))
            with pytest.raises(ChoreographyRuntimeError) as failure:
                future.result(timeout=5.0)  # resolves well before this
        assert failure.value.location == "b"
        assert isinstance(failure.value.original, CrashFault)

    def test_crash_failure_bundle_names_every_location(self):
        plan = FaultPlan(seed=1).crash("b", after_ops=0)
        with ChoreoEngine(["a", "b"], backend="simulated", faults=plan, timeout=0.3) as engine:
            with pytest.raises(ChoreographyRuntimeError) as failure:
                engine.run(echo, args=("x",))
        bundle = failure.value.failures
        assert isinstance(bundle["b"], CrashFault)
        assert isinstance(bundle["a"], ChoreoTimeout)
        assert bundle["a"].waiter == "a"
        assert bundle["a"].peer == "b"

    def test_recv_timeout_is_typed(self):
        @choreography(census=["a", "b"])
        def b_is_slow(op, seconds):
            op.locally("b", lambda _un: time.sleep(seconds))
            payload = op.locally("b", lambda _un: "late")
            return op.comm("b", "a", payload)

        with ChoreoEngine(["a", "b"], backend="local", timeout=0.2) as engine:
            with pytest.raises(ChoreographyRuntimeError) as failure:
                engine.run(b_is_slow, args=(0.6,))
        timeout = failure.value.original
        assert isinstance(timeout, ChoreoTimeout)
        assert isinstance(timeout, TransportError)  # old handlers still match
        assert (timeout.waiter, timeout.peer, timeout.seconds) == ("a", "b", 0.2)

    def test_futures_resolve_after_crash_and_engine_stays_usable(self):
        # Pipeline several instances across a crash: every Future must
        # resolve (success before the crash, failure after), and none may
        # hang — the "fails loudly, never hangs" contract.
        plan = FaultPlan(seed=1).crash("b", after_ops=4)
        with ChoreoEngine(["a", "b"], backend="simulated", faults=plan, timeout=0.3) as engine:
            futures = [engine.submit(echo, args=(f"m{i}",)) for i in range(5)]
            outcomes = []
            for future in futures:
                try:
                    outcomes.append(future.result(timeout=10.0).value_at("a"))
                except ChoreographyRuntimeError:
                    outcomes.append("failed")
        assert outcomes[0] == "m0!"  # 4 ops = two clean round trips at b
        assert outcomes[1] == "m1!"
        assert outcomes[2:] == ["failed", "failed", "failed"]


# ----------------------------------------------------- stats & tee edge cases --


class TestChannelStatsEdgeCases:
    def test_merge_all_of_nothing_is_empty(self):
        merged = ChannelStats.merge_all([])
        assert merged.total_messages == 0
        assert merged.total_bytes == 0
        assert merged.snapshot() == {}

    def test_merge_disjoint_pairs_is_a_union(self):
        left, right = ChannelStats(), ChannelStats()
        left.record("a", "b", 10)
        right.record("c", "d", 20)
        merged = left.merge(right)
        assert merged.snapshot() == {("a", "b"): 1, ("c", "d"): 1}
        assert merged.payload_bytes == {("a", "b"): 10, ("c", "d"): 20}
        # Sources are untouched.
        assert left.snapshot() == {("a", "b"): 1}
        assert right.snapshot() == {("c", "d"): 1}

    def test_nested_tees_reach_every_sink(self):
        a, b, c = ChannelStats(), ChannelStats(), ChannelStats()
        tee = _TeeStats(a, _TeeStats(b, c))
        tee.record("x", "y", 5)
        tee.record_broadcast("x", ["y", "z"], 7)
        expected = {("x", "y"): 2, ("x", "z"): 1}
        for sink in (a, b, c):
            assert sink.snapshot() == expected
            assert sink.total_bytes == 5 + 7 + 7

    def test_use_stats_reattributes_a_wrapped_endpoint(self):
        plan = FaultPlan(seed=1)  # no rules: pure pass-through wrapper
        transport = SimulatedNetworkTransport(["a", "b"], faults=plan)
        endpoint = transport.endpoint("a")
        assert isinstance(endpoint, FaultyEndpoint)
        private = ChannelStats()
        endpoint.use_stats(private)
        endpoint.send("b", "hello")
        endpoint.flush()
        assert transport.stats.total_messages == 0
        assert private.snapshot() == {("a", "b"): 1}
        endpoint.use_stats(transport.stats)
        endpoint.send("b", "again")
        endpoint.flush()
        assert transport.stats.snapshot() == {("a", "b"): 1}
        assert private.snapshot() == {("a", "b"): 1}
        transport.close()
