"""The runtime against the paper's formal model, program by program.

``repro.formal`` checks the paper's theorems against its own projection;
this suite ties that model to the code every workload runs.  Each
generated λC program (:func:`~repro.formal.random_program`) is translated
to a ``ChoreoOp`` choreography (:mod:`tests.formal_runtime`) and run, and:

* (a) every backend leaves each party the formal value masked to it
  (:func:`~repro.formal.evaluate`, then ``V ▷ {p}``);
* (b) each endpoint's ordered ``_send_frame`` / ``_recv_frame`` sequence
  is its λL sequence in a λN run of the projected network
  (:func:`~repro.formal.run_network`), which also fixes every channel's
  message count: the paper's cost claim, action by action;
* (c) a party outside an instance records no action and, under
  ``census=``, its worker never wakes;
* (d) pipelined on four parties under delay and reorder faults, each
  instance at its own sub-census, every value still matches, each
  channel's instance tags arrive in the order they were sent and never
  decrease, and the stash of early arrivals is empty at the end.

Engines use a short receive timeout, so a broken projection fails in
seconds, and each check stops at the first program that differs.  What
the generator never emits (so what this does not cover) is listed in
``docs/testing.md``.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro import ChoreoEngine, FaultPlan
from repro.core import epp
from repro.formal import evaluate, random_program, roles
from tests.formal_runtime import RecordingTransport, choreography, formal_actions, masked_at

PARTIES = ("alice", "bob", "carol")
BACKENDS = ("central", "local", "tcp", "asyncio", "simulated")
PROGRAMS = 500
TIMEOUT = 0.5


@pytest.fixture(scope="module")
def corpus():
    """``(seed, census, expr, value)`` for the generated programs: even
    seeds at depth 3, odd ones at depth 5 (conclaves nested deeper)."""
    programs = []
    for seed in range(PROGRAMS):
        census, expr = random_program(seed, PARTIES, depth=3 + 2 * (seed % 2))
        programs.append((seed, census, expr, evaluate(expr)))
    return programs


def held(result, parties=PARTIES) -> dict:
    """What each party holds after a run (``None`` for a placeholder)."""
    return {party: result.value_at(party) if result.has_value(party) else None
            for party in parties}


class TestValuesMatchTheSemantics:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_party_holds_the_masked_formal_value(self, backend, corpus):
        with ChoreoEngine(PARTIES, backend=backend, timeout=TIMEOUT) as engine:
            for seed, census, expr, value in corpus:
                expected = {party: masked_at(value, party) for party in PARTIES}
                assert held(engine.run(choreography(census, expr))) == expected, seed


class TestActionsMatchTheProjection:
    def test_each_endpoint_acts_in_its_lambda_l_order(self, corpus):
        transport = RecordingTransport(PARTIES, timeout=TIMEOUT)
        communicating = 0
        with ChoreoEngine(PARTIES, backend=transport) as engine:
            for seed, census, expr, _value in corpus:
                transport.clear()
                engine.run(choreography(census, expr))
                formal = formal_actions(expr)
                expected = {party: formal.get(party, []) for party in PARTIES}
                assert transport.actions == expected, seed
                communicating += any(expected.values())
        # Most generated programs communicate; the rest still check that a
        # conclave's outsiders and a literal's owners send nothing.
        assert communicating >= PROGRAMS // 2


class TestOutsidersDoNothing:
    def test_a_party_outside_the_census_records_nothing_and_never_wakes(
            self, corpus, engine_jobs):
        parties = PARTIES + ("dave",)
        transport = RecordingTransport(parties, timeout=TIMEOUT)
        with ChoreoEngine(parties, backend=transport) as engine:
            for seed, _census, expr, value in corpus[:200]:
                members = roles(expr)
                transport.clear()
                engine_jobs.clear()
                result = engine.run(choreography(members, expr), census=sorted(members))
                outsiders = set(parties) - members
                assert set(engine_jobs) == members, seed
                assert all(transport.actions[party] == [] for party in outsiders), seed
                assert held(result, parties) == {
                    party: masked_at(value, party) for party in parties}, seed


def _alice_fails_before_sending(op):
    return op.comm("alice", "bob", op.locally("alice", lambda _un: 1 // 0))


def _alice_tells_bob(op):
    return op.comm("alice", "bob", op.locally("alice", lambda _un: "next"))


class TestPipelinedTagsUnderFaults:
    """The claim in ``InstanceScopedEndpoint``'s docstring, under load: ids
    a location skips (it is outside an instance's census) keep the tags on
    every channel non-decreasing, and the engine's stash purge is exact.
    Every program is submitted before the first result is read, so
    locations run different instances at once, and the plan delays every
    send and holds most unicast ones back behind later traffic.

    A healthy run never stashes: a channel's frames arrive in instance
    order.  So the run ends with an instance that fails at its sender:
    alice raises before sending, runs ahead, and her next instance's frame
    reaches bob while he still waits in the failed one.  He stashes it,
    times out, and must find it in the next instance; afterwards every
    stash is empty."""

    PARTIES = ("alice", "bob", "carol", "dave")
    PROGRAMS = 800

    @staticmethod
    def record_tags(engine, parties):
        """Per channel, the instance tags of the frames each end put on and
        took off the wire, in order (the endpoints under the fault wrapper)."""
        sent, received = defaultdict(list), defaultdict(list)
        for location in parties:
            inner = engine._endpoints[location]._inner
            send_frame, recv_frame = inner._send_frame, inner._recv_frame

            def recording_send(receivers, data, instance, _at=location, _send=send_frame):
                for receiver in receivers:
                    sent[_at, receiver].append(instance)
                _send(receivers, data, instance)

            def recording_recv(sender, _at=location, _recv=recv_frame):
                instance, payload = _recv(sender)
                received[sender, _at].append(instance)
                return instance, payload

            inner._send_frame, inner._recv_frame = recording_send, recording_recv
        return sent, received

    @pytest.mark.parametrize("backend", ["tcp", "asyncio"])
    def test_values_and_channel_tags_hold_under_delay_and_reorder(
            self, backend, monkeypatch):
        stashed, real_deque = [], epp.deque

        def counting_deque():  # built once per payload stashed for a later instance
            stashed.append(1)
            return real_deque()

        plan = FaultPlan(seed=5).delay(jitter=0.0004, rate=1.0).reorder(rate=0.8, span=3)
        programs = [random_program(seed, self.PARTIES, depth=5)
                    for seed in range(self.PROGRAMS)]
        with ChoreoEngine(self.PARTIES, backend=backend, faults=plan,
                          timeout=10.0) as engine:
            sent, received = self.record_tags(engine, self.PARTIES)
            monkeypatch.setattr(epp, "deque", counting_deque)
            futures = [engine.submit(choreography(members, expr), census=sorted(members))
                       for _census, expr in programs
                       for members in [roles(expr)]]
            for seed, ((_census, expr), future) in enumerate(zip(programs, futures)):
                value = evaluate(expr)
                assert held(future.result(timeout=30.0), self.PARTIES) == {
                    party: masked_at(value, party) for party in self.PARTIES}, seed
            assert not stashed  # in order on every channel: nothing ran ahead
            for location in self.PARTIES:  # bob's wait in the failed instance
                engine._endpoints[location]._inner._timeout = 0.5
            failed = engine.submit(_alice_fails_before_sending, census=["alice", "bob"])
            after = engine.submit(_alice_tells_bob, census=["alice", "bob"])
            assert failed.exception(timeout=30.0) is not None
            assert after.result(timeout=30.0).value_at("bob") == "next"
            events = engine.transport.faults.events
            stashes = {location: dict(stash) for location, stash in engine._stashes.items()}
        kinds = {kind: sum(event.kind == kind for event in events)
                 for kind in ("delay", "reorder")}
        assert sum(kinds.values()) >= 200 and all(kinds.values()), kinds
        assert stashed == [1]  # alice's frame that overtook the failed instance
        assert stashes == {location: {} for location in self.PARTIES}
        assert set(received) == set(sent)
        for channel, tags in sent.items():
            assert received[channel] == tags, channel
            assert tags == sorted(tags), channel
