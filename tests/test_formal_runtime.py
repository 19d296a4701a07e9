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
  ``census=``, its worker never wakes.

Engines use a short receive timeout, so a broken projection fails in
seconds, and each check stops at the first program that differs.  What
the generator never emits (so what this does not cover) is listed in
``docs/testing.md``.
"""

from __future__ import annotations

import pytest

from repro import ChoreoEngine
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
        # About one generated program in six communicates; the rest still
        # check that a conclave's outsiders and a literal's owners send nothing.
        assert communicating >= PROGRAMS // 8


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
