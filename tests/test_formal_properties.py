"""Metatheory checkers on hand-written λC programs (progress, preservation,
EPP soundness/completeness, deadlock freedom)."""

from __future__ import annotations

import pytest

from repro.formal.generators import program_corpus, random_program, value_of
from repro.formal.properties import (
    check_all,
    check_deadlock_freedom,
    check_preservation,
    check_progress,
    check_projection,
)
from repro.formal.syntax import (
    App,
    Case,
    Com,
    Inl,
    Inr,
    Lam,
    Lookup,
    Pair,
    ProdData,
    SumData,
    TData,
    TVec,
    Unit,
    UnitData,
    Var,
    Vec,
    parties,
)
from repro.formal.typecheck import typecheck

UNIT = UnitData()


def kvs_like_choreography():
    """A small λC analogue of the KVS: the client sends a request (a sum) to the
    servers, who branch on it together inside a conclave; the branch result is
    located at s1 only, and s1 replies to the client *after* the conclave."""
    client_request = Inl(Unit(parties("client")), UNIT)
    shared = App(Com("client", parties("s1", "s2")), client_request)
    # Each branch narrows the (multiply-located) request down to s1 alone.
    left = App(Com("s1", parties("s1")), Var("req"))
    right = Unit(parties("s1"))
    handled = Case(parties("s1", "s2"), shared, "req", left, "req", right)
    return App(Com("s1", parties("client")), handled)


def broadcast_then_branch():
    """One party multicasts a boolean-like sum; the recipients branch and the
    chosen branch does a further communication among themselves only."""
    scrutinee = App(Com("a", parties("b", "c", "d")), Inr(Unit(parties("a")), UNIT))
    left = Unit(parties("d"))
    right = App(Com("b", parties("d")), Var("x"))
    return Case(parties("b", "c", "d"), scrutinee, "x", left, "x", right)


def higher_order_example():
    """A located function applied to communicated data.

    The lambda's owners form a conclave of {b, c}; its body forwards the
    argument from b to c, so applying it to data that a sent to b chains two
    communications through a function abstraction.
    """
    lam = Lam(
        "x",
        TData(UNIT, parties("b")),
        App(Com("b", parties("c")), Var("x")),
        parties("b", "c"),
    )
    argument = App(Com("a", parties("b")), Unit(parties("a")))
    return App(lam, argument)


EXAMPLES = {
    "kvs-like": (parties("client", "s1", "s2"), kvs_like_choreography()),
    "broadcast-branch": (parties("a", "b", "c", "d"), broadcast_then_branch()),
    "higher-order": (parties("a", "b", "c"), higher_order_example()),
}


@pytest.mark.parametrize("name", sorted(EXAMPLES))
class TestHandWrittenPrograms:
    def test_typechecks(self, name):
        census, program = EXAMPLES[name]
        typecheck(census, program)

    def test_progress(self, name):
        census, program = EXAMPLES[name]
        assert check_progress(census, program)

    def test_preservation(self, name):
        census, program = EXAMPLES[name]
        report = check_preservation(census, program)
        assert report, report.details

    def test_projection_agrees_with_central_semantics(self, name):
        census, program = EXAMPLES[name]
        report = check_projection(census, program, schedules=4)
        assert report, report.details

    def test_deadlock_freedom(self, name):
        census, program = EXAMPLES[name]
        report = check_deadlock_freedom(census, program, schedules=4)
        assert report, report.details


class TestCheckersRejectBadInput:
    def test_ill_typed_program_is_reported_not_crashed(self):
        census = parties("a", "b")
        bad = App(Com("a", parties("z")), Unit(parties("a")))
        assert not check_progress(census, bad)
        assert not check_preservation(census, bad)
        assert not check_projection(census, bad)
        assert not check_deadlock_freedom(census, bad)

    def test_check_all_covers_every_property(self):
        census, program = EXAMPLES["kvs-like"]
        reports = check_all(census, program)
        assert set(reports) == {"preservation", "progress", "projection", "deadlock_freedom"}
        assert all(reports.values())


class TestGenerators:
    def test_random_program_is_deterministic_per_seed(self):
        assert random_program(7) == random_program(7)
        assert random_program(7) != random_program(8)

    def test_corpus_programs_typecheck(self):
        for census, program in program_corpus(25, depth=3):
            typecheck(census, program)

    def test_corpus_has_varied_shapes(self):
        kinds = {type(program).__name__ for _census, program in program_corpus(40, depth=3)}
        assert len(kinds) >= 2

    def test_most_programs_communicate_and_every_new_form_appears(self):
        """At least half the programs send something, and the corpus holds a
        function passed as an argument, a tuple passed to a lambda and a
        pair whose parts have different owners."""
        from tests.formal_runtime import formal_actions

        def nodes(expr):
            yield expr
            for child in getattr(expr, "__dict__", {}).values():
                for item in child if isinstance(child, tuple) else (child,):
                    if hasattr(item, "__dataclass_fields__") and not isinstance(item, TData):
                        yield from nodes(item)

        programs = [random_program(seed, depth=3 + 2 * (seed % 2))[1] for seed in range(200)]
        assert sum(any(formal_actions(expr).values()) for expr in programs) >= 100
        found = {"function argument": False, "tuple argument": False, "mixed pair": False}
        for expr in programs:
            for node in nodes(expr):
                if isinstance(node, App) and isinstance(node.function, Lam):
                    found["function argument"] |= isinstance(node.argument, Lam)
                    found["tuple argument"] |= isinstance(node.argument, Vec)
                if isinstance(node, Pair) and isinstance(node.first, Unit) \
                        and isinstance(node.second, Unit):
                    found["mixed pair"] |= node.first.owners != node.second.owners
        assert all(found.values()), found

    def test_value_of_builds_values_of_requested_type(self):
        owners = parties("a", "b")
        data = ProdData(SumData(UNIT, UNIT), UNIT)
        value = value_of(data, owners)
        observed = typecheck(owners, value)
        assert observed == TData(data, owners)


class TestLookupAtAPartyOwningNoItem:
    """``lookup`` owned by a party that owns no item of the tuple: the
    typing rule allows it (the tuple type is noop-masked to the lookup's
    owners), the party's projection of the tuple floors to ⊥, and so must
    the lookup's.  Without that floor rule λN gets stuck on ``lookup^0 ⊥``."""

    def program(self):
        everyone, bob = parties("alice", "bob", "carol"), parties("bob")
        item = TData(ProdData(UNIT, UNIT), bob)
        body = App(Com("bob", everyone), App(Lookup(0, everyone), Var("v")))
        lam = Lam("v", TVec((item,)), body, everyone)
        return everyone, App(lam, Vec((Pair(Unit(bob), Unit(bob)),)))

    def test_every_property_holds(self):
        census, program = self.program()
        reports = check_all(census, program)
        assert all(reports.values()), {name: r.details for name, r in reports.items()}


class TestCorpusMetatheory:
    """The executable counterpart of the paper's Theorems 2–5 and Corollary 1,
    over a reproducible random corpus (the hypothesis suite widens this)."""

    CORPUS = program_corpus(60, depth=3)

    @pytest.mark.parametrize("index", range(60))
    def test_all_properties_hold(self, index):
        census, program = self.CORPUS[index]
        reports = check_all(census, program, seed=index)
        failed = {name: report.details for name, report in reports.items() if not report}
        assert not failed, failed

    def test_message_counts_are_schedule_independent(self):
        """Soundness seen from the wire: however the λN scheduler interleaves
        ∅-steps, a projected program exchanges the same number of messages."""
        communicating = 0
        for index, (census, program) in enumerate(self.CORPUS):
            report = check_projection(census, program, schedules=5, seed=100 + index)
            assert report, report.details
            counts = set(report.extra["message_counts"])
            assert len(counts) == 1, (index, counts)
            communicating += counts != {0}
        assert communicating >= 5  # the corpus is not all communication-free
