"""Tests for the @choreography decorator and first-class choreography objects."""

from __future__ import annotations

import pytest

from repro import ChoreoEngine, choreography
from repro.chor import ChoreographyDef
from repro.core.errors import CensusError


@choreography(census=["buyer", "seller"])
def bookstore(op, title):
    """Buyer asks seller for a price; both learn it."""
    catalogue = {"TAPL": 80, "HoTT": 120}
    wanted = op.locally("buyer", lambda _un: title)
    request = op.comm("buyer", "seller", wanted)
    price = op.locally("seller", lambda un: catalogue.get(un(request), -1))
    return op.broadcast("seller", price)


@choreography
def anonymous_ping(op, payload):
    return op.broadcast("a", op.locally("a", lambda _un: payload))


class TestDecorator:
    def test_wraps_metadata(self):
        assert isinstance(bookstore, ChoreographyDef)
        assert bookstore.name == "bookstore"
        assert "Buyer asks seller" in bookstore.__doc__
        assert list(bookstore.census) == ["buyer", "seller"]
        assert anonymous_ping.census is None

    def test_custom_name(self):
        @choreography(name="fancy")
        def plain(op):
            return None

        assert plain.name == "fancy"
        assert "fancy" in repr(plain)

    def test_still_a_plain_choreography(self):
        # A decorated choreography drops into every existing entry point and
        # composes under conclave like the bare function would.
        with ChoreoEngine(["buyer", "seller"]) as engine:
            assert engine.run(bookstore, args=("TAPL",)).returns["buyer"] == 80

        def outer(op):
            wrapped = op.conclave(["buyer", "seller"], bookstore, "HoTT")
            return op.locally("buyer", lambda un: un(wrapped))

        with ChoreoEngine(["buyer", "seller", "auditor"]) as engine:
            assert engine.run(outer).value_at("buyer") == 120


class TestRunConvenience:
    def test_run_uses_census_contract(self):
        result = bookstore.run(args=("TAPL",))
        assert result.returns["seller"] == 80

    @pytest.mark.parametrize("backend", ["local", "central"])
    def test_run_accepts_backend(self, backend):
        result = bookstore.run(args=("TAPL",), backend=backend)
        assert result.value_at("buyer") == 80

    def test_run_on_a_persistent_engine(self):
        with ChoreoEngine(["buyer", "seller"], backend="local") as engine:
            assert engine.run(bookstore, args=("TAPL",)).returns["buyer"] == 80

    def test_census_may_extend_contract(self):
        result = bookstore.run(["buyer", "seller", "observer"], args=("TAPL",))
        assert result.returns["observer"] == 80

    def test_census_must_cover_contract(self):
        with pytest.raises(CensusError):
            bookstore.run(["buyer", "auditor"], args=("TAPL",))

    def test_missing_contract_requires_census(self):
        with pytest.raises(ValueError, match="census contract"):
            anonymous_ping.run(args=("x",))
        assert anonymous_ping.run(["a", "b"], args=("x",)).returns["b"] == "x"


class TestAnalysisConveniences:
    def test_check_delegates_to_checker(self):
        report = bookstore.check(args=("TAPL",))
        assert report.ok
        assert report.messages == 2

    def test_cost_delegates_to_comm_cost(self):
        cost = bookstore.cost(None, "TAPL")
        assert cost.total_messages == 2
        assert cost.per_channel == {("buyer", "seller"): 1, ("seller", "buyer"): 1}

    def test_check_catches_census_violations(self):
        @choreography(census=["a", "b"])
        def broken(op):
            return op.locally("mallory", lambda _un: 1)

        report = broken.check()
        assert not report.ok
