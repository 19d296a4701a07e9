"""Unit tests for locations and censuses."""

from __future__ import annotations

import pytest

from repro.core.errors import CensusError, EmptyCensusError
from repro.core.locations import Census, as_census, single


class TestCensusConstruction:
    def test_members_preserve_order(self):
        census = Census(["c", "a", "b"])
        assert census.members == ("c", "a", "b")

    def test_accepts_tuple_and_census(self):
        assert Census(("a", "b")).members == ("a", "b")
        assert Census(Census(["a", "b"])).members == ("a", "b")

    def test_rejects_duplicates(self):
        with pytest.raises(CensusError, match="duplicate"):
            Census(["a", "b", "a"])

    def test_rejects_bare_string(self):
        with pytest.raises(CensusError, match="single string"):
            Census("alice")

    def test_rejects_non_string_members(self):
        with pytest.raises(CensusError):
            Census(["a", 3])

    def test_rejects_empty_string_member(self):
        with pytest.raises(CensusError):
            Census(["a", ""])

    def test_empty_census_is_allowed_until_required_nonempty(self):
        census = Census([])
        assert len(census) == 0
        with pytest.raises(EmptyCensusError):
            census.require_nonempty()

    def test_repr_lists_members(self):
        assert "alice" in repr(Census(["alice"]))


class TestCensusProtocol:
    def test_len_iter_contains(self):
        census = Census(["a", "b", "c"])
        assert len(census) == 3
        assert list(census) == ["a", "b", "c"]
        assert "b" in census
        assert "z" not in census

    def test_getitem(self):
        census = Census(["a", "b", "c"])
        assert census[0] == "a"
        assert census[2] == "c"

    def test_equality_with_census_and_sequences(self):
        census = Census(["a", "b"])
        assert census == Census(["a", "b"])
        assert census == ("a", "b")
        assert census == ["a", "b"]
        assert census != Census(["b", "a"])

    def test_hashable(self):
        assert len({Census(["a", "b"]), Census(["a", "b"]), Census(["b", "a"])}) == 2


class TestMembershipAndSubsets:
    def test_index_of(self):
        census = Census(["a", "b", "c"])
        assert census.index_of("b") == 1

    def test_index_of_missing_raises(self):
        with pytest.raises(CensusError, match="not in census"):
            Census(["a"]).index_of("b")

    def test_require_member_returns_location(self):
        assert Census(["a", "b"]).require_member("a") == "a"

    def test_require_subset_returns_argument_order(self):
        census = Census(["a", "b", "c"])
        subset = census.require_subset(["c", "a"])
        assert subset.members == ("c", "a")

    def test_require_subset_missing_raises(self):
        with pytest.raises(CensusError, match="not in census"):
            Census(["a", "b"]).require_subset(["a", "z"])

    def test_covers(self):
        assert Census(["a", "b"]).covers(Census(["a"]))
        assert not Census(["a", "b"]).covers(Census(["a", "z"]))


class TestCensusAlgebra:
    def test_restricted_to_preserves_self_order(self):
        census = Census(["a", "b", "c", "d"])
        assert census.restricted_to(["d", "b"]).members == ("b", "d")

    def test_union_appends_new_members(self):
        assert Census(["a", "b"]).union(["b", "c"]).members == ("a", "b", "c")

    def test_without_removes_members(self):
        assert Census(["a", "b", "c"]).without(["b", "z"]).members == ("a", "c")

    def test_as_census_idempotent(self):
        census = Census(["a"])
        assert as_census(census) is census
        assert as_census(["a", "b"]).members == ("a", "b")

    def test_single(self):
        assert single("alice").members == ("alice",)
        with pytest.raises(CensusError):
            single("")
