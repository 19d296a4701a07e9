"""Census interning is invisible except in cost.

``as_census``/``single`` and the census algebra resolve member tuples
through one bounded table (``locations._interned``), so the operators stop
rebuilding the same location sets on every instance at every endpoint.
These tests pin the two halves of that contract: nothing observable changed
(same values, same errors, rejected input never cached, bounded, safe under
threads), and the cost really is gone (zero ``Census()`` constructions per
warm replicated PUT / GET / GMW run — 49 / 31 / 1,152 before interning).
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import ClusterEngine
from repro.core import locations
from repro.core.errors import CensusError
from repro.core.located import Located
from repro.core.locations import Census, as_census, single
from repro.protocols import circuits
from repro.protocols.gmw import gmw
from repro.runtime import ChoreoEngine

_interned = locations._interned
BOUND = locations._INTERN_BOUND

# A small alphabet so duplicates and re-used tuples actually occur.
names = st.sampled_from(["a", "b", "c", "d", "e"])
junk = st.one_of(
    names,
    st.just(""),
    st.integers(),
    st.none(),
    st.binary(max_size=2),
    st.lists(names, max_size=2),  # unhashable entry
    st.tuples(names),
)
containers = st.sampled_from([list, tuple, iter])
unique_names = st.lists(names, unique=True)


def outcome(build, value):
    """What a constructor observably did with ``value``."""
    try:
        census = build(value)
    except Exception as exc:  # noqa: BLE001 - the exception *is* the outcome
        return ("raised", type(exc), str(exc))
    return ("census", census.members, hash(census), census == Census(census.members))


class TestInterningIsInvisible:
    @given(st.lists(junk, max_size=5), containers)
    def test_as_census_matches_census_on_arbitrary_input(self, items, container):
        assert outcome(as_census, container(items)) == outcome(Census, container(items))

    @given(st.text(max_size=3))
    def test_bare_strings_are_rejected_identically(self, text):
        assert outcome(as_census, text) == outcome(Census, text)
        assert outcome(as_census, text)[0] == "raised"

    @given(unique_names, unique_names)
    def test_equal_member_tuples_are_one_object(self, xs, ys):
        census = as_census(xs)
        assert census is as_census(tuple(xs)) is as_census(iter(xs))
        assert census == Census(xs) and hash(census) == hash(Census(xs))
        if xs:
            assert single(xs[0]) is as_census([xs[0]])
            assert census.require_subset(xs[:1]) is as_census(xs[:1])
        assert census.require_subset(census) is census
        merged = list(dict.fromkeys(xs + ys))
        assert census.union(ys) == Census(merged)
        assert census.union(ys) is (as_census(merged) if set(ys) - set(xs) else census)
        kept = [x for x in xs if x in ys]
        assert census.restricted_to(ys) is as_census(kept) and as_census(kept) == Census(kept)
        dropped = [x for x in xs if x not in ys]
        assert census.without(ys) is as_census(dropped) and as_census(dropped) == Census(dropped)

    def test_census_called_directly_is_always_fresh(self):
        assert Census(["a", "b"]) is not Census(["a", "b"])
        assert Census(["a", "b"]) is not as_census(["a", "b"])
        assert as_census(fresh := Census(["a", "b"])) is fresh

    @pytest.mark.parametrize(
        "build, value",
        [
            (as_census, "abc"),
            (as_census, ["a", "a"]),
            (as_census, ["a", ""]),
            (as_census, [["a"]]),
            (as_census, ["a", 3]),
            (Census(["a"]).union, ["b", ""]),
            (Census(["a"]).require_subset, ["a", "a"]),
        ],
    )
    def test_rejected_input_never_enters_the_table(self, build, value):
        _interned.cache_clear()
        assert outcome(build, value) == outcome(Census, value)
        assert outcome(build, value)[1] is CensusError
        assert _interned.cache_info().currsize == 0

    def test_single_rejects_what_it_always_rejected(self):
        _interned.cache_clear()
        for bad in ("", 3, None, ["a"]):
            with pytest.raises(CensusError, match="locations must be non-empty strings"):
                single(bad)
        assert _interned.cache_info().currsize == 0

    def test_empty_owner_sets_are_still_refused(self):
        with pytest.raises(CensusError):
            Located([], 1)
        with pytest.raises(CensusError):
            Located(as_census(()), 1)


class TestTheTableIsBoundedAndShared:
    def test_a_full_table_evicts_the_least_recently_used(self):
        _interned.cache_clear()
        first = as_census(["n0"])
        for n in range(1, BOUND + 50):
            census = as_census([f"n{n}", "shared"])
            assert census.members == (f"n{n}", "shared")
            assert as_census(["n0"]) is first  # kept alive by being used
        assert _interned.cache_info().currsize <= BOUND
        assert as_census((f"n{BOUND + 49}", "shared")) is census
        # An evicted census is simply rebuilt, equal to the one it replaced.
        assert as_census(["n1", "shared"]) == Census(["n1", "shared"])

    def test_threads_interning_overlapping_tuples_agree(self):
        _interned.cache_clear()
        tuples = [tuple(f"t{i}" for i in range(start, start + 3)) for start in range(40)]
        barrier = threading.Barrier(8)
        seen = [[] for _ in range(8)]

        def intern_all(mine):
            barrier.wait(timeout=10)
            for _ in range(20):
                for members in tuples:
                    mine.append((members, as_census(list(members))))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=intern_all, args=(mine,)) for mine in seen]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        for mine in seen:
            assert len(mine) == 20 * len(tuples)
            assert all(census.members == members for members, census in mine)
        # A racing first miss may hand one thread an equal twin; the table
        # itself holds exactly one census per tuple, and serves it from then on.
        assert _interned.cache_info().currsize == len(tuples)
        for members in tuples:
            assert as_census(members) is as_census(list(members))


PARTIES = ["p1", "p2", "p3", "p4"]
CIRCUIT = circuits.and_tree(PARTIES)


def gmw_projected(op, my_inputs=None, *, seed=0):
    return gmw(op, PARTIES, CIRCUIT, my_inputs, seed=seed, rsa_bits=128)


class TestCensusConstructionsPerWarmOperation:
    """The count guard: what keeps the gain from rotting is a count, not a timing."""

    @pytest.fixture()
    def constructions(self, monkeypatch):
        built = []
        real_init = Census.__init__

        def counting_init(self, locations):
            built.append(locations)
            real_init(self, locations)

        monkeypatch.setattr(Census, "__init__", counting_init)
        return built

    def test_zero_per_warm_replicated_put_and_get(self, constructions):
        with ClusterEngine(1, replication=3, backend="local") as cluster:
            for n in range(20):  # warm: whatever earlier tests interned, ours are in now
                cluster.submit_put(f"k{n}", "v").result()
                cluster.submit_get(f"k{n}").result()
            constructions.clear()
            for n in range(200):
                cluster.submit_put(f"k{n % 20}", "w").result()
            for n in range(200):
                cluster.submit_get(f"k{n % 20}").result()
            assert constructions == []

    def test_zero_per_warm_gmw_run(self, constructions):
        inputs = {party: {"x": True} for party in PARTIES}

        def run(engine, seed):
            result = engine.run(
                gmw_projected, kwargs={"seed": seed},
                location_args={party: (inputs[party],) for party in PARTIES},
            )
            assert set(result.returns.values()) == {True}

        with ChoreoEngine(PARTIES, backend="local") as engine:
            run(engine, 0)
            run(engine, 1)
            constructions.clear()
            for seed in range(20):
                run(engine, seed)
            assert constructions == []


class TestProofsPerWarmOperation:
    """Subset proofs and placeholders are remembered: a warm operation walks
    no census members and rebuilds no placeholder."""

    @pytest.fixture()
    def walks(self, monkeypatch):
        walked = []
        real_missing = Census._missing

        def counting_missing(self, subset):
            walked.append((self, subset))
            return real_missing(self, subset)

        monkeypatch.setattr(Census, "_missing", counting_missing)
        return walked

    @pytest.fixture()
    def builds(self, monkeypatch):
        built = []
        real_init = Located.__init__

        def counting_init(self, owners, *rest):
            built.append(owners)
            real_init(self, owners, *rest)

        monkeypatch.setattr(Located, "__init__", counting_init)
        return built

    def test_warm_put_and_get(self, walks, builds):
        with ClusterEngine(1, replication=3, backend="local") as cluster:
            for n in range(20):
                cluster.submit_put(f"k{n}", "v").result()
                cluster.submit_get(f"k{n}").result()
            walks.clear()
            builds.clear()
            for n in range(200):
                cluster.submit_put(f"k{n % 20}", "w").result()
            assert walks == []
            assert len(builds) == 14 * 200
            builds.clear()
            for n in range(200):
                cluster.submit_get(f"k{n % 20}").result()
            assert walks == []
            assert len(builds) == 4 * 200

    def test_warm_gmw_run(self, walks):
        inputs = {party: {"x": True} for party in PARTIES}
        with ChoreoEngine(PARTIES, backend="local") as engine:
            for seed in range(5):
                if seed == 2:  # the first two runs warm the proofs
                    walks.clear()
                engine.run(
                    gmw_projected, kwargs={"seed": seed},
                    location_args={party: (inputs[party],) for party in PARTIES},
                )
            assert walks == []

    def test_a_rejected_subset_is_never_remembered(self, walks):
        census = as_census(["a", "b"])
        for _ in range(2):
            with pytest.raises(CensusError, match="'z'"):
                census.require_subset(["a", "z"])
        assert not census.covers(as_census(["a", "z"]))
        assert len(walks) == 5  # each rejection walks to decide, then to name

    def test_a_proof_holds_for_an_equal_twin(self, walks):
        census = as_census(["a", "b"])
        census.require_subset(["b"])
        walks.clear()
        assert census.require_subset(Census(["b"])) == ["b"]  # not interned
        assert walks == []

    def test_remembered_proofs_are_bounded(self):
        census = as_census([f"p{n}" for n in range(100)])
        for n in range(100):
            census.require_subset([f"p{n}"])
        assert len(census._proved) == locations._PROOF_BOUND

    def test_placeholders_are_shared_per_census(self):
        owners = as_census(["a", "b"])
        assert Located.absent(owners) is Located.absent(["a", "b"])
        assert Located.absent(owners) is not Located.absent(single("a"))
        assert not Located.absent(owners).is_present()
