"""Property-based tests (hypothesis) for core data structures and the formal model."""

from __future__ import annotations

import pickle
import string

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.runtime import wire

from repro.core.locations import Census
from repro.core.located import Quire
from repro.formal.generators import random_program
from repro.formal.projection import project
from repro.formal.properties import check_deadlock_freedom, check_preservation, check_projection
from repro.formal.semantics import evaluate
from repro.formal.typecheck import typecheck
from repro.protocols.circuits import (
    AndGate,
    InputWire,
    LitWire,
    XorGate,
    circuit_depth,
    count_gates,
    evaluate_plain,
    iter_nodes,
    or_gate,
    majority3,
)
from repro.protocols.crypto import (
    commitment,
    generate_rsa_keypair,
    hash_to_zn,
    is_probable_prime,
    mask_bit,
    party_rng,
    verify_commitment,
)
from repro.protocols.ot import ot2_batch, publish_ot_keys
from repro.runtime.central import CentralOp
from repro.protocols.secretshare import (
    make_boolean_shares,
    make_modular_shares,
    reconstruct_boolean,
    reconstruct_modular,
    xor_all,
)

# --------------------------------------------------------------------- strategies --

location_names = st.lists(
    st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6),
    min_size=1,
    max_size=6,
    unique=True,
)

SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# ------------------------------------------------------------------ core structures --


class TestCensusProperties:
    @given(location_names)
    @SETTINGS
    def test_restriction_is_idempotent(self, names):
        census = Census(names)
        once = census.restricted_to(names[: max(1, len(names) // 2)])
        assert once.restricted_to(once) == once

    @given(location_names, location_names)
    @SETTINGS
    def test_union_contains_both_operands(self, left, right):
        union = Census(left).union(right)
        assert all(name in union for name in left)
        assert all(name in union for name in right)

    @given(location_names)
    @SETTINGS
    def test_subset_of_self(self, names):
        census = Census(names)
        assert census.covers(census)
        assert census.require_subset(names) == census

    @given(location_names)
    @SETTINGS
    def test_index_of_round_trips(self, names):
        census = Census(names)
        for name in names:
            assert census[census.index_of(name)] == name


class TestQuireProperties:
    @given(location_names, st.integers())
    @SETTINGS
    def test_map_preserves_census(self, names, offset):
        quire = Quire.from_function(names, len)
        mapped = quire.map(lambda v: v + offset)
        assert mapped.census == quire.census
        assert mapped.values() == tuple(v + offset for v in quire.values())

    @given(location_names)
    @SETTINGS
    def test_modify_touches_only_target(self, names):
        quire = Quire.from_function(names, lambda _: 0)
        target = names[0]
        modified = quire.modify(target, lambda v: v + 1)
        assert modified[target] == 1
        assert all(modified[name] == 0 for name in names[1:])


# --------------------------------------------------------------------- secret sharing --


class TestSecretSharingProperties:
    @given(st.booleans(), location_names, st.integers(0, 2**32))
    @SETTINGS
    def test_boolean_shares_reconstruct(self, secret, names, seed):
        shares = make_boolean_shares(secret, names, party_rng(seed, "dealer"))
        assert set(shares) == set(names)
        assert reconstruct_boolean(shares) == secret

    @given(st.booleans(), location_names, st.integers(0, 2**32))
    @SETTINGS
    def test_any_single_boolean_share_is_unbiased_alone(self, secret, names, seed):
        """Dropping one share destroys the secret unless there was only one party."""
        if len(names) < 2:
            return
        shares = make_boolean_shares(secret, names, party_rng(seed, "dealer"))
        partial = dict(shares)
        partial.pop(names[0])
        # reconstructing from a strict subset gives secret XOR missing-share
        assert reconstruct_boolean(partial) == (secret != shares[names[0]])

    @given(
        st.integers(min_value=0, max_value=10**6),
        location_names,
        st.integers(2, 10**6),
        st.integers(0, 2**32),
    )
    @SETTINGS
    def test_modular_shares_reconstruct(self, secret, names, modulus, seed):
        shares = make_modular_shares(secret, names, modulus, party_rng(seed, "dealer"))
        assert all(0 <= share < modulus for share in shares.values())
        assert reconstruct_modular(shares, modulus) == secret % modulus

    @given(st.lists(st.booleans(), max_size=12))
    @SETTINGS
    def test_xor_all_matches_parity(self, bits):
        assert xor_all(bits) == (sum(bits) % 2 == 1)


# -------------------------------------------------------------------------- crypto --


class TestCryptoProperties:
    @given(st.integers(0, 2**16), st.text(max_size=12), st.integers(0, 2**128))
    @settings(max_examples=15, deadline=None)
    def test_ot_hashes_are_in_range_and_deterministic(self, seed, label, element):
        modulus = generate_rsa_keypair(party_rng(seed, "kp"), bits=128).public.modulus
        offset = hash_to_zn(modulus, label)
        assert 0 <= offset < modulus
        assert offset == hash_to_zn(modulus, label)
        assert offset != hash_to_zn(modulus, label + "|1")
        assert mask_bit(element, label) is mask_bit(element, label)

    @given(
        st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()), max_size=6),
        st.integers(0, 2**16),
    )
    @settings(max_examples=15, deadline=None)
    def test_batched_ot_delivers_exactly_the_selected_bits(self, instances, seed):
        op = CentralOp(["s", "r"])
        keys = publish_ot_keys(op, ["s", "r"], seed=seed, rsa_bits=128)
        pairs = op.locally("s", lambda _un: [(b0, b1) for b0, b1, _s in instances])
        selects = op.locally("r", lambda _un: [s for _b0, _b1, s in instances])
        before = op.stats.total_messages
        received = ot2_batch(op, "s", "r", pairs, selects, keys, seed=seed, context="prop")
        assert received.peek() == [b1 if s else b0 for b0, b1, s in instances]
        assert list(received.owners) == ["r"]
        assert op.stats.total_messages - before == 2

    @given(st.integers(0, 2**32), st.sampled_from([128, 256]), st.data())
    @settings(max_examples=25, deadline=None)
    def test_crt_decryption_is_the_textbook_power(self, seed, bits, data):
        keys = generate_rsa_keypair(party_rng(seed, "crt"), bits=bits)
        modulus, p, q = keys.public.modulus, keys.p, keys.q
        multiple = data.draw(st.integers(1, q - 1)) * p  # shares the factor p with N
        chosen = data.draw(st.integers(0, modulus - 1))
        for ciphertext in (0, 1, modulus - 1, p, q, multiple, chosen):
            assert keys.decrypt(ciphertext) == pow(ciphertext, keys.private_exponent, modulus)
        for outside in (-1, modulus):
            with pytest.raises(ValueError):
                keys.decrypt(outside)

    @given(st.integers(0, 2**30), st.integers(0, 2**30))
    @SETTINGS
    def test_commitments_verify_and_bind(self, value, salt):
        digest = commitment(value, salt)
        assert verify_commitment(digest, value, salt)
        assert not verify_commitment(digest, value + 1, salt)
        assert not verify_commitment(digest, value, salt + 1)

    @given(st.integers(2, 10_000))
    @SETTINGS
    def test_probable_prime_agrees_with_trial_division(self, candidate):
        def slow_is_prime(n: int) -> bool:
            if n < 2:
                return False
            return all(n % d for d in range(2, int(n**0.5) + 1))

        assert is_probable_prime(candidate) == slow_is_prime(candidate)


# ------------------------------------------------------------------------- circuits --

circuit_strategy = st.recursive(
    st.one_of(
        st.builds(InputWire, st.sampled_from(["p1", "p2", "p3"]), st.sampled_from(["x", "y", "z"])),
        st.builds(LitWire, st.booleans()),
    ),
    lambda children: st.one_of(
        st.builds(AndGate, children, children),
        st.builds(XorGate, children, children),
    ),
    max_leaves=16,
)

full_inputs = st.fixed_dictionaries(
    {
        party: st.fixed_dictionaries({name: st.booleans() for name in ["x", "y", "z"]})
        for party in ["p1", "p2", "p3"]
    }
)


class TestCircuitProperties:
    @given(circuit_strategy, full_inputs)
    @SETTINGS
    def test_or_gate_matches_boolean_or(self, circuit, inputs):
        lhs = evaluate_plain(circuit, inputs)
        composed = or_gate(circuit, LitWire(False))
        assert evaluate_plain(composed, inputs) == lhs

    @given(circuit_strategy)
    @SETTINGS
    def test_gate_counts_are_consistent_with_node_iteration(self, circuit):
        counts = count_gates(circuit)
        assert sum(counts.values()) == sum(1 for _ in iter_nodes(circuit))
        assert circuit_depth(circuit) >= 0

    @given(full_inputs)
    @SETTINGS
    def test_majority3_is_the_median(self, inputs):
        circuit = majority3(InputWire("p1", "x"), InputWire("p2", "x"), InputWire("p3", "x"))
        bits = [inputs["p1"]["x"], inputs["p2"]["x"], inputs["p3"]["x"]]
        assert evaluate_plain(circuit, inputs) == (sum(bits) >= 2)


# ----------------------------------------------------------------------- wire codec --

wire_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=20),
    st.binary(max_size=20),
)

wire_payloads = st.recursive(
    wire_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(st.text(max_size=5), children, max_size=4),
    ),
    max_leaves=16,
)

#: Values outside the fast paths, exercising the pickle fallback tag.
fallback_payloads = st.one_of(
    st.frozensets(st.integers(), max_size=5),
    st.sets(st.integers(), max_size=5),
    st.builds(complex, st.floats(allow_nan=False), st.floats(allow_nan=False)),
    st.lists(st.integers(), min_size=wire.MAX_FAST_ITEMS + 1, max_size=wire.MAX_FAST_ITEMS + 4),
)


class TestWireCodecProperties:
    @given(wire_payloads)
    @SETTINGS
    def test_roundtrip_is_identity_on_fast_path_types(self, payload):
        decoded = wire.decode(wire.encode(payload))
        assert decoded == payload
        assert type(decoded) is type(payload)

    @given(fallback_payloads)
    @SETTINGS
    def test_roundtrip_is_identity_on_pickle_fallback_types(self, payload):
        encoded = wire.encode(payload)
        assert encoded[0] == ord("P"), "expected the pickle fallback tag"
        decoded = wire.decode(encoded)
        assert decoded == payload
        assert type(decoded) is type(payload)

    @given(st.booleans())
    @SETTINGS
    def test_bool_fast_path_is_strictly_smaller_than_pickle(self, payload):
        assert len(wire.encode(payload)) < len(pickle.dumps(payload))

    @given(st.integers())
    @SETTINGS
    def test_int_fast_path_is_strictly_smaller_than_pickle(self, payload):
        assert len(wire.encode(payload)) < len(pickle.dumps(payload))

    @given(st.lists(st.booleans(), min_size=1, max_size=16))
    @SETTINGS
    def test_share_vectors_stay_compact(self, bits):
        # a batched share vector is ~2 bytes of framing plus one byte per bit
        assert len(wire.encode(bits)) <= len(bits) + 3

    def test_bool_int_str_are_not_conflated(self):
        assert wire.decode(wire.encode(True)) is True
        assert wire.decode(wire.encode(False)) is False
        one = wire.decode(wire.encode(1))
        assert one == 1 and type(one) is int
        assert wire.decode(wire.encode("1")) == "1"
        assert wire.decode(wire.encode(b"x")) == b"x"
        assert type(wire.decode(wire.encode((1,)))) is tuple
        assert type(wire.decode(wire.encode([1]))) is list


# ---------------------------------------------------------------- formal metatheory --


class TestFormalMetatheoryProperties:
    """Hypothesis-driven counterparts of Theorems 2–5 and Corollary 1."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_generated_programs_typecheck(self, seed):
        census, program = random_program(seed)
        typecheck(census, program)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_preservation(self, seed):
        census, program = random_program(seed)
        report = check_preservation(census, program)
        assert report, report.details

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_projection_bisimulates_central_semantics(self, seed):
        census, program = random_program(seed)
        report = check_projection(census, program, schedules=2, seed=seed % 1000)
        assert report, report.details

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_deadlock_freedom(self, seed):
        census, program = random_program(seed)
        report = check_deadlock_freedom(census, program, schedules=2, seed=seed % 1000)
        assert report, report.details

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_projection_of_final_value_is_a_value(self, seed):
        census, program = random_program(seed)
        final = evaluate(program)
        for party in sorted(census):
            projected = project(final, party)
            from repro.formal.local_lang import is_local_value

            assert is_local_value(projected)
