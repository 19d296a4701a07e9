"""Unit tests for the protocol substrates: crypto, secret sharing, circuits, OT."""

from __future__ import annotations

import itertools
import random

import pytest

from repro import ChoreoEngine
from repro.core.locations import Census
from repro.protocols import circuits, crypto
from repro.protocols.ot import ot2, ot2_batch, publish_ot_keys
from repro.protocols.secretshare import (
    make_boolean_shares,
    make_modular_shares,
    reconstruct_boolean,
    reconstruct_modular,
    xor_all,
)
from repro.runtime.central import CentralOp


class TestCrypto:
    def test_party_rng_is_deterministic_and_independent(self):
        assert crypto.party_rng(1, "alice").random() == crypto.party_rng(1, "alice").random()
        assert crypto.party_rng(1, "alice").random() != crypto.party_rng(1, "bob").random()
        assert (
            crypto.party_rng(1, "alice", "ctx1").random()
            != crypto.party_rng(1, "alice", "ctx2").random()
        )

    @pytest.mark.parametrize("prime", [2, 3, 5, 97, 65537, 2_147_483_647])
    def test_known_primes(self, prime):
        assert crypto.is_probable_prime(prime)

    @pytest.mark.parametrize("composite", [0, 1, 4, 100, 65536, 561, 41041])
    def test_known_composites_including_carmichael(self, composite):
        assert not crypto.is_probable_prime(composite)

    def test_exact_below_two_to_the_sixteen(self):
        limit = 1 << 16
        sieve = bytearray([1]) * limit
        sieve[:2] = b"\0\0"
        for n in range(2, 256):
            if sieve[n]:
                sieve[n * n::n] = bytes(len(range(n * n, limit, n)))
        assert [n for n in range(limit) if crypto.is_probable_prime(n)] == [
            n for n in range(limit) if sieve[n]
        ]

    @pytest.mark.parametrize(
        "pseudoprime",
        [
            2047,  # strong pseudoprime to base 2
            3215031751,  # to bases 2, 3, 5, 7
            2152302898747,  # to bases 2 … 11
            3474749660383,  # to bases 2 … 13
            341550071728321,  # to bases 2 … 17
            3825123056546413051,  # to bases 2 … 23
            318665857834031151167461,  # to bases 2 … 37, above 2**64: the random rounds
        ],
    )
    def test_rejects_strong_pseudoprimes_to_the_first_prime_bases(self, pseudoprime):
        assert not crypto.is_probable_prime(pseudoprime)

    @pytest.mark.parametrize("prime", [2**61 - 1, 2**64 - 59])  # 2**64 - 59: largest below 2**64
    def test_accepts_large_64_bit_primes(self, prime):
        assert crypto.is_probable_prime(prime)

    @pytest.mark.parametrize("bits", [128, 256])
    def test_rsa_modulus_has_exactly_the_requested_width(self, bits):
        widths = {
            crypto.generate_rsa_keypair(random.Random(seed), bits).public.modulus.bit_length()
            for seed in range(200)
        }
        assert widths == {bits}

    def test_generate_prime_has_requested_size(self):
        prime = crypto.generate_prime(64, random.Random(3))
        assert prime.bit_length() == 64
        assert crypto.is_probable_prime(prime)

    def test_generate_prime_rejects_tiny_sizes(self):
        with pytest.raises(ValueError):
            crypto.generate_prime(4, random.Random(0))

    def test_rsa_roundtrip_integers(self):
        keys = crypto.generate_rsa_keypair(random.Random(1), bits=128)
        for message in [0, 1, 42, 2**40 + 7]:
            assert keys.decrypt(keys.public.encrypt(message)) == message

    def test_rsa_rejects_out_of_range(self):
        keys = crypto.generate_rsa_keypair(random.Random(1), bits=128)
        with pytest.raises(ValueError):
            keys.public.encrypt(keys.public.modulus)
        with pytest.raises(ValueError):
            keys.decrypt(-1)
        with pytest.raises(ValueError):
            keys.decrypt(keys.public.modulus)

    def test_keypairs_share_the_public_exponent(self):
        keys = crypto.generate_rsa_keypair(random.Random(1), bits=128)
        assert keys.public.exponent == crypto.RSA_PUBLIC_EXPONENT

    def test_hash_to_zn_is_in_range_and_separates_labels_and_moduli(self):
        modulus = crypto.generate_rsa_keypair(random.Random(1), bits=128).public.modulus
        other = crypto.generate_rsa_keypair(random.Random(2), bits=128).public.modulus
        values = {crypto.hash_to_zn(modulus, f"ctx|{i}|{slot}") for i in range(8) for slot in (0, 1)}
        assert len(values) == 16
        assert all(0 <= value < modulus for value in values)
        assert crypto.hash_to_zn(modulus, "ctx|0|0") == crypto.hash_to_zn(modulus, "ctx|0|0")
        assert crypto.hash_to_zn(modulus, "ctx|0|0") != crypto.hash_to_zn(other, "ctx|0|0")

    def test_mask_bit_depends_on_element_and_label(self):
        bits = [crypto.mask_bit(element, "ctx|0|0") for element in range(64)]
        assert {True, False} == set(bits)
        relabelled = [crypto.mask_bit(element, "ctx|0|1") for element in range(64)]
        assert bits != relabelled

    def test_commitments(self):
        digest = crypto.commitment(123, 456)
        assert crypto.verify_commitment(digest, 123, 456)
        assert not crypto.verify_commitment(digest, 124, 456)


class TestSecretSharing:
    def test_boolean_roundtrip(self):
        parties = ["a", "b", "c"]
        for secret in (True, False):
            shares = make_boolean_shares(secret, parties, random.Random(1))
            assert reconstruct_boolean(shares) == secret

    def test_single_party_share_is_the_secret(self):
        assert make_boolean_shares(True, ["only"], random.Random(0)) == {"only": True}

    def test_modular_roundtrip(self):
        shares = make_modular_shares(1234, ["a", "b", "c"], 99991, random.Random(2))
        assert reconstruct_modular(shares, 99991) == 1234

    def test_empty_party_list_rejected(self):
        with pytest.raises(ValueError):
            make_boolean_shares(True, [], random.Random(0))
        with pytest.raises(ValueError):
            make_modular_shares(1, [], 7, random.Random(0))
        with pytest.raises(ValueError):
            reconstruct_boolean({})

    def test_bad_modulus_rejected(self):
        with pytest.raises(ValueError):
            make_modular_shares(1, ["a"], 1, random.Random(0))

    def test_xor_all(self):
        assert xor_all([]) is False
        assert xor_all([True, True, False]) is False
        assert xor_all([True, False, False]) is True


class TestCircuits:
    def inputs(self):
        return {"p1": {"x": True}, "p2": {"x": False}, "p3": {"x": True}}

    def test_operators_build_gates(self):
        a = circuits.InputWire("p1", "x")
        b = circuits.InputWire("p2", "x")
        assert isinstance(a & b, circuits.AndGate)
        assert isinstance(a ^ b, circuits.XorGate)
        assert circuits.evaluate_plain(a | b, self.inputs()) is True
        assert circuits.evaluate_plain(~a, self.inputs()) is False

    def test_eq_gate(self):
        a = circuits.InputWire("p1", "x")
        b = circuits.InputWire("p3", "x")
        assert circuits.evaluate_plain(circuits.eq_gate(a, b), self.inputs()) is True

    def test_adders(self):
        a_bits = [circuits.LitWire(bool(int(b))) for b in "101"]  # 5 little-endian -> 1,0,1
        b_bits = [circuits.LitWire(bool(int(b))) for b in "110"]  # 3 little-endian -> 1,1,0
        out = circuits.ripple_adder(a_bits, b_bits)
        value = sum(
            (1 << i) * int(circuits.evaluate_plain(bit, {})) for i, bit in enumerate(out)
        )
        assert value == 5 + 3

    def test_tree_generators(self):
        parties = ["p1", "p2", "p3", "p4", "p5"]
        xor_c = circuits.xor_tree(parties)
        and_c = circuits.and_tree(parties)
        inputs = {p: {"x": True} for p in parties}
        assert circuits.evaluate_plain(xor_c, inputs) == (len(parties) % 2 == 1)
        assert circuits.evaluate_plain(and_c, inputs) is True
        assert circuits.count_gates(xor_c)["xor"] == len(parties) - 1

    def test_alternating_tree_mentions_every_party(self):
        parties = ["p1", "p2", "p3"]
        circuit = circuits.alternating_tree(parties, depth=3)
        assert set(circuits.input_names(circuit)) == set(parties)

    def test_missing_input_is_a_clear_error(self):
        circuit = circuits.InputWire("p1", "x")
        with pytest.raises(KeyError, match="p1"):
            circuits.evaluate_plain(circuit, {"p1": {}})

    def test_balanced_tree_rejects_empty(self):
        with pytest.raises(ValueError):
            circuits.xor_tree([])

    def test_count_and_depth(self):
        circuit = circuits.majority3(
            circuits.InputWire("p1", "x"),
            circuits.InputWire("p2", "x"),
            circuits.InputWire("p3", "x"),
        )
        counts = circuits.count_gates(circuit)
        assert counts == {"input": 6, "literal": 0, "and": 3, "xor": 2}
        assert circuits.circuit_depth(circuit) == 3


class TestObliviousTransfer:
    CENSUS = ["sender", "receiver", "other"]
    PAIR = ["sender", "receiver"]
    CASES = list(itertools.product([False, True], repeat=3))

    @staticmethod
    def chor(b0, b1, select, seed=9):
        def run(op):
            keys = publish_ot_keys(op, TestObliviousTransfer.PAIR, seed=seed, rsa_bits=128)
            pair = op.locally("sender", lambda _un: (b0, b1))
            choice = op.locally("receiver", lambda _un: select)
            return op.conclave_to(
                TestObliviousTransfer.PAIR,
                ["receiver"],
                lambda sub: ot2(sub, "sender", "receiver", pair, choice, keys, seed=seed),
            )

        return run

    @pytest.mark.parametrize("b0,b1,select", CASES)
    def test_receiver_learns_exactly_the_selected_bit(self, b0, b1, select):
        outcome = self.chor(b0, b1, select)(CentralOp(self.CENSUS))
        assert outcome.peek() == (b1 if select else b0)
        assert list(outcome.owners) == ["receiver"]

    @pytest.mark.parametrize("b0,b1,select", CASES)
    def test_projected_execution_matches_and_excludes_third_party(self, b0, b1, select):
        with ChoreoEngine(self.CENSUS) as engine:
            outcome = engine.run(self.chor(b0, b1, select, seed=3))
        assert outcome.value_at("receiver") is (b1 if select else b0)
        assert outcome.stats.messages_involving("other") == 0
        # two parties publish a key each; the OT itself is two messages:
        # blinded selection over, masked pair back
        assert outcome.stats.total_messages == 2 + 2

    def test_batch_is_two_messages_whatever_its_size(self):
        op = CentralOp(self.PAIR)
        keys = publish_ot_keys(op, self.PAIR, seed=4, rsa_bits=128)
        offers = [(bool(i & 1), bool(i & 2)) for i in range(9)]
        picks = [bool(i % 3 == 0) for i in range(9)]
        before = op.stats.total_messages
        received = ot2_batch(
            op, "sender", "receiver",
            op.locally("sender", lambda _un: offers),
            op.locally("receiver", lambda _un: picks),
            keys, seed=4, context="batch",
        )
        assert received.peek() == [offer[pick] for offer, pick in zip(offers, picks)]
        assert op.stats.total_messages - before == 2

    def test_published_keys_are_fixed_width_and_known_to_every_party(self):
        op = CentralOp(self.CENSUS)
        keys = publish_ot_keys(op, self.CENSUS, seed=5, rsa_bits=100)
        assert list(keys.moduli.owners) == self.CENSUS
        assert list(keys.keypairs.common) == []  # private halves stay private
        assert {len(raw) for raw in keys.moduli.peek().values()} == {13}  # ceil(100 / 8)
        n = len(self.CENSUS)
        assert op.stats.total_messages == n * (n - 1)
        for party, raw in keys.moduli.peek():
            assert int.from_bytes(raw, "big") == keys.keypairs.facet_for(party).public.modulus

    def test_different_seeds_publish_different_keys(self):
        def moduli(seed):
            return publish_ot_keys(
                CentralOp(self.PAIR), self.PAIR, seed=seed, rsa_bits=128
            ).moduli.peek()

        assert moduli(1) == moduli(1)
        assert set(moduli(1).values()).isdisjoint(moduli(2).values())
