"""Tests for the GMW secure-computation case study."""

from __future__ import annotations

import collections
import importlib
import itertools
import os
import random

import pytest

from repro import ChoreoEngine, FaultPlan
from repro.core.epp import InstanceScopedEndpoint
from repro.core.errors import ChoreographyRuntimeError, ChoreoTimeout
from repro.core.locations import Census
from repro.protocols import circuits, crypto
from repro.protocols.circuits import level_circuit
from repro.protocols.gmw import (
    gmw,
    reveal,
    secret_share,
    secret_share_batch,
    share_circuit,
    shared_and,
    shared_and_layer,
)
from repro.protocols.ot import ot2_all_pairs, ot2_batch, publish_ot_keys
from repro.runtime.central import CentralOp
from repro.runtime.stats import ChannelStats
from repro.runtime.central import run_centralized
from repro.runtime.transport import DEFAULT_TIMEOUT


def run_once(chor, census):
    """One instance of ``chor`` on a throwaway engine."""
    with ChoreoEngine(census) as engine:
        return engine.run(chor)


RSA_BITS = 128  # keep key generation fast in tests

#: ``CHAOS_SEED`` (comma-separated ints) widens the fault-plan seed sweep.
CHAOS_SEEDS = [int(raw) for raw in os.environ.get("CHAOS_SEED", "7").split(",")]

# ``repro.protocols.gmw`` the attribute is the re-exported function; this is the module
gmw_module = importlib.import_module("repro.protocols.gmw")


def central(parties):
    return CentralOp(parties)


def session_keys(op, parties, seed=3):
    return publish_ot_keys(op, parties, seed=seed, rsa_bits=RSA_BITS)


class TestSecretShareAndReveal:
    PARTIES = ["p1", "p2", "p3"]

    @pytest.mark.parametrize("secret", [True, False])
    def test_share_then_reveal_roundtrip(self, secret):
        op = central(self.PARTIES)
        value = op.locally("p2", lambda _un: secret)
        shares = secret_share(op, self.PARTIES, "p2", value, seed=4)
        assert reveal(op, self.PARTIES, shares) == secret

    def test_shares_have_no_common_owners(self):
        op = central(self.PARTIES)
        value = op.locally("p1", lambda _un: True)
        shares = secret_share(op, self.PARTIES, "p1", value, seed=4)
        assert list(shares.common) == []
        assert list(shares.owners) == self.PARTIES

    def test_dealer_endpoint_forgets_dealt_shares(self):
        def chor(op):
            value = op.locally("p1", lambda _un: True)
            return secret_share(op, self.PARTIES, "p1", value, seed=4)

        result = run_once(chor, self.PARTIES)
        dealer_view = result.returns["p1"].visible_facets()
        assert list(dealer_view) == ["p1"]

    def test_sharing_costs_one_message_per_other_party(self):
        def chor(op):
            value = op.locally("p1", lambda _un: True)
            secret_share(op, self.PARTIES, "p1", value, seed=4)

        result = run_once(chor, self.PARTIES)
        assert result.stats.total_messages == len(self.PARTIES) - 1


class TestSharedAnd:
    PARTIES = ["p1", "p2", "p3"]

    @pytest.mark.parametrize("left,right", list(itertools.product([False, True], repeat=2)))
    def test_and_of_shared_bits(self, left, right):
        op = central(self.PARTIES)
        left_shares = secret_share(
            op, self.PARTIES, "p1", op.locally("p1", lambda _un: left), seed=1, context="L"
        )
        right_shares = secret_share(
            op, self.PARTIES, "p2", op.locally("p2", lambda _un: right), seed=2, context="R"
        )
        product = shared_and(
            op, self.PARTIES, left_shares, right_shares, session_keys(op, self.PARTIES), seed=3
        )
        assert reveal(op, self.PARTIES, product) == (left and right)

    def test_ot_count_is_one_per_ordered_pair(self):
        op = central(self.PARTIES)
        left_shares = secret_share(
            op, self.PARTIES, "p1", op.locally("p1", lambda _un: True), seed=1, context="L"
        )
        right_shares = secret_share(
            op, self.PARTIES, "p2", op.locally("p2", lambda _un: True), seed=2, context="R"
        )
        keys = session_keys(op, self.PARTIES)
        before = op.stats.total_messages
        shared_and(op, self.PARTIES, left_shares, right_shares, keys, seed=3)
        n = len(self.PARTIES)
        # each ordered pair of distinct parties runs one OT (2 messages each);
        # the keys were published before and cost nothing more here
        assert op.stats.total_messages - before == 2 * n * (n - 1)


class TestCircuitLeveling:
    def test_layers_group_and_gates_by_depth(self):
        parties = ["p1", "p2", "p3", "p4"]
        circuit = circuits.deep_and_tree(parties, depth=3)
        leveled = level_circuit(circuit)
        assert leveled.round_count == 3
        assert [len(layer) for layer in leveled.and_layers] == [4, 2, 1]
        assert len(leveled.input_ids) == 8

    def test_structural_dedup_shares_common_subtrees(self):
        a = circuits.InputWire("p1", "a")
        b = circuits.InputWire("p2", "b")
        leveled = level_circuit(circuits.or_gate(a, b))  # a and b appear twice each
        assert len(leveled.input_ids) == 2
        counted = circuits.count_gates(circuits.or_gate(a, b))
        assert counted["input"] == 4  # the tree view still sees 4 occurrences

    def test_children_precede_parents(self):
        parties = ["p1", "p2", "p3"]
        leveled = level_circuit(circuits.alternating_tree(parties, depth=3))
        for index, children in enumerate(leveled.child_ids):
            if children is not None:
                assert children[0] < index and children[1] < index

    def test_xor_gates_do_not_add_rounds(self):
        parties = ["p1", "p2", "p3"]
        leveled = level_circuit(circuits.xor_tree(parties))
        assert leveled.round_count == 0
        assert leveled.and_layers == ()


class TestBatchedPrimitives:
    PARTIES = ["p1", "p2", "p3"]

    def test_secret_share_batch_reconstructs_every_secret(self):
        op = central(self.PARTIES)
        secrets = [True, False, True, True]
        values = op.locally("p2", lambda _un: secrets)
        batch = secret_share_batch(op, self.PARTIES, "p2", values, seed=11)
        for index, secret in enumerate(secrets):
            per_wire = op.parallel(
                self.PARTIES, lambda _party, un, _i=index: bool(un(batch)[_i])
            )
            assert reveal(op, self.PARTIES, per_wire) == secret

    def test_secret_share_batch_costs_one_message_per_peer(self):
        def chor(op):
            values = op.locally("p1", lambda _un: [True, False, True])
            secret_share_batch(op, self.PARTIES, "p1", values, seed=2)

        result = run_once(chor, self.PARTIES)
        # three secrets, still one message per (dealer, peer) pair
        assert result.stats.total_messages == len(self.PARTIES) - 1

    @pytest.mark.parametrize("bits", [(False, False), (True, False), (True, True)])
    def test_shared_and_layer_matches_plain_and(self, bits):
        op = central(self.PARTIES)
        pairs = []
        for index, _ in enumerate(bits):
            u = secret_share(
                op, self.PARTIES, "p1",
                op.locally("p1", lambda _un, _i=index: bits[_i]),
                seed=21, context=f"u{index}",
            )
            v = secret_share(
                op, self.PARTIES, "p2",
                op.locally("p2", lambda _un: True),
                seed=22, context=f"v{index}",
            )
            pairs.append((u, v))
        products = shared_and_layer(
            op, self.PARTIES, pairs, session_keys(op, self.PARTIES), seed=23
        )
        for bit, product in zip(bits, products):
            assert reveal(op, self.PARTIES, product) == (bit and True)

    def test_layer_message_count_is_independent_of_gate_count(self):
        op = central(self.PARTIES)
        n = len(self.PARTIES)

        def make_pairs(count, tag):
            pairs = []
            for index in range(count):
                u = secret_share(
                    op, self.PARTIES, "p1",
                    op.locally("p1", lambda _un: True), seed=31, context=f"{tag}u{index}",
                )
                v = secret_share(
                    op, self.PARTIES, "p2",
                    op.locally("p2", lambda _un: False), seed=32, context=f"{tag}v{index}",
                )
                pairs.append((u, v))
            return pairs

        keys = session_keys(op, self.PARTIES)
        one_gate = make_pairs(1, "a")
        before = op.stats.total_messages
        shared_and_layer(op, self.PARTIES, one_gate, keys, seed=33, context="one")
        single_cost = op.stats.total_messages - before

        five_gates = make_pairs(5, "b")
        before = op.stats.total_messages
        shared_and_layer(op, self.PARTIES, five_gates, keys, seed=34, context="five")
        batched_cost = op.stats.total_messages - before

        assert single_cost == batched_cost == 2 * n * (n - 1)

    def test_empty_layer_is_free(self):
        op = central(self.PARTIES)
        keys = session_keys(op, self.PARTIES)
        before = op.stats.total_messages
        assert shared_and_layer(op, self.PARTIES, [], keys, seed=1) == []
        assert op.stats.total_messages == before


def run_gmw(circuit, inputs, parties, transport="local", timeout=DEFAULT_TIMEOUT):
    def chor(op, my_inputs=None):
        return gmw(op, parties, circuit, my_inputs, seed=7, rsa_bits=RSA_BITS)

    with ChoreoEngine(parties, backend=transport, timeout=timeout) as engine:
        return engine.run(
            chor, location_args={party: (inputs.get(party, {}),) for party in parties}
        )


class TestGMWEndToEnd:
    PARTIES = ["p1", "p2", "p3"]

    def majority(self):
        return circuits.majority3(
            circuits.InputWire("p1", "a"),
            circuits.InputWire("p2", "b"),
            circuits.InputWire("p3", "c"),
        )

    @pytest.mark.parametrize(
        "bits", list(itertools.product([False, True], repeat=3))
    )
    def test_majority_circuit_matches_plaintext(self, bits):
        inputs = {"p1": {"a": bits[0]}, "p2": {"b": bits[1]}, "p3": {"c": bits[2]}}
        expected = circuits.evaluate_plain(self.majority(), inputs)
        stats = ChannelStats()
        observed = run_centralized(
            lambda op, my=None: gmw(op, self.PARTIES, self.majority(), inputs, seed=7,
                                    rsa_bits=RSA_BITS),
            self.PARTIES,
            stats=stats,
        )
        assert observed == expected

    def test_projected_run_agrees_everywhere(self):
        inputs = {"p1": {"a": True}, "p2": {"b": True}, "p3": {"c": False}}
        expected = circuits.evaluate_plain(self.majority(), inputs)
        result = run_gmw(self.majority(), inputs, self.PARTIES)
        assert set(result.returns.values()) == {expected}

    def test_xor_only_circuit_needs_only_sharing_and_reveal_messages(self):
        circuit = circuits.xor_tree(self.PARTIES)
        inputs = {p: {"x": True} for p in self.PARTIES}
        result = run_gmw(circuit, inputs, self.PARTIES)
        expected = circuits.evaluate_plain(circuit, inputs)
        assert set(result.returns.values()) == {expected}
        n = len(self.PARTIES)
        sharing = n * (n - 1)   # each party deals shares of its input
        reveal_msgs = n * (n - 1)  # everyone opens its output share to everyone
        assert result.stats.total_messages == sharing + reveal_msgs

    @pytest.mark.parametrize("n_parties", [2, 4])
    def test_census_polymorphism_over_party_count(self, n_parties):
        parties = [f"p{i}" for i in range(1, n_parties + 1)]
        circuit = circuits.and_tree(parties)
        inputs = {p: {"x": True} for p in parties}
        result = run_gmw(circuit, inputs, parties)
        assert set(result.returns.values()) == {True}

    def test_literal_wires(self):
        circuit = circuits.AndGate(circuits.LitWire(True), circuits.InputWire("p1", "a"))
        inputs = {"p1": {"a": True}, "p2": {}, "p3": {}}
        result = run_gmw(circuit, inputs, self.PARTIES)
        assert set(result.returns.values()) == {True}

    def test_missing_input_fails_loudly(self):
        circuit = circuits.InputWire("p1", "a")
        with pytest.raises(ChoreographyRuntimeError) as failure:
            run_gmw(circuit, {"p1": {}}, self.PARTIES, timeout=0.2)
        # Loudly = the root cause at the party that lacks the input, with the
        # timeouts it induced at its peers demoted behind it in the bundle.
        assert failure.value.location == "p1"
        assert isinstance(failure.value.original, KeyError)
        induced = {loc: exc for loc, exc in failure.value.failures.items() if loc != "p1"}
        assert set(induced) == {"p2", "p3"}
        assert all(isinstance(exc, ChoreoTimeout) for exc in induced.values())

    def test_nested_dict_inputs_for_centralized_runs(self):
        circuit = circuits.XorGate(
            circuits.InputWire("p1", "a"), circuits.InputWire("p2", "b")
        )
        inputs = {"p1": {"a": True}, "p2": {"b": True}, "p3": {}}
        observed = run_centralized(
            lambda op, my=None: gmw(op, self.PARTIES, circuit, inputs, seed=1, rsa_bits=RSA_BITS),
            self.PARTIES,
        )
        assert observed is False

    def test_intermediate_values_stay_shared(self):
        """share_circuit returns a faceted value whose reconstruction is the
        plaintext result, but no single facet equals it systematically."""
        circuit = circuits.AndGate(
            circuits.InputWire("p1", "a"), circuits.InputWire("p2", "b")
        )
        inputs = {"p1": {"a": True}, "p2": {"b": True}, "p3": {}}
        op = central(self.PARTIES)
        shares = share_circuit(op, self.PARTIES, circuit, inputs, seed=5, rsa_bits=RSA_BITS)
        quire = shares.to_quire()
        from repro.protocols.secretshare import xor_all

        assert xor_all(quire.values()) is True


def expected_messages(parties, circuit):
    """dealers·(n−1) + [depth>0]·n·(n−1) + 2·n·(n−1)·depth + n·(n−1)."""
    n = len(parties)
    leveled = level_circuit(circuit)
    dealers = {leveled.nodes[wire_id].party for wire_id in leveled.input_ids}
    depth = leveled.round_count
    return (
        len(dealers) * (n - 1)       # input sharing
        + (depth > 0) * n * (n - 1)  # key publication
        + 2 * n * (n - 1) * depth    # one batched OT per ordered pair and layer
        + n * (n - 1)                # reveal
    )


class TestSessionKeyAccounting:
    """One RSA key per party and run, published once; everything else pinned."""

    @pytest.fixture
    def keygen_calls(self, monkeypatch):
        calls = []
        real = crypto.generate_rsa_keypair

        def counting(rng, bits=crypto.DEFAULT_RSA_BITS):
            calls.append(bits)
            return real(rng, bits)

        monkeypatch.setattr(crypto, "generate_rsa_keypair", counting)
        return calls

    @pytest.mark.parametrize("n_parties", [2, 3, 4])
    @pytest.mark.parametrize("transport", ["central", "local"])
    def test_one_keygen_per_party_when_the_circuit_has_an_and_gate(
        self, keygen_calls, n_parties, transport
    ):
        parties = [f"p{i}" for i in range(1, n_parties + 1)]
        circuit = circuits.deep_and_tree(parties, depth=2)  # 3 AND gates, 2 layers
        names = circuits.input_names(circuit)
        inputs = {p: {name: True for name in names.get(p, [])} for p in parties}
        if transport == "central":
            assert run_centralized(
                lambda op: gmw(op, parties, circuit, inputs, seed=5, rsa_bits=RSA_BITS), parties
            ) is True
        else:
            assert set(run_gmw(circuit, inputs, parties).returns.values()) == {True}
        assert keygen_calls == [RSA_BITS] * n_parties

    def test_xor_only_circuit_generates_no_keys(self, keygen_calls):
        parties = ["p1", "p2", "p3"]
        result = run_gmw(circuits.xor_tree(parties), {p: {"x": True} for p in parties}, parties)
        assert set(result.returns.values()) == {True}
        assert keygen_calls == []

    @pytest.mark.parametrize(
        "parties,circuit",
        [
            # the party sweep: one AND tree over every party's input bit
            *[(parties, circuits.and_tree(parties)) for parties in (
                ["p1", "p2"], ["p1", "p2", "p3"], ["p1", "p2", "p3", "p4"],
                ["p1", "p2", "p3", "p4", "p5"],
            )],
            (["p1", "p2", "p3"], circuits.xor_tree(["p1", "p2", "p3"])),
            # the gate sweep: 3 parties, AND/XOR layers of growing depth
            *[(["p1", "p2", "p3"], circuits.alternating_tree(["p1", "p2", "p3"], depth))
              for depth in (1, 2, 3)],
            (["p1", "p2", "p3", "p4"], circuits.deep_and_tree(["p1", "p2", "p3", "p4"], 3)),
            # p3 deals nothing: dealers < n
            (["p1", "p2", "p3"], circuits.InputWire("p1", "a") & circuits.InputWire("p2", "b")),
        ],
    )
    def test_message_total_is_pinned(self, parties, circuit):
        names = circuits.input_names(circuit)
        inputs = {p: {name: True for name in names.get(p, [])} for p in parties}
        result = run_gmw(circuit, inputs, parties)
        assert set(result.returns.values()) == {circuits.evaluate_plain(circuit, inputs)}
        assert result.stats.total_messages == expected_messages(parties, circuit)

    def test_reference_shapes(self):
        four = ["p1", "p2", "p3", "p4"]
        assert expected_messages(four, circuits.and_tree(four)) == 84
        assert expected_messages(four, circuits.deep_and_tree(four, 3)) == 108

    def test_layered_batching_at_least_halves_the_per_gate_count(self):
        """A per-gate evaluator shares every input occurrence separately and
        runs one OT per AND gate and ordered pair: 204 messages on a 4-party
        depth-3 AND tree (7 gates in 3 layers).  Layering sends 96, plus the
        run's one key-publication round (12)."""
        four = ["p1", "p2", "p3", "p4"]
        circuit = circuits.deep_and_tree(four, 3)
        n, pairs = len(four), len(four) * (len(four) - 1)
        gates = circuits.count_gates(circuit)
        per_gate = gates["input"] * (n - 1) + 2 * pairs * gates["and"] + pairs
        assert per_gate == 204
        assert (expected_messages(four, circuit) - pairs) * 2 <= per_gate

    def test_runs_with_different_seeds_publish_different_moduli(self, monkeypatch):
        published = []

        def recording(op, parties, **kwargs):
            keys = publish_ot_keys(op, parties, **kwargs)
            published.append(set(keys.moduli.peek().values()))
            return keys

        monkeypatch.setattr(gmw_module, "publish_ot_keys", recording)
        parties = ["p1", "p2", "p3"]
        circuit = circuits.and_tree(parties)
        inputs = {p: {"x": True} for p in parties}
        for seed in (1, 2, 1):
            run_centralized(
                lambda op: gmw(op, parties, circuit, inputs, seed=seed, rsa_bits=RSA_BITS), parties
            )
        first, second, first_again = published
        assert len(first) == len(second) == len(parties)
        assert first.isdisjoint(second)
        assert first == first_again  # derived from the seed, not cached: reproducible


class TestPublicKeyWorkPerRun:
    """The count guard for the RSA kernels under the OT: every modular
    exponentiation in ``repro.protocols.crypto`` of one warm central run of
    the ``gmw_session`` circuit, sorted by what it computes."""

    PARTIES = ["p1", "p2", "p3", "p4"]

    @pytest.fixture()
    def work(self, monkeypatch):
        seen = {"pow": [], "primes": [], "keys": []}
        real_prime, real_keypair = crypto.generate_prime, crypto.generate_rsa_keypair

        def counting_pow(base, exponent, modulus=None):
            seen["pow"].append((exponent, modulus))
            return pow(base, exponent, modulus)

        def recording(kind, real):
            def record(*args):
                seen[kind].append(real(*args))
                return seen[kind][-1]

            return record

        monkeypatch.setattr(crypto, "pow", counting_pow, raising=False)
        monkeypatch.setattr(crypto, "generate_prime", recording("primes", real_prime))
        monkeypatch.setattr(crypto, "generate_rsa_keypair", recording("keys", real_keypair))
        return seen

    def run(self, seed):
        circuit = circuits.and_tree(self.PARTIES)
        inputs = {party: {"x": True} for party in self.PARTIES}
        assert run_centralized(
            lambda op: gmw(op, self.PARTIES, circuit, inputs, seed=seed, rsa_bits=RSA_BITS),
            self.PARTIES,
        ) is True

    def test_crt_decryption_and_seven_rounds_per_64_bit_prime(self, work):
        self.run(0)
        for seen in work.values():
            seen.clear()
        self.run(11)
        calls = collections.Counter(work["pow"])
        keys, primes = work["keys"], work["primes"]
        assert len(keys) == 4 and all(prime.bit_length() == 64 for prime in primes)
        full_width = {(key.private_exponent, key.public.modulus) for key in keys}
        crt = {
            (key.private_exponent % (prime - 1), prime)
            for key in keys for prime in primes if key.public.modulus % prime == 0
        }
        assert sum(calls[call] for call in full_width) == 0  # 72 before CRT decryption
        assert sum(calls[call] for call in crt) == 144  # two per decrypt, 72 decrypts

        def odd_part(n):
            return n >> ((n & -n).bit_length() - 1)

        # one Miller–Rabin round is one power by the odd part of prime − 1 (16 before)
        assert [calls[(odd_part(prime - 1), prime)] for prime in primes] == [7] * len(primes)


class TestWireBytesArePinned:
    """Field elements travel at fixed width, so a run's bytes per channel are
    a function of (census, circuit, rsa_bits) — not of seed, inputs or shares."""

    PARTIES = ["p1", "p2", "p3"]
    CIRCUIT = circuits.alternating_tree(PARTIES, depth=2)

    def run(self, backend, seed, bits, rsa_bits=RSA_BITS):
        names = circuits.input_names(self.CIRCUIT)
        flat = iter(bits)
        inputs = {p: {name: next(flat) for name in names.get(p, [])} for p in self.PARTIES}
        with ChoreoEngine(self.PARTIES, backend=backend, timeout=15.0) as engine:
            result = engine.run(
                lambda op, my_inputs: gmw(
                    op, self.PARTIES, self.CIRCUIT, my_inputs, seed=seed, rsa_bits=rsa_bits
                ),
                args=(inputs,),
            )
        assert set(result.returns.values()) == {circuits.evaluate_plain(self.CIRCUIT, inputs)}
        return dict(result.stats.messages), dict(result.stats.payload_bytes)

    def input_count(self):
        return sum(len(names) for names in circuits.input_names(self.CIRCUIT).values())

    def test_bytes_do_not_depend_on_seed_inputs_or_select_bits(self):
        # every input assignment (hence every pattern of OT select bits the
        # shares can take) under several seeds, on the reference semantics
        assignments = list(itertools.product([False, True], repeat=self.input_count()))
        observed = {
            repr(self.run("central", seed, bits))
            for seed in (0, 1, 2, 7, 11, 2**31)
            for bits in assignments[:: max(1, len(assignments) // 16)]
        }
        assert len(observed) == 1

    def test_bytes_identical_on_every_backend(self):
        count = self.input_count()
        reference = self.run("central", 0, [True] * count)
        for backend in ["local", "tcp", "asyncio", "simulated"]:
            for seed, bits in [(5, [True] * count), (6, [i % 2 == 0 for i in range(count)])]:
                assert self.run(backend, seed, bits) == reference, (backend, seed)

    def test_bytes_follow_the_modulus_width(self):
        _messages, narrow = self.run("central", 3, [True] * self.input_count(), rsa_bits=128)
        _messages, wide = self.run("central", 3, [True] * self.input_count(), rsa_bits=192)
        assert sum(wide.values()) > sum(narrow.values())


class TestOneTurnPerRound:
    """The count guard for phase-major OT: in a warm GMW run every party turns
    from sending to receiving once per all-to-all round (key publication,
    input sharing, two per AND layer, reveal) and never once per ordered pair.
    Pair-by-pair OT conclaves read 13/13/13/12 turns on the ``gmw_session``
    circuit; phase-major OT reads 7/7/7/6."""

    @staticmethod
    def turns(parties, monkeypatch):
        circuit = circuits.and_tree(parties)
        events = collections.defaultdict(list)

        def recording(kind, real):
            def record(endpoint, *args):
                events[endpoint.location].append(kind)
                return real(endpoint, *args)

            return record

        with ChoreoEngine(parties, backend="local") as engine:

            def run():
                result = engine.run(
                    lambda op, my_inputs: gmw(
                        op, parties, circuit, my_inputs, seed=11, rsa_bits=RSA_BITS
                    ),
                    location_args={party: ({"x": True},) for party in parties},
                )
                assert set(result.returns.values()) == {True}

            run()  # warm: the mesh is up before anything is counted
            for name, kind in [("send", "send"), ("send_many", "send"), ("recv", "recv")]:
                real = getattr(InstanceScopedEndpoint, name)
                monkeypatch.setattr(InstanceScopedEndpoint, name, recording(kind, real))
            run()
        rounds = 3 + 2 * len(level_circuit(circuit).and_layers)
        turns = [
            sum(pair == ("send", "recv") for pair in zip(events[party], events[party][1:]))
            for party in parties
        ]
        return rounds, turns

    def test_gmw_session_circuit_turns_once_per_round(self, monkeypatch):
        rounds, turns = self.turns(["p1", "p2", "p3", "p4"], monkeypatch)
        assert rounds == 7
        # the last party's final send ends the run, so it turns once less
        assert turns == [7, 7, 7, 6]

    def test_five_parties_turn_once_per_round(self, monkeypatch):
        rounds, turns = self.turns([f"p{i}" for i in range(1, 6)], monkeypatch)
        assert rounds == 9
        assert turns == [9, 9, 9, 9, 8]


ALL_PAIRS_PARTIES = ["p1", "p2", "p3"]


def transfers_of(party, gates=3):
    """``party``'s seeded offers to, and select bits against, every peer."""
    rng = random.Random(f"transfers|{party}")
    peers = [peer for peer in ALL_PAIRS_PARTIES if peer != party]
    offers = {
        peer: [(rng.random() < 0.5, rng.random() < 0.5) for _ in range(gates)] for peer in peers
    }
    return offers, {peer: [rng.random() < 0.5 for _ in range(gates)] for peer in peers}


def drawn_transfers(op):
    return op.parallel(ALL_PAIRS_PARTIES, lambda party, _un: transfers_of(party))


def all_pairs_chor(op, seed=5):
    keys = session_keys(op, ALL_PAIRS_PARTIES)
    drawn = drawn_transfers(op)
    return ot2_all_pairs(
        op,
        ALL_PAIRS_PARTIES,
        op.parallel(ALL_PAIRS_PARTIES, lambda _party, un: un(drawn)[0]),
        op.parallel(ALL_PAIRS_PARTIES, lambda _party, un: un(drawn)[1]),
        keys,
        seed=seed,
        context="all",
    )


def per_pair_chor(op, seed=5):
    """The reference: ``ot2_batch`` in a two-party conclave per ordered pair."""
    keys = session_keys(op, ALL_PAIRS_PARTIES)
    drawn = drawn_transfers(op)
    received = {}
    for receiver in ALL_PAIRS_PARTIES:
        for sender in ALL_PAIRS_PARTIES:
            if sender == receiver:
                continue
            pairs = op.locally(sender, lambda un, _r=receiver: un(drawn)[0][_r])
            selects = op.locally(receiver, lambda un, _s=sender: un(drawn)[1][_s])
            received[sender, receiver] = op.conclave_to(
                [sender, receiver],
                [receiver],
                lambda sub, _s=sender, _r=receiver, _p=pairs, _c=selects: ot2_batch(
                    sub, _s, _r, _p, _c, keys, seed=seed, context=f"all|{_s}->{_r}"
                ),
            )
    return op.parallel(
        ALL_PAIRS_PARTIES,
        lambda receiver, un: {
            sender: un(received[sender, receiver])
            for sender in ALL_PAIRS_PARTIES
            if sender != receiver
        },
    )


def run_transfers(chor, backend, faults=None, seeds=(5,)):
    """Every run's received bits per party, and the engine's channel rows."""
    options = {} if faults is None else {"faults": faults}
    with ChoreoEngine(ALL_PAIRS_PARTIES, backend=backend, timeout=15.0, **options) as engine:
        futures = [engine.submit(chor, kwargs={"seed": seed}) for seed in seeds]
        bits = [
            {party: facets.facet_for(party) for party, facets in future.result(60).returns.items()}
            for future in futures
        ]
        return bits, dict(engine.stats.messages), dict(engine.stats.payload_bytes)


class TestAllPairsMatchesPerPairConclaves:
    """``ot2_all_pairs`` is the all-pairs lift of ``ot2_batch``: the same bits
    and the same per-channel ``ChannelStats`` rows as one two-party conclave
    per ordered pair, on every backend."""

    @pytest.mark.parametrize("backend", ["central", "local", "tcp", "asyncio", "simulated"])
    def test_bits_and_channel_rows_equal_the_per_pair_reference(self, backend):
        reference = run_transfers(per_pair_chor, backend)
        assert run_transfers(all_pairs_chor, backend) == reference
        bits, messages, _bytes = reference
        assert messages == {
            (a, b): 2 + 1 for a in ALL_PAIRS_PARTIES for b in ALL_PAIRS_PARTIES if a != b
        }  # one selection and one masked batch each way, after one key message
        for receiver, received in bits[0].items():
            selects = transfers_of(receiver)[1]
            for sender, got in received.items():
                pairs = transfers_of(sender)[0][receiver]
                assert got == [pair[select] for pair, select in zip(pairs, selects[sender])]

    def test_payloads_per_channel_equal_the_per_pair_reference(self, monkeypatch):
        # Same labels and randomness, not only the same selected bits: every
        # channel carries the same payloads (in another order: phase-major
        # sends a party's selections before any of its masked pairs).
        sent = collections.defaultdict(list)
        real_send, real_send_many = InstanceScopedEndpoint.send, InstanceScopedEndpoint.send_many

        def send(endpoint, receiver, payload):
            sent[endpoint.location, receiver].append(repr(payload))
            return real_send(endpoint, receiver, payload)

        def send_many(endpoint, receivers, payload):
            for receiver in receivers:
                sent[endpoint.location, receiver].append(repr(payload))
            return real_send_many(endpoint, receivers, payload)

        monkeypatch.setattr(InstanceScopedEndpoint, "send", send)
        monkeypatch.setattr(InstanceScopedEndpoint, "send_many", send_many)
        observed = []
        for chor in (per_pair_chor, all_pairs_chor):
            sent.clear()
            run_transfers(chor, "local")
            observed.append({channel: sorted(payloads) for channel, payloads in sent.items()})
        assert observed[0] == observed[1]
        assert len(observed[0]) == 6

    @pytest.mark.parametrize("backend", ["simulated", "tcp"])
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_pipelined_runs_hold_under_delay_and_reorder(self, backend, seed):
        # Phase-major puts n - 1 frames per party in flight at once: per-channel
        # FIFO and the instance tags must keep them apart under reordering.
        seeds = (5, 6, 7)
        expected = run_transfers(all_pairs_chor, "central", seeds=seeds)
        plan = FaultPlan(seed=seed).delay(jitter=0.005, rate=0.3).reorder(rate=0.5, span=3)
        assert run_transfers(all_pairs_chor, backend, faults=plan, seeds=seeds) == expected
