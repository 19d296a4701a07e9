"""The GMW secure multiparty computation protocol as a census-polymorphic choreography.

Reproduces the paper's flagship census-polymorphism case study (§6 and
Appendix A): an arbitrary number of parties jointly evaluate a boolean circuit
over their secret inputs without revealing the inputs or any intermediate
value.  The structure follows the MultiChor implementation, with a *layered*
evaluator on top:

* the circuit is topologically levelled (:func:`~repro.protocols.circuits.
  level_circuit`) with structural deduplication, so shared subcircuits are
  evaluated once,
* when the circuit has an AND gate, every party generates **one** RSA key
  pair and publishes its public half to the whole census
  (:func:`~repro.protocols.ot.publish_ot_keys`), a multiply-located value
  every later oblivious transfer already knows,
* secret inputs are dealt as boolean additive shares in **one scatter round
  per dealer**: each party serializes all the shares it owes a peer into a
  single message (``Faceted`` values with no common owners),
* XOR gates are evaluated locally by every party on its own shares
  (``parallel``), using the additive homomorphism of XOR sharing,
* all AND gates of one layer run their oblivious transfers **batched**, one
  two-message exchange per ordered pair of distinct parties, through
  :func:`~repro.protocols.ot.ot2_all_pairs`: the census-polymorphic lift of
  the two-party :func:`~repro.protocols.ot.ot2_batch`, which runs all pairs
  phase by phase (``ot2_batch`` in a ``conclave_to`` per pair is the same
  exchange pair by pair, and the tests' reference), and
* the final output is revealed by gathering every party's share everywhere.

Message complexity is therefore ``O(depth × pairs)`` rather than
``O(gates × pairs)``; see ``docs/performance.md`` for the exact round
structure.  The protocol is parametric over the participating parties:
nothing in this module fixes their number.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.located import Faceted, Located, Quire
from ..core.locations import Location, LocationsLike, as_census
from ..core.ops import ChoreoOp
from . import crypto
from .circuits import Circuit, InputWire, LitWire, XorGate, level_circuit
from .ot import OTKeys, ot2_all_pairs, publish_ot_keys
from .secretshare import make_boolean_shares, xor_all

#: Per-endpoint secret inputs.  Either a flat mapping ``{wire_name: bit}``
#: (the usual case: each endpoint receives only its own inputs via
#: ``location_args``) or a nested mapping ``{party: {wire_name: bit}}`` (used
#: by the centralized reference semantics, which plays every role).
SecretInputs = Union[Mapping[str, bool], Mapping[Location, Mapping[str, bool]]]

#: A pair of share vectors entering one AND gate, as faceted values.
SharePair = Tuple[Faceted[bool], Faceted[bool]]


def _lookup_input(inputs: Optional[SecretInputs], party: Location, name: str) -> bool:
    """Find ``party``'s secret bit for input wire ``name`` in either layout."""
    if inputs is None:
        raise KeyError(
            f"no secret inputs were provided, but the circuit needs {name!r} from {party!r}"
        )
    if party in inputs and isinstance(inputs[party], Mapping):
        nested = inputs[party]
        if name in nested:
            return bool(nested[name])
        raise KeyError(f"party {party!r} has no secret input named {name!r}")
    if name in inputs:
        return bool(inputs[name])  # type: ignore[index]
    raise KeyError(f"no secret input named {name!r} for party {party!r}")


def secret_share(
    op: ChoreoOp,
    parties: LocationsLike,
    owner: Location,
    value: Located[bool],
    *,
    seed: int = 0,
    context: str = "",
) -> Faceted[bool]:
    """Deal boolean additive shares of ``value`` (owned by ``owner``) to every party.

    Mirrors the paper's ``secretShare``: the owner generates one share per
    party whose XOR is the secret, scatters them, and then *forgets* the shares
    it dealt so the resulting faceted value has no common owners.  The
    single-secret case of :func:`secret_share_batch`.
    """
    members = as_census(parties)
    batch = secret_share_batch(
        op, members, owner, value.map(lambda bit: [bit]), seed=seed, context=context
    )
    return op.parallel(members, lambda _party, un: bool(un(batch)[0]))


def secret_share_batch(
    op: ChoreoOp,
    parties: LocationsLike,
    owner: Location,
    values: Located[Sequence[bool]],
    *,
    seed: int = 0,
    context: str = "",
) -> Faceted[List[bool]]:
    """Deal shares of a whole vector of secrets in one scatter round.

    The owner generates shares for every value, then sends each peer a single
    message carrying *all* the share bits that peer is owed — one message per
    (dealer, peer) pair regardless of how many secrets the dealer contributes.
    Like :func:`secret_share`, the dealer forgets the shares it dealt.
    """
    members = as_census(parties)

    def deal(un) -> Quire[List[bool]]:
        rng = crypto.party_rng(seed, owner, f"share|{context}")
        per_party: Dict[Location, List[bool]] = {member: [] for member in members}
        for value in un(values):
            shares = make_boolean_shares(bool(value), list(members), rng)
            for member in members:
                per_party[member].append(shares[member])
        return Quire(members, per_party)

    dealt = op.locally(owner, deal)
    scattered = op.scatter(owner, members, dealt)
    return op.forget_common(scattered)


def reveal(op: ChoreoOp, parties: LocationsLike, shares: Faceted[bool]) -> bool:
    """Open a shared bit: everyone sends everyone their share and XORs them all."""
    members = as_census(parties)
    gathered = op.gather(members, members, shares)
    opened = op.naked(gathered)
    return xor_all(opened.values())


def shared_and_layer(
    op: ChoreoOp,
    parties: LocationsLike,
    share_pairs: Sequence[SharePair],
    keys: OTKeys,
    *,
    seed: int = 0,
    context: str = "",
) -> List[Faceted[bool]]:
    """Compute shares of ``u AND v`` for a whole layer of gates at once.

    The per-gate arithmetic is the ``fAnd`` of Appendix A — the sender ``i``
    offers ``(a_ij, a_ij XOR u_i)`` and the receiver ``j`` selects with its
    share ``v_j``, learning ``a_ij XOR (u_i AND v_j)``; each party's output
    share is ``(u_i AND v_i) XOR (XOR of received OT results) XOR (XOR of the
    masks it generated)`` — but every ordered pair of distinct parties runs
    *one* batched transfer for every gate in ``share_pairs``, all pairs at
    once (:func:`~repro.protocols.ot.ot2_all_pairs`).  A layer of k AND
    gates therefore costs the same ``2 · n · (n-1)`` messages as one gate;
    every transfer a party sends uses its one published key pair (``keys``).
    """
    members = as_census(parties)
    if not share_pairs:
        return []

    # 1. Every party i draws one random mask bit a_ij per peer j and gate g,
    #    and offers j the pair (a_ij, a_ij XOR u_i) for that gate.
    def draw_offers(party: Location, un) -> Dict[Location, List[Tuple[bool, bool]]]:
        rng = crypto.party_rng(seed, party, f"and-masks|{context}")
        u_bits = [bool(un(u_shares)) for u_shares, _v in share_pairs]
        offers = {}
        for peer in members:
            if peer != party:
                masks = [bool(rng.getrandbits(1)) for _ in share_pairs]
                offers[peer] = [(mask, mask != u_bit) for mask, u_bit in zip(masks, u_bits)]
        return offers

    offers = op.parallel(members, draw_offers)

    # 2. Every ordered pair (i, j) runs one batched OT in which j selects
    #    with v_j; all pairs run phase-major (:func:`ot2_all_pairs`).
    def select(party: Location, un) -> Dict[Location, List[bool]]:
        v_bits = [bool(un(v_shares)) for _u, v_shares in share_pairs]
        return {peer: v_bits for peer in members if peer != party}

    received = ot2_all_pairs(
        op, members, offers, op.parallel(members, select), keys, seed=seed, context=context
    )

    # 3. Combine per gate: own product, received OT results, and generated masks.
    def combine(party: Location, un) -> List[bool]:
        own_offers, ot_bits = un(offers), un(received)
        output = []
        for gate, (u_shares, v_shares) in enumerate(share_pairs):
            own_product = bool(un(u_shares)) and bool(un(v_shares))
            generated = xor_all(pairs[gate][0] for pairs in own_offers.values())
            from_peers = xor_all(bits[gate] for bits in ot_bits.values())
            output.append(xor_all([own_product, from_peers, generated]))
        return output

    combined = op.parallel(members, combine)
    return [
        op.parallel(members, lambda _party, un, _gate=gate: bool(un(combined)[_gate]))
        for gate in range(len(share_pairs))
    ]


def shared_and(
    op: ChoreoOp,
    parties: LocationsLike,
    u_shares: Faceted[bool],
    v_shares: Faceted[bool],
    keys: OTKeys,
    *,
    seed: int = 0,
    context: str = "",
) -> Faceted[bool]:
    """Compute shares of ``u AND v`` from shares of ``u`` and ``v``.

    The single-gate case of :func:`shared_and_layer`: one oblivious transfer
    exchange (two messages) per ordered pair of distinct parties.
    """
    (result,) = shared_and_layer(
        op, parties, [(u_shares, v_shares)], keys, seed=seed, context=context
    )
    return result


def share_circuit(
    op: ChoreoOp,
    parties: LocationsLike,
    circuit: Circuit,
    my_inputs: Optional[SecretInputs] = None,
    *,
    seed: int = 0,
    rsa_bits: int = crypto.DEFAULT_RSA_BITS,
) -> Faceted[bool]:
    """Evaluate ``circuit`` under GMW, returning shares of the output bit.

    The layered analogue of the paper's recursive ``gmw`` function: the
    circuit is levelled once, the parties publish their OT session keys if
    any AND gate will need them, every party's input wires are shared in a
    single scatter round per dealer, XOR gates evaluate locally, and the AND
    gates of each layer run their oblivious transfers through one batched
    exchange per ordered pair (:func:`shared_and_layer`).
    """
    members = as_census(parties)
    leveled = level_circuit(circuit)
    shares: Dict[int, Faceted[bool]] = {}

    # 0. OT session keys: one all-to-all round, skipped by XOR-only circuits.
    keys = (
        publish_ot_keys(op, members, seed=seed, rsa_bits=rsa_bits)
        if leveled.and_layers
        else None
    )

    # 1. Secret inputs: one scatter round per dealer, covering all its wires.
    by_dealer: Dict[Location, List[int]] = {}
    for wire_id in leveled.input_ids:
        by_dealer.setdefault(leveled.nodes[wire_id].party, []).append(wire_id)
    for dealer, wire_ids in by_dealer.items():
        names = tuple(leveled.nodes[wire_id].name for wire_id in wire_ids)
        values = op.locally(
            dealer,
            lambda _un, _dealer=dealer, _names=names: [
                _lookup_input(my_inputs, _dealer, name) for name in _names
            ],
        )
        batch = secret_share_batch(
            op, members, dealer, values, seed=seed, context=f"inputs|{dealer}"
        )
        for position, wire_id in enumerate(wire_ids):
            shares[wire_id] = op.parallel(
                members, lambda _party, un, _position=position: bool(un(batch)[_position])
            )

    # 2. Literals: the first party's share is the literal; everyone else holds False.
    first = members[0]
    for node_id, node in enumerate(leveled.nodes):
        if isinstance(node, LitWire):
            shares[node_id] = op.fanout(
                members,
                lambda party, _value=node.value: op.congruently(
                    [party], lambda _un, _party=party: _value if _party == first else False
                ),
            )

    # 3. Gates, one AND layer at a time.  An AND gate of depth d only reads
    #    nodes of depth < d, and an XOR gate of depth d may read the AND gates
    #    of its own layer, so per depth: batched ANDs first, then XORs in
    #    topological order.
    max_depth = max(leveled.and_depth, default=0)
    and_layers = {leveled.and_depth[layer[0]]: layer for layer in leveled.and_layers}
    xor_layers: Dict[int, List[int]] = {}
    for node_id, node in enumerate(leveled.nodes):
        if isinstance(node, XorGate):
            xor_layers.setdefault(leveled.and_depth[node_id], []).append(node_id)
    for depth in range(max_depth + 1):
        layer = and_layers.get(depth, ())
        if layer:
            pairs = [
                (shares[left], shares[right])
                for left, right in (leveled.child_ids[gate_id] for gate_id in layer)
            ]
            outputs = shared_and_layer(
                op, members, pairs, keys, seed=seed, context=f"layer-{depth}"
            )
            for gate_id, output in zip(layer, outputs):
                shares[gate_id] = output
        for node_id in xor_layers.get(depth, ()):
            left, right = leveled.child_ids[node_id]
            shares[node_id] = op.parallel(
                members,
                lambda _party, un, _left=left, _right=right: bool(un(shares[_left]))
                != bool(un(shares[_right])),
            )

    return shares[leveled.output]


def gmw(
    op: ChoreoOp,
    parties: LocationsLike,
    circuit: Circuit,
    my_inputs: Optional[SecretInputs] = None,
    *,
    seed: int = 0,
    rsa_bits: int = crypto.DEFAULT_RSA_BITS,
) -> bool:
    """The complete MPC choreography: share, evaluate, and reveal the circuit output.

    Returns the plaintext output bit, known to every participating party
    (the ``mpc`` entry point of App. A).
    """
    members = as_census(parties)
    output_shares = share_circuit(
        op, members, circuit, my_inputs, seed=seed, rsa_bits=rsa_bits
    )
    return reveal(op, members, output_shares)
