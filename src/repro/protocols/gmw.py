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
  (:func:`~repro.protocols.ot.publish_ot_keys`): a multiply-located value
  that every later two-party OT conclave already knows,
* secret inputs are dealt as boolean additive shares in **one scatter round
  per dealer**: each party serializes all the shares it owes a peer into a
  single message (``Faceted`` values with no common owners),
* XOR gates are evaluated locally by every party on its own shares
  (``parallel``), using the additive homomorphism of XOR sharing,
* all AND gates of one layer run their oblivious transfers **batched**: one
  two-message :func:`~repro.protocols.ot.ot2_batch` exchange per ordered pair
  of distinct parties carries the offered pairs for every gate in the layer,
  each embedded as a two-party conclave inside the full census
  (``fanout`` / ``fanin`` / ``conclave_to``), and
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
from .ot import OTKeys, ot2_batch, publish_ot_keys
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
    *one* batched oblivious transfer carrying the offers for every gate in
    ``share_pairs``.  A layer of k AND gates therefore costs the same
    ``2 · n · (n-1)`` messages as a single gate.  ``keys`` are the parties'
    published session keys; every transfer a party sends uses its one pair.
    """
    members = as_census(parties)
    gate_count = len(share_pairs)
    if gate_count == 0:
        return []
    gate_range = range(gate_count)

    # 1. Every party i draws one random mask bit a_ij per peer j and gate g.
    def draw_masks(party: Location, _un) -> Dict[Location, List[bool]]:
        rng = crypto.party_rng(seed, party, f"and-masks|{context}")
        return {
            peer: [bool(rng.getrandbits(1)) for _ in gate_range]
            for peer in members
            if peer != party
        }

    masks = op.parallel(members, draw_masks)

    # 2. Pairwise batched oblivious transfers, receiver-major (the fanOut of App. A).
    def receive_from_all(receiver: Location) -> Located[List[bool]]:
        def one_sender(sender: Location) -> Located[List[bool]]:
            if sender == receiver:
                return op.locally(receiver, lambda _un: [False] * gate_count)

            def offered_pairs(un):
                mask_bits = un(masks)[receiver]
                offers = []
                for mask, (u_shares, _v) in zip(mask_bits, share_pairs):
                    u_share = bool(un(u_shares))
                    offers.append((mask, mask != u_share))
                return offers

            pairs = op.locally(sender, offered_pairs)
            selects = op.locally(
                receiver, lambda un: [bool(un(v_shares)) for _u, v_shares in share_pairs]
            )
            return op.conclave_to(
                [sender, receiver],
                [receiver],
                lambda sub: ot2_batch(
                    sub,
                    sender,
                    receiver,
                    pairs,
                    selects,
                    keys,
                    seed=seed,
                    context=f"{context}|{sender}->{receiver}",
                ),
            )

        received = op.fanin(members, [receiver], one_sender)
        return op.locally(
            receiver,
            lambda un: [
                xor_all(per_sender[gate] for per_sender in un(received).values())
                for gate in gate_range
            ],
        )

    ot_results = op.fanout(members, receive_from_all)

    # 3. Combine per gate: own product, received OT results, and generated masks.
    def combine(party: Location, un) -> List[bool]:
        own_masks = un(masks)
        received = un(ot_results)
        output = []
        for gate, (u_shares, v_shares) in enumerate(share_pairs):
            own_product = bool(un(u_shares)) and bool(un(v_shares))
            generated = xor_all(own_masks[peer][gate] for peer in own_masks)
            output.append(xor_all([own_product, bool(received[gate]), generated]))
        return output

    combined = op.parallel(members, combine)
    return [
        op.parallel(members, lambda _party, un, _gate=gate: bool(un(combined)[_gate]))
        for gate in gate_range
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
