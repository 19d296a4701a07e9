"""1-out-of-2 oblivious transfer as a two-party choreography.

The sender holds two secret bits ``(b0, b1)``; the receiver holds a select bit
``s`` and learns ``b_s`` — nothing more, and the sender does not learn ``s``.
The paper implements this with RSA (Appendix A, ``ot2``); this module uses the
classic *sender-keyed* RSA construction of Even, Goldreich and Lempel, with
the two public offsets derived by hashing so the exchange stays at two
messages, receiver first:

1. both sides know the sender's public key ``(N, e)`` and, per instance ``i``,
   the offsets ``x_i0 = H(N, context, i, 0)`` and ``x_i1 = H(N, context, i, 1)``
   in ``Z_N`` (:func:`~repro.protocols.crypto.hash_to_zn`);
2. the receiver draws ``k_i`` uniformly from ``Z_N`` and sends
   ``v_i = x_is + k_i^e mod N`` for its select bit ``s``;
3. the sender computes ``k_i0 = (v_i − x_i0)^d`` and ``k_i1 = (v_i − x_i1)^d``
   — one of them is the receiver's ``k_i``, it cannot tell which — and answers
   ``(b0 ⊕ h(k_i0), b1 ⊕ h(k_i1))`` with ``h`` one hash bit
   (:func:`~repro.protocols.crypto.mask_bit`);
4. the receiver unmasks slot ``s`` with ``h(k_i)``.

**One key per party, published once.**  The sender's key does not depend on
any secret of any instance, so one key pair per party serves every transfer
that party ever sends in a protocol run.  :func:`publish_ot_keys` has each
party generate its pair and gather all public moduli everywhere: the result
is *multiply located* at the whole census, so in any later transfer both
parties already hold the sender's public key and no further communication is
needed — the paper's efficiency argument for MLVs, applied to key material.
A GMW run therefore makes ``n`` key generations instead of two per gate,
ordered pair and layer (the receiver-keyed OT this replaced could not cache
its keys; see ``docs/performance.md``).  Keys are
derived from the run's ``seed`` and live in the returned :class:`OTKeys`
only: there is no cache, and runs with different seeds never share a key.

**Security (the paper's semi-honest model).**  *Receiver privacy* is
information-theoretic: ``k ↦ k^e`` permutes ``Z_N``, so ``v_i`` is uniform in
``Z_N`` whatever ``s`` is, and fresh per instance.  *Sender privacy* rests on
RSA one-wayness: to unmask the other slot the receiver needs the ``e``-th
root of ``v_i − x_i(1−s) = (x_is − x_i(1−s)) + k_i^e``, a point it does not
control because the offsets are hash outputs, and ``h`` of an unknown root is
unpredictable (random-oracle reading of the two hashes; labels separate
instances, slots, contexts and keys).

Two forms share the blind / mask / unmask steps below.  :func:`ot2_batch`
(with :func:`ot2`, its single-instance case) is the two-party choreography:
its census is exactly ``[sender, receiver]``, and it composes into any larger
census through ``conclave_to`` — the paper's demonstration that pairwise
sub-protocols compose with census polymorphism.  It runs a whole *vector* of
transfers in the same two messages, so a GMW layer of AND gates needs one
exchange per ordered pair.  :func:`ot2_all_pairs` is its census-polymorphic
lift, which GMW uses: every ordered pair's batch, run phase by phase across
the census, with the same labels, randomness and messages as ``ot2_batch``
per pair in a conclave, but each party's sends of a phase back to back.

Field elements travel as fixed-width big-endian ``bytes`` of
``ceil(rsa_bits / 8)`` — the public moduli one per message, the ``v_i`` of a
batch concatenated — so message sizes depend on the census, the circuit and
``rsa_bits`` only, never on the seed or on any secret.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Sequence, Tuple

from ..core.located import Faceted, Located, Quire
from ..core.locations import Location, LocationsLike, as_census
from ..core.ops import ChoreoOp
from . import crypto


class OTKeys(NamedTuple):
    """One RSA session key per party (:func:`publish_ot_keys`)."""

    #: Each party's own key pair; nobody sees another party's facet.
    keypairs: Faceted[crypto.RSAKeyPair]
    #: Every party's public modulus as fixed-width bytes, known to all parties.
    moduli: Located[Quire[bytes]]


def publish_ot_keys(
    op: ChoreoOp,
    parties: LocationsLike,
    *,
    seed: int = 0,
    rsa_bits: int = crypto.DEFAULT_RSA_BITS,
) -> OTKeys:
    """Every party generates one key pair and publishes its modulus to all.

    One all-to-all round, ``n · (n − 1)`` messages of ``ceil(rsa_bits / 8)``
    payload bytes.  The public exponent is the constant
    :data:`~repro.protocols.crypto.RSA_PUBLIC_EXPONENT` and is not sent.
    """
    members = as_census(parties)
    width = (rsa_bits + 7) // 8
    keypairs = op.parallel(
        members,
        lambda party, _un: crypto.generate_rsa_keypair(
            crypto.party_rng(seed, party, "ot-key"), rsa_bits
        ),
    )
    encoded = op.parallel(
        members, lambda _party, un: un(keypairs).public.modulus.to_bytes(width, "big")
    )
    return OTKeys(keypairs, op.gather(members, members, encoded))


def _label(context: str, index: int, slot: int) -> str:
    return f"{context}|{index}|{slot}"


def _blind(seed: int, receiver: Location, context: str, raw_modulus: bytes, selects):
    """Step 2 at the receiver: per instance, add a fresh element encrypted
    under the sender's key to the offset of the selected slot.  Returns the
    secret elements and the blinded selections as one byte string."""
    rng = crypto.party_rng(seed, receiver, f"ot-blind|{context}")
    public = crypto.RSAPublicKey(int.from_bytes(raw_modulus, "big"), crypto.RSA_PUBLIC_EXPONENT)
    blinds, selections = [], []
    for index, select_bit in enumerate(selects):
        blind_element = rng.randrange(public.modulus)
        offset = crypto.hash_to_zn(public.modulus, _label(context, index, int(bool(select_bit))))
        blinded = (offset + public.encrypt(blind_element)) % public.modulus
        blinds.append(blind_element)
        selections.append(blinded.to_bytes(len(raw_modulus), "big"))
    return blinds, b"".join(selections)


def _mask(keypair: crypto.RSAKeyPair, width: int, context: str, offers, blob: bytes):
    """Step 3 at the sender: strip each offset, decrypt, and mask the offered
    bit of that slot with a hash bit of the result."""
    modulus = keypair.public.modulus
    if len(blob) != width * len(offers):
        raise ValueError(
            f"expected {len(offers)} blinded selections of {width} bytes, got {len(blob)} bytes"
        )

    def pad(index: int, slot: int, element: int) -> bool:
        label = _label(context, index, slot)
        offset = crypto.hash_to_zn(modulus, label)
        return crypto.mask_bit(keypair.decrypt((element - offset) % modulus), label)

    masked = []
    for index, (b0, b1) in enumerate(offers):
        element = int.from_bytes(blob[index * width : (index + 1) * width], "big")
        masked.append((bool(b0) != pad(index, 0, element), bool(b1) != pad(index, 1, element)))
    return masked


def _unmask(context: str, selects, blinds, masked_pairs) -> List[bool]:
    """Step 4 at the receiver: unmask each instance's selected slot."""
    bits = []
    for index, (select_bit, blind_element, masked) in enumerate(
        zip(selects, blinds, masked_pairs)
    ):
        slot = int(bool(select_bit))
        bits.append(masked[slot] != crypto.mask_bit(blind_element, _label(context, index, slot)))
    return bits


def ot2_batch(
    op: ChoreoOp,
    sender: Location,
    receiver: Location,
    pairs: Located[Sequence[Tuple[bool, bool]]],
    selects: Located[Sequence[bool]],
    keys: OTKeys,
    *,
    seed: int = 0,
    context: str = "",
) -> Located[List[bool]]:
    """Obliviously transfer one bit of each offered pair, all in two messages.

    ``pairs`` are the ``(b0, b1)`` offers located at the sender, one per
    instance; ``selects`` are the index-aligned select bits located at the
    receiver.  ``op``'s census holds (at least) both parties, and the caller
    is expected to conclave down to exactly them.  ``keys`` were published to
    both; the sender's pair keys every instance.  ``seed`` and ``context``
    determine the receiver's blinding randomness, and ``context`` also labels
    the hashes, so it must differ between batches that share a key.

    Returns the list of selected bits, located at the receiver.
    """
    op.census.require_member(sender)
    op.census.require_member(receiver)
    blinded = op.locally(
        receiver,
        lambda un: _blind(seed, receiver, context, un(keys.moduli)[sender], un(selects)),
    )
    selections = op.comm(receiver, sender, blinded.map(lambda both: both[1]))
    masked = op.locally(
        sender,
        lambda un: _mask(
            un(keys.keypairs), len(un(keys.moduli)[sender]), context, un(pairs), un(selections)
        ),
    )
    masked_pairs = op.comm(sender, receiver, masked)
    return op.locally(
        receiver, lambda un: _unmask(context, un(selects), un(blinded)[0], un(masked_pairs))
    )


def ot2_all_pairs(
    op: ChoreoOp,
    parties: LocationsLike,
    offers: Faceted[Mapping[Location, Sequence[Tuple[bool, bool]]]],
    selects: Faceted[Mapping[Location, Sequence[bool]]],
    keys: OTKeys,
    *,
    seed: int = 0,
    context: str = "",
) -> Faceted[Dict[Location, List[bool]]]:
    """Run :func:`ot2_batch` for every ordered pair of distinct parties at once.

    A sender's facet of ``offers`` maps each peer to the pairs it offers that
    peer; a receiver's facet of ``selects`` maps each peer to its select bits
    for that peer's offers.  Pair ``(s, r)`` runs under the context
    ``f"{context}|{s}->{r}"``, with the labels, randomness, messages and
    result of ``ot2_batch(op, s, r, ...)`` in a ``[s, r]`` conclave.  Returns,
    at each receiver, the bits received from each sender.

    The pairs run phase-major, one ``parallel`` or one ``op.exchange`` per
    phase: every receiver blinds, all selections go out (receiver-major),
    every sender masks, all masked pairs go back (sender-major), every
    receiver unmasks.  A party's sends of a phase leave back to back, so it
    turns from sending to receiving once per phase rather than once per pair.
    """
    members = as_census(parties)

    def pair(sender: Location, receiver: Location) -> str:
        return f"{context}|{sender}->{receiver}"

    def each_peer(step: Callable[..., Any]) -> Faceted[Dict[Location, Any]]:
        return op.parallel(
            members,
            lambda party, un: {peer: step(party, peer, un) for peer in members if peer != party},
        )

    blinded = each_peer(
        lambda receiver, sender, un: _blind(
            seed, receiver, pair(sender, receiver), un(keys.moduli)[sender], un(selects)[sender]
        )
    )
    selections = op.exchange(members, each_peer(lambda _r, sender, un: un(blinded)[sender][1]))
    masked_pairs = op.exchange(
        members,
        each_peer(
            lambda sender, receiver, un: _mask(
                un(keys.keypairs),
                len(un(keys.moduli)[sender]),
                pair(sender, receiver),
                un(offers)[receiver],
                un(selections)[receiver],
            )
        ),
    )
    return each_peer(
        lambda receiver, sender, un: _unmask(
            pair(sender, receiver),
            un(selects)[sender],
            un(blinded)[sender][0],
            un(masked_pairs)[sender],
        )
    )


def ot2(
    op: ChoreoOp,
    sender: Location,
    receiver: Location,
    pair: Located[Tuple[bool, bool]],
    select: Located[bool],
    keys: OTKeys,
    *,
    seed: int = 0,
    context: str = "",
) -> Located[bool]:
    """Obliviously transfer one of the sender's two bits to the receiver.

    The single-instance case of :func:`ot2_batch`; same two-message shape.
    """
    bits = ot2_batch(
        op,
        sender,
        receiver,
        pair.map(lambda offered: [offered]),
        select.map(lambda select_bit: [select_bit]),
        keys,
        seed=seed,
        context=context,
    )
    return bits.map(lambda decoded: decoded[0])
