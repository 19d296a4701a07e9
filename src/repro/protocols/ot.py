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
is *multiply located* at the whole census, so inside any later
``conclave_to([sender, receiver])`` both parties already hold the sender's
public key and no further communication is needed — the paper's efficiency
argument for MLVs, applied to key material.  A GMW run therefore makes ``n``
key generations instead of two per gate, ordered pair and layer.  Keys are
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

The construction this replaces was *receiver*-keyed: per instance the
receiver sent one real public key in slot ``s`` and one whose private half it
had thrown away in the other slot.  Those keys could not simply be cached —
a reused real key showing up in slot 0 of one instance and slot 1 of another
tells the sender every select bit — so it paid two key generations per
instance.  Keying the *sender* removes the dependency between key and secret
altogether.

Crucially, the choreography's census is exactly ``[sender, receiver]``: inside
GMW it is embedded in an arbitrarily large census via ``conclave_to``, which is
the paper's demonstration that pairwise sub-protocols compose with census
polymorphism.

:func:`ot2_batch` runs a whole *vector* of independent transfers in the same
two messages (all blinded selections over, all masked bit pairs back).
This is what makes the layered GMW evaluator's round count proportional to
circuit *depth* instead of gate count: all AND gates of a layer share one
batched exchange per ordered pair.  :func:`ot2` is the single-instance
special case.

Field elements travel as fixed-width big-endian ``bytes`` of
``ceil(rsa_bits / 8)`` — the public moduli one per message, the ``v_i`` of a
batch concatenated — so message sizes depend on the census, the circuit and
``rsa_bits`` only, never on the seed or on any secret.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple

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

    Parameters
    ----------
    op:
        An operator whose census is (at least) ``[sender, receiver]``.  The
        caller is expected to conclave down to exactly those two parties.
    pairs:
        A sequence of ``(b0, b1)`` offers located at the sender, one per
        transfer instance.
    selects:
        The select bits located at the receiver, index-aligned with ``pairs``.
    keys:
        Session keys published to (at least) both parties; the sender's pair
        keys every instance of the batch.
    seed, context:
        Together they determine the receiver's blinding randomness;
        ``context`` also labels the hashes, so it must differ between batches
        that share a key.

    Returns the list of selected bits, located at the receiver.
    """
    op.census.require_member(sender)
    op.census.require_member(receiver)

    def label(index: int, slot: int) -> str:
        return f"{context}|{index}|{slot}"

    # 1. Per instance, the receiver blinds the offset of its selected slot
    #    with a fresh random element encrypted under the sender's key.
    def blind(un):
        rng = crypto.party_rng(seed, receiver, f"ot-blind|{context}")
        raw_modulus = un(keys.moduli)[sender]
        public = crypto.RSAPublicKey(
            int.from_bytes(raw_modulus, "big"), crypto.RSA_PUBLIC_EXPONENT
        )
        blinds, selections = [], []
        for index, select_bit in enumerate(un(selects)):
            blind_element = rng.randrange(public.modulus)
            offset = crypto.hash_to_zn(public.modulus, label(index, int(bool(select_bit))))
            blinded = (offset + public.encrypt(blind_element)) % public.modulus
            blinds.append(blind_element)
            selections.append(blinded.to_bytes(len(raw_modulus), "big"))
        return blinds, b"".join(selections)

    blinded = op.locally(receiver, blind)

    # 2. All blinded selections travel in one message.
    selections = op.comm(receiver, sender, blinded.map(lambda both: both[1]))

    # 3. The sender strips each offset, decrypts, and masks the offered bit of
    #    that slot with a hash bit of the result; one message back.
    def mask_pairs(un):
        keypair = un(keys.keypairs)
        modulus = keypair.public.modulus
        width = len(un(keys.moduli)[sender])
        offers, blob = un(pairs), un(selections)
        if len(blob) != width * len(offers):
            raise ValueError(
                f"expected {len(offers)} blinded selections of {width} bytes, "
                f"got {len(blob)} bytes"
            )

        def pad(index: int, slot: int, element: int) -> bool:
            offset = crypto.hash_to_zn(modulus, label(index, slot))
            return crypto.mask_bit(
                keypair.decrypt((element - offset) % modulus), label(index, slot)
            )

        masked = []
        for index, (b0, b1) in enumerate(offers):
            element = int.from_bytes(blob[index * width : (index + 1) * width], "big")
            masked.append(
                (bool(b0) != pad(index, 0, element), bool(b1) != pad(index, 1, element))
            )
        return masked

    masked_pairs = op.comm(sender, receiver, op.locally(sender, mask_pairs))

    # 4. The receiver unmasks each instance's selected slot with its own element.
    def unmask_selected(un):
        blinds, _selections = un(blinded)
        bits = []
        for index, (select_bit, blind_element, masked) in enumerate(
            zip(un(selects), blinds, un(masked_pairs))
        ):
            slot = int(bool(select_bit))
            bits.append(masked[slot] != crypto.mask_bit(blind_element, label(index, slot)))
        return bits

    return op.locally(receiver, unmask_selected)


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
