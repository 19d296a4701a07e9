"""Small number-theoretic crypto substrate for the case studies.

The paper's GMW implementation uses RSA public-key encryption (via the Haskell
``cryptonite`` package) inside its oblivious-transfer sub-choreography, and the
DPrio lottery uses salted hashes as commitments.  Neither case study depends on
the cryptographic strength of those primitives — only on their *shape* — so
this module provides self-contained, dependency-free implementations:

* Miller–Rabin primality testing (exact below ``2**64``) and prime generation
  (uniform candidates, one ``gcd`` sieve before any exponentiation),
* textbook RSA key generation / encryption / decryption, the last by the
  Chinese remainder theorem: two half-width exponentiations, same result,
* the two hashes the oblivious transfer is built from (into ``Z_N``, and one
  mask bit of a ``Z_N`` element), and
* SHA-256 commitments.

Randomness is always drawn from an explicit :class:`random.Random` so that
protocol runs are reproducible; :func:`party_rng` derives a per-party,
per-context generator from a session seed.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Tuple

#: Default RSA modulus size (bits).  Small by cryptographic standards, but the
#: case studies only need the communication pattern, and tests must stay fast.
DEFAULT_RSA_BITS = 256

#: The public exponent of every key :func:`generate_rsa_keypair` makes, so a
#: public key travels as its modulus alone.
RSA_PUBLIC_EXPONENT = 65537

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

#: Sinclair's Miller–Rabin bases: together they decide primality exactly for
#: every ``n < 2**64``.
_EXACT_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

#: The product of the odd primes below 2048, the sieve of :func:`generate_prime`.
_SIEVE = math.prod(
    n for n in range(3, 2048, 2) if all(n % k for k in range(3, math.isqrt(n) + 1, 2))
)


def party_rng(seed: int, location: str, context: str = "") -> random.Random:
    """A deterministic per-party random generator.

    Each (seed, location, context) triple yields an independent stream, which
    is how projected endpoints obtain "local randomness" reproducibly.
    """
    digest = hashlib.sha256(f"{seed}|{location}|{context}".encode()).digest()
    return random.Random(int.from_bytes(digest, "big"))


def is_probable_prime(candidate: int, rounds: int = 16, rng: random.Random = None) -> bool:
    """Miller–Rabin: exact below ``2**64``, ``rounds`` random bases above."""
    if candidate < 2:
        return False
    for prime in _SMALL_PRIMES:
        if candidate == prime:
            return True
        if candidate % prime == 0:
            return False
    # write candidate - 1 as d * 2^r with d odd
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if candidate < 1 << 64:  # a base that is a multiple of the candidate passes
        bases = [base % candidate for base in _EXACT_BASES if base % candidate]
    else:
        rng = rng or random.Random(candidate)
        bases = (rng.randrange(2, candidate - 1) for _ in range(rounds))
    for a in bases:
        x = pow(a, d, candidate)
        if x in (1, candidate - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, candidate)
            if x == candidate - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int, rng: random.Random) -> int:
    """A ``bits``-bit probable prime, top two bits set: two of them multiply to full width."""
    if bits < 8:
        raise ValueError("prime size must be at least 8 bits")
    while True:
        candidate = rng.getrandbits(bits) | (3 << (bits - 2)) | 1
        # a candidate dividing the sieve's product may be one of its primes
        if math.gcd(candidate, _SIEVE) in (1, candidate) and is_probable_prime(candidate, rng=rng):
            return candidate


@dataclass(frozen=True)
class RSAPublicKey:
    """An RSA public key ``(n, e)``."""

    modulus: int
    exponent: int

    def encrypt(self, message: int) -> int:
        """Textbook RSA encryption of an integer smaller than the modulus."""
        if not 0 <= message < self.modulus:
            raise ValueError("message out of range for this key")
        return pow(message, self.exponent, self.modulus)


@dataclass(frozen=True)
class RSAKeyPair:
    """An RSA key pair; the private half stays on the generating party."""

    public: RSAPublicKey
    private_exponent: int
    p: int
    q: int
    d_mod_p1: int  # d mod (p - 1)
    d_mod_q1: int  # d mod (q - 1)
    q_inverse: int  # q^-1 mod p

    def decrypt(self, ciphertext: int) -> int:
        """``ciphertext ** d mod N``, computed mod ``p`` and ``q`` and recombined (Garner)."""
        if not 0 <= ciphertext < self.public.modulus:
            raise ValueError("ciphertext out of range for this key")
        at_q = pow(ciphertext, self.d_mod_q1, self.q)
        at_p = pow(ciphertext, self.d_mod_p1, self.p)
        return at_q + (at_p - at_q) * self.q_inverse % self.p * self.q


def generate_rsa_keypair(rng: random.Random, bits: int = DEFAULT_RSA_BITS) -> RSAKeyPair:
    """Generate a textbook RSA key pair with a ``bits``-bit modulus."""
    half = bits // 2
    exponent = RSA_PUBLIC_EXPONENT
    while True:
        p = generate_prime(half, rng)
        q = generate_prime(bits - half, rng)
        if p == q:
            continue
        n = p * q
        phi = (p - 1) * (q - 1)
        if phi % exponent == 0:
            continue
        d = pow(exponent, -1, phi)
        crt = (p, q, d % (p - 1), d % (q - 1), pow(q, -1, p))
        return RSAKeyPair(RSAPublicKey(n, exponent), d, *crt)


def hash_to_zn(modulus: int, label: str) -> int:
    """Hash ``label`` to an element of ``Z_N`` — a value anyone can recompute.

    The oblivious transfer derives its two public offsets per instance this
    way instead of having the sender transmit them.  SHAKE-256 is read 128
    bits past the modulus width, so the reduction's bias is negligible.
    """
    width = (modulus.bit_length() + 7) // 8
    digest = hashlib.shake_256(f"zn|{modulus}|{label}".encode()).digest(width + 16)
    return int.from_bytes(digest, "big") % modulus


def mask_bit(element: int, label: str) -> bool:
    """One hash bit of a ``Z_N`` element: the pad that hides an offered bit.

    Predicting it requires knowing ``element``, which for the slot the
    receiver did not select is an RSA pre-image it cannot compute.
    """
    return bool(hashlib.sha256(f"bit|{element}|{label}".encode()).digest()[0] & 1)


def commitment(value: int, salt: int) -> str:
    """A SHA-256 commitment to ``value`` under ``salt`` (DPrio's α = H(ρ, ψ))."""
    return hashlib.sha256(f"{value}|{salt}".encode()).hexdigest()


def verify_commitment(digest: str, value: int, salt: int) -> bool:
    """Check a commitment opened as ``(value, salt)``."""
    return commitment(value, salt) == digest
