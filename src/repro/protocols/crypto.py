"""Small number-theoretic crypto substrate for the case studies.

The paper's GMW implementation uses RSA public-key encryption (via the Haskell
``cryptonite`` package) inside its oblivious-transfer sub-choreography, and the
DPrio lottery uses salted hashes as commitments.  Neither case study depends on
the cryptographic strength of those primitives — only on their *shape* — so
this module provides self-contained, dependency-free implementations:

* Miller–Rabin primality testing and prime generation,
* textbook RSA key generation / encryption / decryption,
* the two hashes the oblivious transfer is built from (into ``Z_N``, and one
  mask bit of a ``Z_N`` element), and
* SHA-256 commitments.

Randomness is always drawn from an explicit :class:`random.Random` so that
protocol runs are reproducible; :func:`party_rng` derives a per-party,
per-context generator from a session seed.
"""

from __future__ import annotations

import hashlib
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


def party_rng(seed: int, location: str, context: str = "") -> random.Random:
    """A deterministic per-party random generator.

    Each (seed, location, context) triple yields an independent stream, which
    is how projected endpoints obtain "local randomness" reproducibly.
    """
    digest = hashlib.sha256(f"{seed}|{location}|{context}".encode()).digest()
    return random.Random(int.from_bytes(digest, "big"))


def is_probable_prime(candidate: int, rounds: int = 16, rng: random.Random = None) -> bool:
    """Miller–Rabin primality test."""
    if candidate < 2:
        return False
    for prime in _SMALL_PRIMES:
        if candidate == prime:
            return True
        if candidate % prime == 0:
            return False
    rng = rng or random.Random(candidate)
    # write candidate - 1 as d * 2^r with d odd
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, candidate - 1)
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
    """Generate a probable prime with exactly ``bits`` bits."""
    if bits < 8:
        raise ValueError("prime size must be at least 8 bits")
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate, rng=rng):
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
    """An RSA key pair; the private exponent stays on the generating party."""

    public: RSAPublicKey
    private_exponent: int

    def decrypt(self, ciphertext: int) -> int:
        """Decrypt a ciphertext produced with :meth:`RSAPublicKey.encrypt`."""
        if not 0 <= ciphertext < self.public.modulus:
            raise ValueError("ciphertext out of range for this key")
        return pow(ciphertext, self.private_exponent, self.public.modulus)


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
        return RSAKeyPair(RSAPublicKey(n, exponent), d)


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
