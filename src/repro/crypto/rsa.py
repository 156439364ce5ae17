"""Self-contained RSA: key generation, signing, verification.

The execution environment has no external crypto package, so we implement
textbook RSA with deterministic-padding hash-and-sign (a simplified
full-domain-hash construction): ``sig = H(m)^d mod n`` where ``H`` expands
SHA-256 output to the modulus size with fixed padding. This is structurally
the scheme the paper assumes ("signature of a correct node cannot be forged",
assumption 3) and is adequate for a research reproduction; it is *not*
intended for production use.

Key generation uses Miller–Rabin with a seeded deterministic RNG so that test
runs are reproducible. Default key size is 512 bits to keep pure-Python
simulations fast; the paper's 1024-bit configuration is a parameter
(Figure 7 is reproduced from operation counts at the paper's per-op costs).
"""

import hashlib
import random

from repro.util.errors import AuthenticationError

_E = 65537

# Small primes for fast trial division before Miller-Rabin.
_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
]


def _is_probable_prime(n, rng, rounds=32):
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    # Write n-1 = d * 2^r with d odd.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _generate_prime(bits, rng):
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_probable_prime(candidate, rng):
            return candidate


def _expand_digest(message, modulus_bytes):
    """Expand SHA-256(message) to modulus size (simplified FDH padding)."""
    digest = hashlib.sha256(message).digest()
    blocks = []
    counter = 0
    while sum(len(b) for b in blocks) < modulus_bytes:
        blocks.append(hashlib.sha256(digest + counter.to_bytes(4, "big")).digest())
        counter += 1
    expanded = b"".join(blocks)[:modulus_bytes]
    # Clear the top byte so the integer is always < n.
    return b"\x00" + expanded[1:]


class RsaKeyPair:
    """An RSA key pair with hash-and-sign signatures.

    The private exponent may be absent (public-only key, as distributed in a
    certificate); signing with a public-only key raises AuthenticationError.
    """

    def __init__(self, n, e, d=None):
        self.n = n
        self.e = e
        self._d = d
        self._modulus_bytes = (n.bit_length() + 7) // 8

    @property
    def bits(self):
        return self.n.bit_length()

    def public_only(self):
        """A copy of this key without the private exponent."""
        return RsaKeyPair(self.n, self.e)

    def sign(self, message):
        """Sign *message* (bytes); returns the signature as bytes."""
        if self._d is None:
            raise AuthenticationError("cannot sign with a public-only key")
        padded = _expand_digest(message, self._modulus_bytes)
        m_int = int.from_bytes(padded, "big")
        sig_int = pow(m_int, self._d, self.n)
        return sig_int.to_bytes(self._modulus_bytes, "big")

    def verify(self, message, signature):
        """True iff *signature* is a valid signature of *message*."""
        if len(signature) != self._modulus_bytes:
            return False
        sig_int = int.from_bytes(signature, "big")
        if sig_int >= self.n:
            return False
        recovered = pow(sig_int, self.e, self.n)
        expected = int.from_bytes(
            _expand_digest(message, self._modulus_bytes), "big"
        )
        return recovered == expected

    def fingerprint(self):
        """Short stable identifier for this public key."""
        material = f"{self.n}:{self.e}".encode("ascii")
        return hashlib.sha256(material).hexdigest()[:16]


def generate_keypair(bits=512, seed=None):
    """Generate an RSA key pair of *bits* modulus size.

    A *seed* makes generation deterministic (used pervasively in tests and
    simulations so that runs are reproducible).
    """
    if bits < 128:
        raise ValueError("modulus too small to be meaningful")
    rng = random.Random(seed)
    half = bits // 2
    while True:
        p = _generate_prime(half, rng)
        q = _generate_prime(bits - half, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        if phi % _E == 0:
            continue
        d = pow(_E, -1, phi)
        return RsaKeyPair(n, _E, d)
