"""Self-contained RSA: key generation, signing, verification.

The execution environment has no external crypto package, so we implement
textbook RSA with deterministic-padding hash-and-sign (a simplified
full-domain-hash construction): ``sig = H(m)^d mod n`` where ``H`` expands
SHA-256 output to the modulus size with fixed padding. This is structurally
the scheme the paper assumes ("signature of a correct node cannot be forged",
assumption 3) and is adequate for a research reproduction; it is *not*
intended for production use.

Signing is by the Chinese remainder theorem: a private key is its two
primes and the exponents reduced modulo ``p - 1`` and ``q - 1``, so a
signature is two half-width exponentiations and Garner's recombination.
The result is the same integer ``H(m)^d mod n`` (CRT is a ring
isomorphism), so signatures are byte-identical to the textbook form;
there is no full-width path.

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
    expanded = b"".join([
        hashlib.sha256(digest + counter.to_bytes(4, "big")).digest()
        for counter in range(-(-modulus_bytes // 32))
    ])[:modulus_bytes]
    # Clear the top byte so the integer is always < n.
    return b"\x00" + expanded[1:]


class RsaKeyPair:
    """An RSA key with hash-and-sign signatures.

    *private* is the CRT form of the private key, ``(p, q, dp, dq, qinv)``
    with ``dp = e^-1 mod (p-1)``, ``dq = e^-1 mod (q-1)`` and
    ``qinv = q^-1 mod p``. It may be absent (public-only key, as
    distributed in a certificate); signing with a public-only key raises
    AuthenticationError. A private half that does not belong to ``(n, e)``
    is refused here, once, so :meth:`sign` checks nothing per signature.
    """

    def __init__(self, n, e, private=None):
        self.n = n
        self.e = e
        self._modulus_bytes = (n.bit_length() + 7) // 8
        self._private = None
        if private is not None:
            p, q, dp, dq, qinv = private
            if (
                p < 3 or q < 3 or p * q != n
                or (e * dp) % (p - 1) != 1
                or (e * dq) % (q - 1) != 1
                or (q * qinv) % p != 1
            ):
                raise ValueError(
                    "RSA private key does not match its modulus and exponent"
                )
            self._private = (p, q, dp, dq, qinv)

    @property
    def bits(self):
        return self.n.bit_length()

    def public_only(self):
        """A copy of this key without the private half."""
        return RsaKeyPair(self.n, self.e)

    def sign(self, message):
        """Sign *message* (bytes); returns the signature as bytes."""
        if self._private is None:
            raise AuthenticationError("cannot sign with a public-only key")
        p, q, dp, dq, qinv = self._private
        padded = _expand_digest(message, self._modulus_bytes)
        m_int = int.from_bytes(padded, "big")
        s1 = pow(m_int, dp, p)
        s2 = pow(m_int, dq, q)
        # Garner: the unique s < n with s = s1 (mod p) and s = s2 (mod q).
        sig_int = s2 + q * (((s1 - s2) * qinv) % p)
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
        private = (p, q, pow(_E, -1, p - 1), pow(_E, -1, q - 1), pow(q, -1, p))
        return RsaKeyPair(n, _E, private)
