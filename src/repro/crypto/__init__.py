"""Cryptographic substrate for SNooPy.

The paper assumes (Section 5.2) a collision-resistant hash function and
unforgeable signatures, deployed with 1024-bit RSA keys and SHA-1. This
package provides:

* :mod:`repro.crypto.hashing` — SHA-256 wrappers and the hash-chain step
  the tamper-evident log folds its entries with;
* :mod:`repro.crypto.rsa` — a self-contained RSA implementation (Miller–Rabin
  key generation, hash-then-sign signatures) so the library has no external
  crypto dependency;
* :mod:`repro.crypto.keys` — key pairs, an offline certificate authority and
  per-node certificates (assumption 2 in the paper).

Everything the log commits to, a checkpoint's whole snapshot included,
is committed by one :func:`~repro.crypto.hashing.content_digest`.

Every signing/verification operation is counted in a per-instance
:class:`CryptoCounter` so that Figure 7 (CPU load from crypto) can be
reproduced by accounting rather than noisy wall-clock profiling.
"""

from repro.crypto.hashing import sha256_hex, chain_hash, HashChain
from repro.crypto.rsa import RsaKeyPair, generate_keypair
from repro.crypto.keys import CertificateAuthority, NodeIdentity, CryptoCounter

__all__ = [
    "sha256_hex",
    "chain_hash",
    "HashChain",
    "RsaKeyPair",
    "generate_keypair",
    "CertificateAuthority",
    "NodeIdentity",
    "CryptoCounter",
]
