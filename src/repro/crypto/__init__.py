"""Cryptographic substrate for SNooPy.

The paper assumes (Section 5.2) a collision-resistant hash function and
unforgeable signatures, deployed with 1024-bit RSA keys and SHA-1. This
package provides:

* :mod:`repro.crypto.hashing` — the content digest and the hash-chain
  step the tamper-evident log folds its entries with; a digest is the 32
  raw bytes of a SHA-256, and the chain step hashes the paper's
  fixed-width concatenation ``h ‖ t ‖ y ‖ H(c)``;
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

from repro.crypto.hashing import chain_hash, content_digest
from repro.crypto.rsa import RsaKeyPair, generate_keypair
from repro.crypto.keys import CertificateAuthority, NodeIdentity, CryptoCounter

__all__ = [
    "chain_hash",
    "content_digest",
    "RsaKeyPair",
    "generate_keypair",
    "CertificateAuthority",
    "NodeIdentity",
    "CryptoCounter",
]
