"""Node identities, certificates and the offline CA.

Paper assumption 2 (Section 5.2): "Each node i has a certificate that
securely binds a keypair to the node's identity ... it could be satisfied by
installing each node with a certificate that is signed by an offline CA."

We model exactly that: a :class:`CertificateAuthority` created once per
deployment signs ``(node_id, public_key)`` bindings; every node can verify
any other node's certificate with the CA's public key. This is what prevents
a Byzantine node from inventing fictitious identities (Sybil protection in
the paper's threat model).

The :class:`CryptoCounter` records how many sign/verify operations each node
performs, which drives the Figure 7 (CPU overhead) reproduction.
"""

import hashlib

from repro.crypto.rsa import generate_keypair
from repro.metrics import Counters
from repro.util.errors import AuthenticationError
from repro.util.serialization import canonical_bytes


class CryptoCounter(Counters):
    """Counts RSA operations for CPU-cost accounting."""

    FIELDS = ("signatures", "verifications")


class Certificate:
    """A CA-signed binding of a node id to a public key."""

    def __init__(self, node_id, public_key, ca_signature):
        self.node_id = node_id
        self.public_key = public_key
        self.ca_signature = ca_signature

    def signed_payload(self):
        return canonical_bytes(
            ("certificate", self.node_id, self.public_key.n, self.public_key.e)
        )


class CertificateAuthority:
    """Offline CA: issues and verifies node certificates."""

    def __init__(self, key_bits=512, seed=0xCA):
        self._key = generate_keypair(bits=key_bits, seed=seed)
        self.key_bits = key_bits

    def public_key(self):
        return self._key.public_only()

    def issue(self, node_id, public_key):
        payload = canonical_bytes(
            ("certificate", node_id, public_key.n, public_key.e)
        )
        return Certificate(node_id, public_key, self._key.sign(payload))

    def verify(self, certificate):
        ok = self._key.verify(
            certificate.signed_payload(), certificate.ca_signature
        )
        if not ok:
            raise AuthenticationError(
                f"certificate for {certificate.node_id!r} is invalid"
            )
        return True


class NodeIdentity:
    """A node's keypair plus its CA-issued certificate.

    The keypair is a function of *node_id* and the deployment's *seed*
    alone, in any process. Wraps sign/verify so every operation is
    tallied in the node's :class:`CryptoCounter`.
    """

    def __init__(self, node_id, ca, key_bits=512, seed=0):
        self.node_id = node_id
        # SHA-256, not hash(): string hashing is salted per process.
        digest = hashlib.sha256(
            canonical_bytes(("node-key", seed, node_id))).digest()
        self.keypair = generate_keypair(
            bits=key_bits, seed=int.from_bytes(digest[:8], "big"))
        self.certificate = ca.issue(node_id, self.keypair.public_only())
        self.counter = CryptoCounter()

    def sign(self, payload):
        """Sign a canonically-encodable payload; returns signature bytes."""
        self.counter.signatures += 1
        return self.keypair.sign(canonical_bytes(payload))

    def verify(self, public_key, payload, signature):
        """Verify a signature made by *public_key* over *payload*."""
        self.counter.verifications += 1
        return public_key.verify(canonical_bytes(payload), signature)
