"""Authenticators and evidence sets (paper Sections 4.1 and 5.4).

An authenticator ``a_k = (t_k, h_k, σ_i(t_k || h_k))`` is a node's signed
commitment that entry ``e_k`` (and, through the hash chain, the whole prefix
``e_1..e_k``) exists in its log. We additionally include the entry index
``k`` in the signed payload — a convenience (the verifier would otherwise
locate k by scanning) that strictly strengthens the commitment.

The querier holds the authenticators it learns about each node (the
paper's ε) in one ledger per node (``repro.snp.microquery``). Each node
also keeps the authenticators it received from each peer (the sets
``U_{i,j}``), which is what the consistency check draws on to expose
equivocation: two valid authenticators from the same node whose
(index, hash) pairs do not lie on one chain prove a fork.
"""

from repro.model import WireValue
from repro.util.errors import AuthenticationError

# Wire-size constants from the paper (Section 7.4), used by the traffic
# accounting so that overhead *shapes* match the published numbers:
# "22 bytes for a timestamp and a reference count, 156 bytes for an
# authenticator, and 187 bytes for an acknowledgment".
TIMESTAMP_OVERHEAD_BYTES = 22
AUTHENTICATOR_BYTES = 156
ACK_BYTES = 187


class Authenticator(WireValue):
    """A signed (index, time, hash) commitment by *node*."""

    __slots__ = ("node", "index", "timestamp", "entry_hash", "signature")

    def __init__(self, node, index, timestamp, entry_hash, signature):
        self.node = node
        self.index = index
        self.timestamp = timestamp
        self.entry_hash = entry_hash
        self.signature = signature

    def payload(self):
        return ("auth", self.node, self.index, self.timestamp,
                self.entry_hash)

    def __repr__(self):
        return (
            f"Authenticator({self.node}, k={self.index}, "
            f"t={self.timestamp:g}, h={self.entry_hash[:4].hex()}…)"
        )


def sign_authenticator(identity, index, timestamp, entry_hash):
    auth = Authenticator(identity.node_id, index, timestamp, entry_hash, None)
    auth.signature = identity.sign(auth.payload())
    return auth


def verify_authenticator(verifier_identity, public_key, auth):
    """Check the signature; raises AuthenticationError on failure."""
    if not verifier_identity.verify(public_key, auth.payload(),
                                    auth.signature):
        raise AuthenticationError(
            f"authenticator from {auth.node!r} has an invalid signature"
        )
    return True


class RetentionFloor(WireValue):
    """A node's signed retention-floor advertisement (checkpoint GC).

    By signing ``(node, floor_index, floor_time)`` the node commits to
    retaining entry ``floor_index`` (a checkpoint) and everything after
    it. The advertisement is evidence in the PeerReview sense: paired
    with a live auditor's signed head below the floor it convicts a
    floor-liar, and paired with a retrieve response that starts above
    the floor it convicts an over-eager truncator.
    """

    __slots__ = ("node", "floor_index", "floor_time", "signature")

    def __init__(self, node, floor_index, floor_time, signature):
        self.node = node
        self.floor_index = floor_index
        self.floor_time = floor_time
        self.signature = signature

    def payload(self):
        return ("retention-floor", self.node, self.floor_index,
                self.floor_time)

    def __repr__(self):
        return (
            f"RetentionFloor({self.node}, floor={self.floor_index}, "
            f"t={self.floor_time:g})"
        )


def sign_retention_floor(identity, floor_index, floor_time):
    advert = RetentionFloor(identity.node_id, floor_index, floor_time, None)
    advert.signature = identity.sign(advert.payload())
    return advert


def verify_retention_floor(public_key, advert):
    """Check the advertisement's signature directly against the node's
    public key; raises AuthenticationError on failure."""
    from repro.util.serialization import canonical_bytes
    if not public_key.verify(canonical_bytes(advert.payload()),
                             advert.signature):
        raise AuthenticationError(
            f"retention-floor advertisement from {advert.node!r} has an "
            "invalid signature"
        )
    return True
