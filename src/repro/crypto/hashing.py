"""Hashing primitives: SHA-256 and the log hash chain.

The tamper-evident log (paper Section 5.4) associates each entry
``e_k = (t_k, y_k, c_k)`` with ``h_k = H(h_{k-1} || t_k || y_k || c_k)``,
``h_0 = 0``. We fold the entry content in as its digest ``H(c_k)`` rather
than the raw bytes: this is equivalent for tamper evidence (SHA-256 is
second-preimage resistant) and lets a node prove chain continuity across a
range of entries by revealing only ``(t, y, H(c))`` for entries whose
content is not being disclosed — which the batched commitment protocol
(Section 5.6) relies on.

A digest is the 32 raw bytes of a SHA-256, wherever it is stored,
signed or sent; hex is for display only. :func:`chain_hash` is the one
step, and it hashes the paper's concatenation itself: ``h_{k-1}`` (32
bytes), ``t_k`` (an IEEE-754 double, 8 bytes, big-endian), ``y_k`` (its
ASCII name) and ``H(c_k)`` (32 bytes). Both ends are fixed-width, so the
type name between them is whatever is left, and the input splits one
way only. The chain itself is not kept here: each hash is stored once,
on its log entry (:mod:`repro.snp.log`).
"""

import hashlib
import struct

from repro.util.serialization import canonical_bytes

DIGEST_BYTES = 32
GENESIS_HASH = bytes(DIGEST_BYTES)

_sha256 = hashlib.sha256
_pack_time = struct.Struct(">d").pack


def content_digest(content):
    """Digest of an entry's content field: SHA-256 of *content* as given
    when it is ``bytes``, else of its canonical encoding."""
    if not isinstance(content, (bytes, bytearray)):
        content = canonical_bytes(content)
    return _sha256(content).digest()


def sha256_hex(data):
    """:func:`content_digest` of *data*, in hex (no caller in the
    library; the e2e tracer names it)."""
    return content_digest(data).hex()


def is_digest(value):
    """Whether *value* has the digest form: 32 raw bytes."""
    return type(value) is bytes and len(value) == DIGEST_BYTES


def chain_time(timestamp):
    """The 8 bytes a chain step hashes for *timestamp* — equal times
    with other bits (``-0.0`` and ``0.0``) are other times. Raises
    ``ValueError`` unless it is a ``float``."""
    if not isinstance(timestamp, float):
        raise ValueError("a chain step takes a float timestamp")
    return _pack_time(timestamp)


def chain_hash(prev_hash, timestamp, entry_type, content_hash):
    """Compute ``h_k`` from ``h_{k-1}`` and the entry fields. Raises
    ``ValueError`` unless both digests have the digest form, the
    timestamp is a ``float`` and the type an ASCII ``str`` (a
    ``UnicodeEncodeError`` is one): the fixed widths are what make the
    concatenation unambiguous."""
    if not (is_digest(prev_hash) and is_digest(content_hash)) \
            or type(entry_type) is not str:
        raise ValueError("a chain step takes two 32-byte digests, a float "
                         "timestamp and an ASCII entry type")
    return _sha256(prev_hash + chain_time(timestamp)
                   + entry_type.encode("ascii") + content_hash).digest()


class HashChain:
    """What remains of a stored chain: recomputing one over a segment
    (no caller in the library; the e2e tracer names it)."""

    @staticmethod
    def verify_segment(start_hash, entries):
        """Recompute the chain over ``entries`` starting from *start_hash*.

        Each entry must expose ``timestamp``, ``entry_type`` and
        ``content_hash`` attributes. Returns the successive hashes (one per
        entry).
        """
        hashes = []
        current = start_hash
        for entry in entries:
            current = chain_hash(
                current, entry.timestamp, entry.entry_type, entry.content_hash
            )
            hashes.append(current)
        return hashes
