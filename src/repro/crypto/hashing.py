"""Hashing primitives: SHA-256 and the log hash chain.

The tamper-evident log (paper Section 5.4) associates each entry
``e_k = (t_k, y_k, c_k)`` with ``h_k = H(h_{k-1} || t_k || y_k || c_k)``,
``h_0 = 0``. We fold the entry content in as its digest ``H(c_k)`` rather
than the raw bytes: this is equivalent for tamper evidence (SHA-256 is
second-preimage resistant) and lets a node prove chain continuity across a
range of entries by revealing only ``(t, y, H(c))`` for entries whose
content is not being disclosed — which the batched commitment protocol
(Section 5.6) relies on.

:func:`chain_hash` is the one step. The chain itself is not kept here:
each hash is stored once, on its log entry (:mod:`repro.snp.log`).
"""

import hashlib

from repro.util.serialization import canonical_bytes

GENESIS_HASH = "0" * 64


def sha256_hex(data):
    """SHA-256 of *data* (bytes or canonically-encodable value), hex digest."""
    if not isinstance(data, (bytes, bytearray)):
        data = canonical_bytes(data)
    return hashlib.sha256(data).hexdigest()


def content_digest(content):
    """Digest of an entry's content field."""
    return sha256_hex(content)


def chain_hash(prev_hash, timestamp, entry_type, content_hash):
    """Compute ``h_k`` from ``h_{k-1}`` and the entry fields."""
    return sha256_hex((prev_hash, timestamp, entry_type, content_hash))


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
