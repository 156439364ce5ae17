"""The tamper-evident log (paper Section 5.4).

A node's log λ is a sequence of entries ``e_k = (t_k, y_k, c_k)`` with six
entry types:

* ``snd`` / ``rcv`` record messages,
* ``ack`` records acknowledgments,
* ``ins`` / ``del`` record base-tuple changes (including the choice tokens
  of 'maybe' rules, per Appendix A.1),
* ``chk`` records a checkpoint (the Section 5.6 optimization) — a Merkle
  commitment to the node's full state plus the snapshot needed to restart
  replay there.

Each entry carries the running hash ``h_k = H(h_{k-1} || t_k || y_k ||
H(c_k))``; an :class:`~repro.snp.evidence.Authenticator` signing ``(k, t_k,
h_k)`` commits the node to the exact prefix ``e_1..e_k``.

Entries separate *content* (committed, hashed) from *aux* (derived
convenience objects such as the parsed :class:`~repro.model.Msg`, kept so
the simulation does not re-parse byte strings; everything in aux is
reconstructible from content).
"""

from repro.crypto.hashing import HashChain, content_digest
from repro.crypto.merkle import MerkleTree
from repro.model import WireValue
from repro.util.serialization import canonical_bytes, canonical_size

SND = "snd"
RCV = "rcv"
ACK = "ack"
INS = "ins"
DEL = "del"
CHK = "chk"

ENTRY_TYPES = (SND, RCV, ACK, INS, DEL, CHK)

#: Committed bytes an entry carries beside its content (index, timestamp,
#: type): an entry's size is its canonical content plus this header.
ENTRY_HEADER_BYTES = 16


def encode_contents(entries):
    """Each entry's content in canonical bytes, in entry order — what a
    querier charges and hashes for a segment it received, encoded once.
    ``len(encoded) + ENTRY_HEADER_BYTES`` is the entry's
    :meth:`~LogEntry.size_bytes`."""
    return [canonical_bytes(entry.content) for entry in entries]


class LogEntry(WireValue):
    __slots__ = (
        "index", "timestamp", "entry_type", "content", "content_hash",
        "entry_hash", "aux",
    )

    def __init__(self, index, timestamp, entry_type, content, content_hash,
                 entry_hash, aux=None):
        self.index = index
        self.timestamp = timestamp
        self.entry_type = entry_type
        self.content = content
        self.content_hash = content_hash
        self.entry_hash = entry_hash
        self.aux = aux or {}

    def size_bytes(self):
        """Committed size of this entry (content + fixed header)."""
        return canonical_size(self.content) + ENTRY_HEADER_BYTES

    def meta(self):
        """(index, t, type, content-hash) — enough to verify chain
        continuity without revealing the content."""
        return (self.index, self.timestamp, self.entry_type,
                self.content_hash)

    def __repr__(self):
        return (
            f"LogEntry(#{self.index} {self.entry_type} t={self.timestamp:g})"
        )


class NodeLog:
    """Append-only tamper-evident log for one node.

    Entry indexes are *logical* and stable: ``len(log)`` is the head
    index, which keeps counting past checkpoint GC. After
    :meth:`truncate_below`, entries below ``first_index`` are gone but the
    chain hash preceding the floor survives as the tombstone anchor, so
    suffix authentication, delta retrieval and checkpoint-seeded replay at
    or above the floor still verify exactly as before.
    """

    def __init__(self, node_id):
        self.node_id = node_id
        self.entries = []
        self.chain = HashChain()
        #: Logical index of the oldest retained entry (1 = untruncated).
        self.first_index = 1
        #: How many entries checkpoint GC has discarded so far.
        self.discarded_entries = 0

    def __len__(self):
        """The *head index* (logical length, counting truncated entries)."""
        return self.first_index - 1 + len(self.entries)

    def append(self, timestamp, entry_type, content, aux=None):
        if entry_type not in ENTRY_TYPES:
            raise ValueError(f"unknown entry type {entry_type!r}")
        digest = content_digest(content)
        entry_hash = self.chain.append(timestamp, entry_type, digest)
        entry = LogEntry(
            index=len(self) + 1,
            timestamp=timestamp,
            entry_type=entry_type,
            content=content,
            content_hash=digest,
            entry_hash=entry_hash,
            aux=aux,
        )
        self.entries.append(entry)
        return entry

    def entry(self, index):
        """1-based logical access."""
        if index < self.first_index:
            raise IndexError(
                f"entry {index} of {self.node_id!r} was discarded by "
                f"checkpoint GC (log now starts at {self.first_index})"
            )
        return self.entries[index - self.first_index]

    def head_hash(self):
        return self.chain.head()

    def hash_before(self, index):
        """``h_{index-1}``: the chain hash preceding entry *index*."""
        return self.chain.hash_at(index - 1)

    def segment(self, start=1, end=None):
        """Entries ``start..end`` inclusive (1-based; end=None → head)."""
        if end is None:
            end = len(self)
        if start < self.first_index:
            raise IndexError(
                f"segment start {start} predates the retained log of "
                f"{self.node_id!r} (starts at {self.first_index})"
            )
        offset = self.first_index
        return self.entries[start - offset:end - offset + 1]

    def size_bytes(self):
        return sum(entry.size_bytes() for entry in self.entries)

    def last_checkpoint_before(self, index):
        """The latest retained CHK entry at or before *index*, or None."""
        if index < self.first_index:
            return None
        for entry in reversed(self.entries[:index - self.first_index + 1]):
            if entry.entry_type == CHK:
                return entry
        return None

    def truncate_below(self, floor):
        """Discard entries below *floor* (which must be a retained CHK
        entry — the checkpoint that seeds replay for everything the
        truncation throws away). Keeps ``h_{floor-1}`` as the tombstone
        anchor, so ``retrieve(since_index >= floor-1)``, suffix
        authentication, and checkpoint-seeded replay still verify.

        Returns the committed bytes reclaimed (0 when *floor* is at or
        below the current base).
        """
        if floor <= self.first_index:
            return 0
        if floor > len(self):
            raise ValueError(
                f"retention floor {floor} is past the log head {len(self)}"
            )
        pivot = self.entry(floor)
        if pivot.entry_type != CHK:
            raise ValueError(
                f"retention floor {floor} is a {pivot.entry_type!r} entry; "
                "truncation must anchor on a checkpoint"
            )
        dropped = self.entries[:floor - self.first_index]
        reclaimed = sum(entry.size_bytes() for entry in dropped)
        self.entries = self.entries[floor - self.first_index:]
        self.chain.truncate_below(floor)
        self.first_index = floor
        self.discarded_entries += len(dropped)
        return reclaimed

    # ------------------------------------------------------- construction

    def append_checkpoint(self, timestamp, snapshot, extant, believed):
        """Record a checkpoint: Merkle roots over the node's state plus the
        replay snapshot (Section 5.6: 'all currently extant or believed
        tuples and, for each tuple, the time when it appeared')."""
        extant_leaves = [
            (tup.canonical(), appeared) for tup, appeared in extant
        ]
        believed_leaves = [
            (tup.canonical(), peer, appeared)
            for tup, peer, appeared in believed
        ]
        local_tree = MerkleTree(extant_leaves)
        belief_tree = MerkleTree(believed_leaves)
        content = (
            "checkpoint", local_tree.root(), belief_tree.root(),
            len(extant_leaves), len(believed_leaves),
        )
        return self.append(
            timestamp, CHK, content,
            aux={
                "snapshot": snapshot,
                "extant": list(extant),
                "believed": list(believed),
            },
        )
