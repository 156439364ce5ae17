"""The tamper-evident log (paper Section 5.4).

A node's log λ is a sequence of entries ``e_k = (t_k, y_k, c_k)`` with six
entry types:

* ``snd`` / ``rcv`` record messages,
* ``ack`` records acknowledgments,
* ``ins`` / ``del`` record base-tuple changes (including the choice tokens
  of 'maybe' rules, per Appendix A.1),
* ``chk`` records a checkpoint (the Section 5.6 optimization): the
  snapshot of the node's state machine replay restarts from, committed by
  digest.

Each entry carries the running hash ``h_k = H(h_{k-1} || t_k || y_k ||
H(c_k))`` (:func:`link` is the one step that folds an entry in); an
:class:`~repro.snp.evidence.Authenticator` signing ``(k, t_k, h_k)``
commits the node to the exact prefix ``e_1..e_k``. Both digests an
entry stores, ``H(c_k)`` and ``h_k``, are 32 raw bytes
(:func:`~repro.crypto.hashing.chain_hash`), and so is every digest a
content commits to (a ``rcv`` or ``ack`` entry's ``h_start`` and
authenticator hash, a ``chk`` entry's snapshot digest). A hash is stored
once, on its entry: the log, a stored copy of it and a served segment
are all one :class:`LogStretch` — entries plus the one hash they are
anchored on — with one :meth:`~LogStretch.hash_at` and one
:meth:`~LogStretch.trim`.

An entry has one form: its content holds the objects replay reads (an
``ins``/``del`` entry's :class:`~repro.model.Tup`, a ``snd``/``rcv``
entry's :class:`~repro.model.Msg`), hashed as their canonical form. Only
a content that commits by reference keeps what it names in *aux*: an
``ack`` entry's wire ack (its content holds the acked messages' ids) and
a ``chk`` entry's snapshot (its content holds the snapshot's digest).
"""

from repro.crypto.hashing import GENESIS_HASH, chain_hash, content_digest
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

#: What encoding a content with no canonical encoding raises.
_UNENCODABLE = (TypeError, ValueError, AttributeError, RecursionError)


def encode_contents(entries):
    """Each entry's content in canonical bytes, in entry order — what a
    querier charges and hashes for a segment it received, encoded once.
    ``len(encoded) + ENTRY_HEADER_BYTES`` is the entry's
    :meth:`~LogEntry.size_bytes`. A content that does not encode gets
    ``None`` — never ``b""``, which a raw ``b""`` content hashes to — so
    the chain check finds it does not match its digest."""
    encoded = []
    for entry in entries:
        try:
            encoded.append(canonical_bytes(entry.content))
        except _UNENCODABLE:
            encoded.append(None)
    return encoded


def encode_snapshot(chk):
    """The canonical bytes of ``chk`` entry *chk*'s snapshot, encoded once:
    what a querier charges for a replay seed and hashes against the digest
    the entry's content commits to. ``b""`` — no value's encoding — when
    the entry carries no snapshot that encodes."""
    try:
        return canonical_bytes(chk.aux["snapshot"])
    except (KeyError, TypeError):
        return b""


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
        """Committed size of this entry (content + fixed header). A
        content with no canonical encoding — a stored copy of a hostile
        log may hold one — is charged its header, as a querier charges
        it on receipt."""
        try:
            return canonical_size(self.content) + ENTRY_HEADER_BYTES
        except _UNENCODABLE:
            return ENTRY_HEADER_BYTES

    def meta(self):
        """(index, t, type, content-hash) — enough to verify chain
        continuity without revealing the content."""
        return (self.index, self.timestamp, self.entry_type,
                self.content_hash)

    def __repr__(self):
        return (
            f"LogEntry(#{self.index} {self.entry_type} t={self.timestamp:g})"
        )


class LogStretch:
    """A contiguous stretch of one node's log, in the one shape the node's
    own :class:`NodeLog`, a stored copy of it and a served response
    share: ``entries`` are entries ``start_index .. head_index`` and
    ``start_hash`` is ``h_{start_index - 1}``, the hash the stretch is
    anchored on (``h_0`` for an untrimmed log, the tombstone anchor after
    :meth:`trim`). Every hash above the anchor lives on its entry."""

    __slots__ = ()

    @property
    def head_index(self):
        """Index of the last entry (the anchor index when empty)."""
        return self.start_index + len(self.entries) - 1

    def hash_at(self, index):
        """``h_index`` as this stretch holds it, or ``None`` when *index*
        is outside it: the anchor (``start_index - 1``) is
        ``start_hash``."""
        if index == self.start_index - 1:
            return self.start_hash
        if self.start_index <= index <= self.head_index:
            return self.entries[index - self.start_index].entry_hash
        return None

    def after(self, since_index=None):
        """``(entries, start_index, start_hash)`` of the stretch after
        *since_index* (all of it by default), anchored on that entry's
        hash. An index before the anchor cannot anchor, so it gets
        everything."""
        anchor = self.start_index - 1
        if since_index is not None:
            anchor = max(anchor, since_index)
        return (self.entries[anchor + 1 - self.start_index:], anchor + 1,
                self.hash_at(anchor))

    def trim(self, floor):
        """Checkpoint GC: re-start the stretch at the ``chk`` entry at
        *floor*, anchored on the hash of the entry before it (the
        tombstone anchor); returns the committed bytes of the entries
        dropped (the pivot stays). A floor outside the stretch, at its
        base, or on no replay-seeding checkpoint changes nothing: a
        holder — the node itself included — never discards evidence it
        cannot prove replaceable."""
        offset = floor - self.start_index
        if offset <= 0 or floor > self.head_index:
            return 0
        pivot = self.entries[offset]
        if pivot.entry_type != CHK or "snapshot" not in pivot.aux:
            return 0
        reclaimed = sum(e.size_bytes() for e in self.entries[:offset])
        self.start_hash = self.entries[offset - 1].entry_hash
        del self.entries[:offset]
        self.start_index = floor
        return reclaimed


def link(prev_hash, entry):
    """The chain step: digest *entry*'s content and fold it onto
    *prev_hash*, storing both on the entry; returns the entry."""
    entry.content_hash = digest = content_digest(entry.content)
    entry.entry_hash = chain_hash(prev_hash, entry.timestamp,
                                  entry.entry_type, digest)
    return entry


class NodeLog(LogStretch):
    """Append-only tamper-evident log for one node.

    Entry indexes are *logical* and stable: ``len(log)`` is the head
    index, which keeps counting past checkpoint GC. After :meth:`trim`,
    entries below ``start_index`` are gone but the chain hash preceding
    it survives as ``start_hash``, so suffix authentication, delta
    retrieval and checkpoint-seeded replay at or above the floor still
    verify exactly as before.
    """

    def __init__(self, node_id):
        self.node_id = node_id
        self.entries = []
        self.start_index = 1
        self.start_hash = GENESIS_HASH

    def __len__(self):
        """The *head index* (logical length, counting trimmed entries)."""
        return self.head_index

    def append(self, timestamp, entry_type, content, aux=None):
        if entry_type not in ENTRY_TYPES:
            raise ValueError(f"unknown entry type {entry_type!r}")
        entry = link(self.head_hash(), LogEntry(
            len(self) + 1, timestamp, entry_type, content, None, None, aux))
        self.entries.append(entry)
        return entry

    def entry(self, index):
        """1-based logical access."""
        if index < self.start_index:
            raise IndexError(
                f"entry {index} of {self.node_id!r} was discarded by "
                f"checkpoint GC (log now starts at {self.start_index})"
            )
        return self.entries[index - self.start_index]

    def head_hash(self):
        return self.hash_at(len(self))

    def size_bytes(self):
        return sum(entry.size_bytes() for entry in self.entries)

    def last_checkpoint_before(self, index):
        """The latest retained CHK entry at or before *index*, or None."""
        if index < self.start_index:
            return None
        for entry in reversed(self.entries[:index - self.start_index + 1]):
            if entry.entry_type == CHK:
                return entry
        return None

    # ------------------------------------------------------- construction

    def append_checkpoint(self, timestamp, snapshot):
        """Record a checkpoint: the state-machine *snapshot* replay
        restarts from, which holds every extant or believed tuple and when
        it appeared (Section 5.6), committed by its content digest."""
        return self.append(timestamp, CHK,
                           ("checkpoint", content_digest(snapshot)),
                           aux={"snapshot": snapshot})
