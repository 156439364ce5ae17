"""Core model types shared by the whole library.

The paper's system model (Section 3.1) represents primary-system state as
*tuples* and computation as *derivation rules*; each node runs a deterministic
state machine ``A_i`` whose inputs are base-tuple insertions/deletions and
incoming messages, and whose outputs are derivations, underivations and
message transmissions. This module defines those vocabulary types:

* :class:`Tup` — an immutable relational tuple with an explicit location
  (``@n`` in the paper's notation);
* :class:`Blob` — content a tuple names by digest (a MapReduce split);
* :class:`Msg` / :class:`Ack` — update notifications (``+τ`` / ``-τ``) and
  their acknowledgments, with unique per-(src,dst) sequence numbers;
* :class:`Der` / :class:`Und` / :class:`Snd` — the three output kinds of a
  node state machine;
* :class:`StateMachine` — the deterministic per-node state machine interface
  consumed by the graph construction algorithm and by deterministic replay.
"""

from repro.util.serialization import canonical_bytes, canonical_size

PLUS = "+"
MINUS = "-"


class WireValue:
    """A class of :data:`repro.snp.wire.VALUE_CLASSES`: a frame builds it
    through its row's builder, and it refuses pickle's ``BUILD``, which
    would set its slots directly, past the builder's checks."""

    __slots__ = ()

    def __setstate__(self, state):
        raise TypeError(f"a {type(self).__name__} is built, never patched")


class Tup(WireValue):
    """An immutable tuple ``relation(@loc, *args)``.

    ``loc`` is the node responsible for the tuple (the ``@n`` location
    specifier); ``args`` are the remaining constants. Tuples are value
    objects: equality and hashing are structural, so they can be used as
    dictionary keys throughout the engine and the provenance graph.
    """

    __slots__ = ("relation", "loc", "args", "_hash", "_canon")

    def __init__(self, relation, loc, *args):
        self.relation = relation
        self.loc = loc
        self.args = tuple(args)
        self._hash = hash((relation, loc, self.args))
        self._canon = None

    def __eq__(self, other):
        return (
            isinstance(other, Tup)
            and self.relation == other.relation
            and self.loc == other.loc
            and self.args == other.args
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        inner = ", ".join([f"@{self.loc}"] + [repr(a) for a in self.args])
        return f"{self.relation}({inner})"

    def canonical(self):
        return ("tup", self.relation, self.loc, self.args)

    def canonical_key(self):
        """Memoized canonical encoding, the engine's deterministic sort key.

        The encoding is prefix-free (every value is tag- and
        length-delimited), so comparing per-tuple keys component-wise
        orders sequences of tuples exactly as encoding the whole sequence
        would — which is what lets the engine sort supports without
        re-encoding them on every event.
        """
        if self._canon is None:
            self._canon = canonical_bytes(self.canonical())
        return self._canon


class Blob(WireValue):
    """A tuple argument that commits to *digest* alone and carries
    *text* (or ``None``) beside it: it compares, hashes, prints and
    encodes as the digest string, and whoever reads the text checks it
    against the digest first."""

    __slots__ = ("digest", "text")

    def __init__(self, digest, text):
        self.digest = digest
        self.text = text

    def __eq__(self, other):
        return isinstance(other, Blob) and self.digest == other.digest

    def __hash__(self):
        return hash(self.digest)

    def __repr__(self):
        return repr(self.digest)

    def canonical(self):
        return self.digest


class Msg(WireValue):
    """A tuple-update notification: ``+τ`` or ``-τ`` sent from src to dst.

    Identity is ``(src, dst, seq)``: the paper requires that "each message
    can be sent at most once (recall the sequence numbers)"; state machines
    assign monotonically increasing per-destination sequence numbers.
    ``t_sent`` is the sender-local timestamp (``txmit`` in the paper).
    """

    __slots__ = ("polarity", "tup", "src", "dst", "seq", "t_sent", "_hash",
                 "_full_key")

    def __init__(self, polarity, tup, src, dst, seq, t_sent):
        if polarity not in (PLUS, MINUS):
            raise ValueError(f"bad polarity {polarity!r}")
        self.polarity = polarity
        self.tup = tup
        self.src = src
        self.dst = dst
        self.seq = seq
        self.t_sent = t_sent
        self._hash = hash((polarity, tup, src, dst, seq))
        # Keys the message's send and receive vertices and the GCA's
        # pending table, several times per replayed message: built once.
        self._full_key = (src, dst, seq, polarity, tup)

    def msg_id(self):
        """Channel-level identity (sequence number), used for ack matching."""
        return (self.src, self.dst, self.seq)

    def full_key(self):
        """Full message identity including content. Send/receive vertices
        are keyed by this: a faulty node that reuses a sequence number for
        *different* content must not alias the honest message's vertex."""
        return self._full_key

    def __eq__(self, other):
        return (
            isinstance(other, Msg)
            and self.polarity == other.polarity
            and self.tup == other.tup
            and self.msg_id() == other.msg_id()
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (
            f"Msg({self.polarity}{self.tup!r}, {self.src}->{self.dst}, "
            f"seq={self.seq})"
        )

    def canonical(self):
        # The tuple itself: it encodes as its canonical form, memoized.
        return (
            "msg", self.polarity, self.tup,
            self.src, self.dst, self.seq, self.t_sent,
        )

    def payload_size(self):
        """Size of the primary-system payload (before SNP overheads)."""
        return canonical_size(self.canonical())


class Ack(WireValue):
    """Acknowledgment of one or more messages from the same sender.

    The per-message protocol of Section 5.4 acknowledges a single message;
    with the Tbatch optimization (Section 5.6) one wire acknowledgment covers
    a whole batch. ``msgs`` lists the covered messages in the order they
    were received (the GCA needs the full messages to reconstruct remote
    receive vertices when it processes ``rcv(ack)`` events).
    """

    __slots__ = ("src", "dst", "msgs", "t_sent")

    def __init__(self, src, dst, msgs, t_sent):
        self.src = src       # node sending the ack (the original receiver)
        self.dst = dst       # node that sent the original message(s)
        self.msgs = tuple(msgs)
        self.t_sent = t_sent

    def msg_ids(self):
        return tuple(m.msg_id() for m in self.msgs)

    def __repr__(self):
        return f"Ack({self.src}->{self.dst}, {len(self.msgs)} msgs)"

    def canonical(self):
        return ("ack", self.src, self.dst, self.msg_ids(), self.t_sent)


class Der:
    """Output: tuple *tup* was derived via *rule* from *support* tuples.

    ``support`` lists the body tuples of the triggering rule instance (in
    body order). ``replaces``, when set, names a tuple whose disappearance
    causally produced this derivation (the constraint extension of Section
    3.4); the GCA adds a direct disappear→appear edge for it.
    """

    __slots__ = ("tup", "rule", "support", "replaces")

    def __init__(self, tup, rule, support=(), replaces=None):
        self.tup = tup
        self.rule = rule
        self.support = tuple(support)
        self.replaces = replaces

    def __repr__(self):
        return f"Der({self.tup!r} via {self.rule})"


class Und:
    """Output: tuple *tup* was underived (rule instance no longer holds)."""

    __slots__ = ("tup", "rule", "support")

    def __init__(self, tup, rule, support=()):
        self.tup = tup
        self.rule = rule
        self.support = tuple(support)

    def __repr__(self):
        return f"Und({self.tup!r} via {self.rule})"


class Snd:
    """Output: message *msg* must be transmitted."""

    __slots__ = ("msg",)

    def __init__(self, msg):
        self.msg = msg

    def __repr__(self):
        return f"Snd({self.msg!r})"


class StateMachine:
    """Deterministic per-node state machine ``A_i`` (paper Section 3.1).

    Subclasses implement the three input handlers; each returns the ordered
    list of outputs (:class:`Der`/:class:`Und` first, then :class:`Snd`) the
    input produced. Determinism is mandatory (assumption 6): replaying the
    same inputs in the same order on a fresh instance must reproduce the
    same outputs. The base class provides per-destination sequence numbers
    for message construction and snapshot/restore hooks for checkpoints.
    """

    def __init__(self, node_id):
        self.node_id = node_id
        self._seq = {}

    # -- input handlers (override) ---------------------------------------

    def handle_insert(self, tup, t):
        """Base tuple *tup* inserted at local time *t*; returns outputs."""
        raise NotImplementedError

    def handle_delete(self, tup, t):
        """Base tuple *tup* deleted at local time *t*; returns outputs."""
        raise NotImplementedError

    def handle_receive(self, msg, t):
        """Message *msg* received at local time *t*; returns outputs."""
        raise NotImplementedError

    # -- helpers for subclasses -------------------------------------------

    def make_msg(self, polarity, tup, dst, t):
        """Build a uniquely-numbered message to *dst*."""
        seq = self._seq.get(dst, 0)
        self._seq[dst] = seq + 1
        return Msg(polarity, tup, self.node_id, dst, seq, t)

    # -- checkpoint support ------------------------------------------------

    def snapshot(self):
        """Serializable snapshot of the full machine state.

        Must capture everything replay needs, including sequence counters.
        Subclasses extend the returned dict.
        """
        return {"seq": dict(self._seq)}

    def restore(self, snap):
        """Restore state captured by :meth:`snapshot`."""
        self._seq = dict(snap["seq"])

    def extant_tuples(self):
        """Iterable of (tup, appeared_at) for all extant local tuples.

        Used by checkpointing (Section 5.6: a checkpoint must include all
        currently extant or believed tuples and when they appeared).
        """
        raise NotImplementedError

    def believed_tuples(self):
        """Iterable of (tup, peer, appeared_at) for believed remote tuples."""
        raise NotImplementedError
