"""Vertex types and colors of the provenance graph (paper Section 3.2).

Twelve vertex types. Seven represent local state and state changes::

    insert(n, τ, t)      delete(n, τ, t)
    appear(n, τ, t)      disappear(n, τ, t)
    exist(n, τ, [t1,t2])
    derive(n, τ, R, t)   underive(n, τ, R, t)

and five represent cross-node interaction::

    send(n, n', ±τ, t)   receive(n, n', ±τ, t)
    believe-appear(n, n', τ, t)   believe-disappear(n, n', τ, t)
    believe(n, n', τ, [t1,t2])

Every vertex is attributed to exactly one node, ``host(v)`` (Theorem 2's
compositionality depends on this). Colors indicate legitimacy: black =
correct, red = provably faulty, yellow = not yet known; dominance order is
red > black > yellow (Appendix B.1).
"""

from repro.util.serialization import canonical_bytes

INSERT = "insert"
DELETE = "delete"
APPEAR = "appear"
DISAPPEAR = "disappear"
EXIST = "exist"
DERIVE = "derive"
UNDERIVE = "underive"
SEND = "send"
RECEIVE = "receive"
BELIEVE_APPEAR = "believe-appear"
BELIEVE_DISAPPEAR = "believe-disappear"
BELIEVE = "believe"

INTERVAL_TYPES = (EXIST, BELIEVE)
#: The two key shapes that are not ``(vtype, node, tup, t)``.
_MESSAGE_TYPES = (SEND, RECEIVE)
_RULE_TYPES = (DERIVE, UNDERIVE)


class Color:
    YELLOW = "yellow"
    BLACK = "black"
    RED = "red"

    _DOMINANCE = {YELLOW: 0, BLACK: 1, RED: 2}

    @classmethod
    def dominant(cls, a, b):
        """The more dominant of two colors (red > black > yellow)."""
        return a if cls._DOMINANCE[a] >= cls._DOMINANCE[b] else b


class Vertex:
    """One provenance-graph vertex.

    Identity (equality/hash) is by :meth:`key`, which excludes mutable
    attributes: the color, and the closing timestamp ``t_end`` of interval
    vertices (an ``exist``/``believe`` vertex is created with an open
    interval ``[t,∞)`` and closed at most once, per Appendix B.3). Only
    the key's hash is stored, taken from the fields at construction;
    :meth:`key` builds the tuple when asked. A vertex equals its key
    tuple too, so a dict keyed by vertices (the graph's index) is
    searched by key or by any equal-key vertex. The GCA builds vertices
    with positional arguments, in the order below.

    Attributes:
        vtype: one of the twelve type constants.
        node: host(v), the node responsible for this vertex.
        tup: the subject tuple (None for send/receive).
        t: creation/event timestamp; for interval vertices the interval
           start.
        t_end: interval end for exist/believe (None = ∞); unused otherwise.
        peer: the remote node for interaction vertices.
        rule: rule name for derive/underive.
        msg: the message for send/receive vertices.
        color: black/red/yellow.
        seeded: True when the vertex was reconstructed from a checkpoint
            rather than observed events (its predecessors live in an older
            log segment).
    """

    __slots__ = (
        "vtype", "node", "tup", "t", "t_end", "peer", "rule", "msg",
        "color", "seeded", "_hash",
    )

    def __init__(self, vtype, node, tup=None, t=None, t_end=None, peer=None,
                 rule=None, msg=None, color=Color.BLACK, seeded=False):
        self.vtype = vtype
        self.node = node
        self.tup = tup
        self.t = t
        self.t_end = t_end
        self.peer = peer
        self.rule = rule
        self.msg = msg
        self.color = color
        self.seeded = seeded
        # hash(self.key()), without the call
        if vtype in _MESSAGE_TYPES:
            self._hash = hash((vtype, msg.full_key()))
        elif vtype in _RULE_TYPES:
            self._hash = hash((vtype, node, tup, rule, t))
        else:
            self._hash = hash((vtype, node, tup, t))

    def key(self):
        if self.vtype in _MESSAGE_TYPES:
            return (self.vtype, self.msg.full_key())
        if self.vtype in _RULE_TYPES:
            return (self.vtype, self.node, self.tup, self.rule, self.t)
        # Interval vertices are keyed by their start time only, so that
        # closing the interval does not change identity.
        return (self.vtype, self.node, self.tup, self.t)

    def __eq__(self, other):
        if isinstance(other, Vertex):
            other = other.key()
        return self.key() == other

    def __hash__(self):
        return self._hash

    def is_interval(self):
        return self.vtype in INTERVAL_TYPES

    def close_interval(self, t_end):
        if not self.is_interval():
            raise ValueError(f"{self.vtype} vertex has no interval")
        if self.t_end is not None:
            raise ValueError("interval already closed")
        self.t_end = t_end

    def set_color(self, color):
        self.color = color

    def sort_key(self):
        return canonical_bytes(
            (self.vtype, str(self.node),
             self.tup.canonical() if self.tup is not None else None,
             self.rule, -1.0 if self.t is None else float(self.t))
        )

    def describe(self):
        """Human-readable rendering, matching the paper's notation."""
        name = self.vtype.upper()
        if self.vtype in (SEND, RECEIVE):
            pol = self.msg.polarity
            return (
                f"{name}({self.node}, {self.peer}, {pol}{self.msg.tup!r}, "
                f"t={self.t:g})"
            )
        if self.vtype in (BELIEVE_APPEAR, BELIEVE_DISAPPEAR):
            return f"{name}({self.node}, {self.peer}, {self.tup!r}, t={self.t:g})"
        if self.vtype == BELIEVE:
            end = "now" if self.t_end is None else f"{self.t_end:g}"
            return (
                f"{name}({self.node}, {self.peer}, {self.tup!r}, "
                f"[{self.t:g}, {end}])"
            )
        if self.vtype == EXIST:
            end = "now" if self.t_end is None else f"{self.t_end:g}"
            return f"{name}({self.node}, {self.tup!r}, [{self.t:g}, {end}])"
        if self.vtype in (DERIVE, UNDERIVE):
            return f"{name}({self.node}, {self.tup!r}, {self.rule}, t={self.t:g})"
        return f"{name}({self.node}, {self.tup!r}, t={self.t:g})"

    def __repr__(self):
        return f"<{self.describe()} {self.color}>"
