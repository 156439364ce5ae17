"""The provenance graph container and its algebra.

Implements the operations Appendix B.2 defines for the proofs:

* ``union`` (∪*) — vertex-set union where duplicate exist/believe vertices
  keep the *intersection* of their intervals and duplicate vertices take the
  dominant color;
* ``project`` (G|i) — the subgraph of vertices hosted on node i, plus any
  send/receive vertices on other nodes connected to them by an edge (those
  are colored yellow in the projection);
* ``is_subgraph_of`` (⊆*) — G1 ⊆* G iff some G2 satisfies G1 ∪* G2 = G.

The container also maintains the lookup indexes the GCA pseudocode relies on
(``v.get(...)`` with wildcards): exact key lookup, and open-interval lookup
by (node, tuple).
"""

from repro.provgraph.vertices import Vertex, Color, SEND, RECEIVE


#: Vertex ids are per-graph insertion ranks; an edge is the integer
#: ``id_from << _ID_BITS | id_to``.
_ID_BITS = 32


class ProvenanceGraph:
    """Vertices by key, adjacency by per-graph integer vertex id.

    Edges are stored once per direction — a row of neighbour ids per
    vertex, in insertion order — and de-duplicated through one set of
    integer edge codes. A row is ``()`` for no neighbour, the id itself
    for one (three rows in four of a replayed graph), a list for more.
    Adding an edge therefore hashes each vertex key once and, for most
    edges, allocates nothing the cyclic collector counts or traverses
    (DESIGN.md "Allocation and the collector"). Every method looks
    vertices up by *key*, so an equal-key clone works wherever the
    canonical instance does.
    """

    def __init__(self):
        self._index = {}             # key -> vertex id
        self._vertices = []          # vertex id -> Vertex
        self._succ = []              # vertex id -> row of vertex ids
        self._pred = []
        self._edge_codes = set()
        self._open_intervals = {}    # (vtype, node, tup) -> Vertex

    # ------------------------------------------------------------- basics

    def __len__(self):
        return len(self._vertices)

    def __contains__(self, vertex):
        key = vertex.key() if isinstance(vertex, Vertex) else vertex
        return key in self._index

    def vertices(self):
        return list(self._vertices)

    def edges(self):
        """``(key_from, key_to)`` pairs, by source vertex then insertion."""
        return [(a.key(), b.key()) for a, b in self._edge_vertices()]

    def edge_count(self):
        return len(self._edge_codes)

    def get(self, key):
        """Vertex by exact key, or None."""
        i = self._index.get(key)
        return None if i is None else self._vertices[i]

    def add_vertex(self, vertex):
        """Insert *vertex* if absent; returns the canonical instance."""
        vertices = self._vertices
        fresh = len(vertices)
        i = self._index.setdefault(vertex.key(), fresh)
        if i != fresh:
            return vertices[i]
        vertices.append(vertex)
        self._succ.append(())
        self._pred.append(())
        if vertex.interval_open():
            self._open_intervals[
                (vertex.vtype, vertex.node, vertex.tup)
            ] = vertex
        return vertex

    def add_edge(self, v_from, v_to):
        """Add the edge between two vertices of this graph (no-op when it
        is already there)."""
        i = self._index[v_from.key()]
        j = self._index[v_to.key()]
        code = i << _ID_BITS | j
        codes = self._edge_codes
        if code in codes:
            return
        codes.add(code)
        _append(self._succ, i, j)
        _append(self._pred, j, i)

    def has_edge(self, v_from, v_to):
        i = self._index.get(v_from.key())
        j = self._index.get(v_to.key())
        if i is None or j is None:
            return False
        return i << _ID_BITS | j in self._edge_codes

    def predecessors(self, vertex):
        return self._neighbors(self._pred, vertex)

    def successors(self, vertex):
        return self._neighbors(self._succ, vertex)

    def _neighbors(self, adjacency, vertex):
        i = self._index.get(vertex.key())
        if i is None:
            return []
        vertices = self._vertices
        return [vertices[k] for k in _ids(adjacency[i])]

    def _edge_vertices(self):
        """Every edge as a ``(Vertex, Vertex)`` pair, by source vertex
        then insertion."""
        vertices = self._vertices
        for vertex, row in zip(vertices, self._succ):
            for j in _ids(row):
                yield vertex, vertices[j]

    # --------------------------------------------------- wildcard lookups

    def open_interval(self, vtype, node, tup):
        """The open exist/believe vertex for (node, tup), or None."""
        return self._open_intervals.get((vtype, node, tup))

    def close_interval(self, vertex, t_end):
        """Close an open exist/believe vertex's interval."""
        vertex.close_interval(t_end)
        self._open_intervals.pop(
            (vertex.vtype, vertex.node, vertex.tup), None
        )

    def find_all(self, vtype=None, node=None, tup=None):
        """Every matching vertex, in canonical order: a linear scan plus
        a sort, so O(graph) per call. What still scans is the macroquery
        processor's historical (``at=``), change-vertex, latest-interval
        and ``history_of`` lookups and the GCA's ``replaces`` link; the
        extant root of a plain ``why`` goes through
        :meth:`open_interval` instead."""
        out = []
        for vertex in self._vertices:
            if vtype is not None and vertex.vtype != vtype:
                continue
            if node is not None and vertex.node != node:
                continue
            if tup is not None and vertex.tup != tup:
                continue
            out.append(vertex)
        out.sort(key=Vertex.sort_key)
        return out

    # ------------------------------------------------------------ algebra

    def union(self, other):
        """G ∪* other (Appendix B.2); returns a new graph."""
        result = ProvenanceGraph()
        for source in (self, other):
            for vertex in source._vertices:
                result._merge_vertex(vertex)
        for source in (self, other):
            result._copy_edges(source)
        return result

    def _copy_edges(self, source):
        """Add every edge of *source* whose endpoints both exist here."""
        for v_from, v_to in source._edge_vertices():
            if v_from.key() in self._index and v_to.key() in self._index:
                self.add_edge(v_from, v_to)

    def _merge_vertex(self, vertex):
        existing = self.get(vertex.key())
        if existing is None:
            self.add_vertex(_clone_vertex(vertex))
            return
        existing.color = Color.dominant(existing.color, vertex.color)
        if existing.is_interval():
            # Intersection of intervals: same start (key), smaller end wins.
            merged_end = _min_end(existing.t_end, vertex.t_end)
            if merged_end != existing.t_end:
                existing.t_end = merged_end
                self._open_intervals.pop(
                    (existing.vtype, existing.node, existing.tup), None
                )

    def project(self, node):
        """G | node (Appendix B.2)."""
        result = ProvenanceGraph()
        for vertex in self._vertices:
            if vertex.node == node:
                result._merge_vertex(vertex)
        # Cross-node send/receive vertices connected by an edge, in yellow.
        for v_from, v_to in self._edge_vertices():
            for mine, theirs in ((v_from, v_to), (v_to, v_from)):
                if (
                    mine.node == node and theirs.node != node
                    and theirs.vtype in (SEND, RECEIVE)
                ):
                    clone = _clone_vertex(theirs)
                    clone.color = Color.YELLOW
                    result._merge_vertex(clone)
        result._copy_edges(self)
        return result

    def is_subgraph_of(self, other):
        """G ⊆* other: every vertex/edge of G appears in *other* with a
        color at least as dominant and an interval no larger."""
        for vertex in self._vertices:
            theirs = other.get(vertex.key())
            if theirs is None:
                return False
            if Color.dominant(vertex.color, theirs.color) != theirs.color:
                return False
            if vertex.is_interval():
                if _min_end(vertex.t_end, theirs.t_end) != theirs.t_end:
                    return False
        return all(
            other.has_edge(v_from, v_to)
            for v_from, v_to in self._edge_vertices()
        )

    # ----------------------------------------------------------- coloring

    def red_vertices(self):
        return [v for v in self._vertices if v.color == Color.RED]

    def yellow_vertices(self):
        return [v for v in self._vertices if v.color == Color.YELLOW]


def _append(adjacency, i, j):
    """Append id *j* to vertex *i*'s row of *adjacency*."""
    row = adjacency[i]
    if type(row) is list:
        row.append(j)
    elif type(row) is int:
        adjacency[i] = [row, j]
    else:
        adjacency[i] = j


def _ids(row):
    """The ids in one adjacency row, in insertion order."""
    return (row,) if type(row) is int else row


def _clone_vertex(vertex):
    return Vertex(
        vertex.vtype, vertex.node, tup=vertex.tup, t=vertex.t,
        t_end=vertex.t_end, peer=vertex.peer, rule=vertex.rule,
        msg=vertex.msg, color=vertex.color, seeded=vertex.seeded,
    )


def _min_end(a, b):
    """Minimum of two interval ends where None means +∞."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)
