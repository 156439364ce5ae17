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

from repro.provgraph.vertices import (
    Vertex, Color, INTERVAL_TYPES, SEND, RECEIVE,
)


class ProvenanceGraph:
    """Vertices indexed by themselves, adjacency by per-graph vertex id.

    The index is one dict keyed by the vertex objects, which equal and
    hash like their keys (:class:`Vertex`): every read takes a key
    tuple, an equal-key clone or the canonical vertex alike. A vertex's
    id is its insertion rank. An edge lives only in its two adjacency
    rows, one per direction: ``None`` for no neighbour, the id itself for
    one (three rows in four of a replayed graph), a list for more, in
    insertion order. So an edge stores no key and no code and, mostly,
    allocates nothing the cyclic collector counts or traverses (DESIGN.md
    "Allocation and the collector").

    Writes speak in ids: :meth:`add_vertex` yields a vertex's id,
    :meth:`add_edge` joins two ids, :meth:`open_interval` probes for an
    open interval's id and :meth:`close_interval` ends one, so a builder
    carries ints between calls and an edge costs two list reads, not two
    index lookups. Reads take a key or a vertex (:meth:`get`,
    :meth:`id_of`, :meth:`predecessors`, ...) or an id (:meth:`vertex`).
    """

    def __init__(self):
        self._index = {}             # Vertex -> vertex id
        self._vertices = []          # vertex id -> Vertex
        self._succ = []              # vertex id -> row of vertex ids
        self._pred = []
        self._edges = 0              # count; edges live in the rows
        self._open_intervals = {}    # (vtype, node, tup) -> vertex id

    # ------------------------------------------------- building, by id

    def add_vertex(self, vertex):
        """The id of *vertex*, inserting it if no equal-key vertex is
        here."""
        vertices = self._vertices
        fresh = len(vertices)
        i = self._index.setdefault(vertex, fresh)
        if i == fresh:
            vertices.append(vertex)
            self._succ.append(None)
            self._pred.append(None)
            if vertex.t_end is None and vertex.vtype in INTERVAL_TYPES:
                self._open_intervals[
                    (vertex.vtype, vertex.node, vertex.tup)
                ] = i
        return i

    def add_edge(self, i, j):
        """Add edge i → j between two vertex ids (no-op when it is
        already there)."""
        pred = self._pred
        succ = self._succ
        into = pred[j]
        out = succ[i]
        # An empty row (a new vertex's) holds no edge: nothing to search.
        if into is not None and out is not None \
                and _linked(out, j, into, i):
            return
        # Each row grows None → id → list (inlined: one call per edge).
        if into is None:
            pred[j] = i
        elif type(into) is int:
            pred[j] = [into, i]
        else:
            into.append(i)
        if out is None:
            succ[i] = j
        elif type(out) is int:
            succ[i] = [out, j]
        else:
            out.append(j)
        self._edges += 1

    def id_of(self, key):
        """The id of the vertex with *key* (or an equal-key vertex), or
        None."""
        return self._index.get(key)

    def open_interval(self, vtype, node, tup):
        """The id of the open exist/believe vertex for (node, tup), or
        None."""
        return self._open_intervals.get((vtype, node, tup))

    def close_interval(self, i, t_end):
        """Close open exist/believe vertex *i*'s interval."""
        vertex = self._vertices[i]
        vertex.close_interval(t_end)
        self._open_intervals.pop(
            (vertex.vtype, vertex.node, vertex.tup), None
        )

    def vertex(self, i):
        """The vertex with id *i*."""
        return self._vertices[i]

    # ----------------------------------------------------------- basics

    def __len__(self):
        return len(self._vertices)

    def __contains__(self, vertex):
        return vertex in self._index

    def vertices(self):
        return list(self._vertices)

    def edges(self):
        """``(key_from, key_to)`` pairs, by source vertex then insertion."""
        return [(a.key(), b.key()) for a, b in self._edge_vertices()]

    def edge_count(self):
        return self._edges

    def get(self, key):
        """Vertex by exact key (or equal-key vertex), or None."""
        i = self._index.get(key)
        return None if i is None else self._vertices[i]

    def has_edge(self, v_from, v_to):
        i = self._index.get(v_from)
        j = self._index.get(v_to)
        if i is None or j is None:
            return False
        return _linked(self._succ[i], j, self._pred[j], i)

    def predecessors(self, vertex):
        return self._neighbors(self._pred, vertex)

    def successors(self, vertex):
        return self._neighbors(self._succ, vertex)

    def _neighbors(self, adjacency, vertex):
        i = self._index.get(vertex)
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
        index = self._index
        for v_from, v_to in source._edge_vertices():
            i = index.get(v_from)
            j = index.get(v_to)
            if i is not None and j is not None:
                self.add_edge(i, j)

    def _merge_vertex(self, vertex):
        existing = self.get(vertex)
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
            theirs = other.get(vertex)
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


def _linked(out, j, into, i):
    """Whether edge i → j exists, read from the shorter of row *out* (i's
    successors) and row *into* (j's predecessors): they hold it together
    or not at all, so a duplicate check costs the shorter row."""
    if out is None or into is None:
        return False
    if type(out) is int or type(into) is int:
        return out == j or into == i
    return i in into if len(into) < len(out) else j in out


def _ids(row):
    """The ids in one adjacency row, in insertion order."""
    if row is None:
        return ()
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
