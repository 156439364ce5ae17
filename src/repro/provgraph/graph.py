"""The provenance graph container.

Appendix B.2 defines an algebra over these graphs for its proofs —
``∪*`` (union with intersected intervals and dominant colours), ``G|i``
(projection onto node i) and ``⊆*`` — but no part of the system computes
it: the tests' oracle (``tests/reference_graph.py``) holds it, and the
theorem tests apply it to graphs the GCA built.

The container maintains the lookup indexes the GCA pseudocode relies on
(``v.get(...)`` with wildcards): exact key lookup, and open-interval lookup
by (node, tuple).
"""

from repro.provgraph.vertices import Vertex, Color, INTERVAL_TYPES


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
        vertices = self._vertices
        return [(vertex.key(), vertices[j].key())
                for vertex, row in zip(vertices, self._succ)
                for j in _ids(row)]

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

