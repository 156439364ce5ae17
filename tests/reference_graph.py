"""The tests' oracle for :class:`~repro.provgraph.graph.ProvenanceGraph`.

:class:`ReferenceGraph` is the container's behaviour written the plain
way: a dict from vertex key to vertex, and the edges as one list of
``(key_from, key_to)`` pairs in insertion order — the edge shape before
the graph kept integer-id adjacency rows. Every query is a scan of that
list. A vertex's id is its insertion rank, kept in a second dict that
answers ``id_of``. It answers the production graph's calls in the plain
key form — a write takes and returns vertices where the production
graph's take and return ids — so a property test can drive both with
one operation sequence and compare what they say
(``tests/property/test_prop_graph.py``).

It also holds Appendix B.2's proof algebra — ``union`` (∪*),
``project`` (G|i) and ``is_subgraph_of`` (⊆*) — which no part of the
system computes: the theorem tests apply it to a graph the GCA built
through :meth:`ReferenceGraph.of`.

It is not the library: it lives beside the tests that use it, to keep
the optimized container honest.
"""

from repro.provgraph.vertices import Color, RECEIVE, SEND, Vertex


class ReferenceGraph:
    def __init__(self):
        self._vertices = {}          # key -> Vertex, in insertion order
        self._edges = []             # (key_from, key_to), in insertion order
        self._open_intervals = {}    # (vtype, node, tup) -> Vertex
        self._ids = {}               # key -> insertion rank

    @classmethod
    def of(cls, graph):
        """A reference copy of *graph* (a production graph): its vertices,
        copied, in insertion order, and its edges."""
        ref = cls()
        for vertex in graph.vertices():
            ref.add_vertex(_copy(vertex))
        ref._edges.extend(graph.edges())
        return ref

    def __len__(self):
        return len(self._vertices)

    def __contains__(self, vertex):
        key = vertex.key() if isinstance(vertex, Vertex) else vertex
        return key in self._vertices

    def vertices(self):
        return list(self._vertices.values())

    def edges(self):
        """Edges by source vertex (in vertex insertion order), then by
        insertion."""
        rank = {key: n for n, key in enumerate(self._vertices)}
        return sorted(self._edges, key=lambda edge: rank[edge[0]])

    def edge_count(self):
        return len(self._edges)

    def get(self, key):
        return self._vertices.get(key)

    def add_vertex(self, vertex):
        existing = self._vertices.get(vertex.key())
        if existing is not None:
            return existing
        self._vertices[vertex.key()] = vertex
        self._ids[vertex.key()] = len(self._ids)
        if vertex.is_interval() and vertex.t_end is None:
            self._open_intervals[(vertex.vtype, vertex.node, vertex.tup)] \
                = vertex
        return vertex

    def add_edge(self, v_from, v_to):
        pair = (v_from.key(), v_to.key())
        if pair[0] not in self._vertices or pair[1] not in self._vertices:
            raise KeyError(pair)
        if pair not in self._edges:
            self._edges.append(pair)

    def has_edge(self, v_from, v_to):
        return (v_from.key(), v_to.key()) in self._edges

    def predecessors(self, vertex):
        key = vertex.key()
        return [self._vertices[a] for a, b in self._edges if b == key]

    def successors(self, vertex):
        key = vertex.key()
        return [self._vertices[b] for a, b in self._edges if a == key]

    def open_interval(self, vtype, node, tup):
        return self._open_intervals.get((vtype, node, tup))

    def close_interval(self, vertex, t_end):
        vertex.close_interval(t_end)
        self._open_intervals.pop((vertex.vtype, vertex.node, vertex.tup),
                                 None)

    def id_of(self, key):
        return self._ids.get(key)

    # ------------------------------------------- algebra (Appendix B.2)

    def union(self, other):
        result = ReferenceGraph()
        for source in (self, other):
            for vertex in source.vertices():
                result._merge(vertex)
        for source in (self, other):
            for a, b in source.edges():
                if (a, b) not in result._edges:
                    result._edges.append((a, b))
        return result

    def _merge(self, vertex):
        existing = self._vertices.get(vertex.key())
        if existing is None:
            self.add_vertex(_copy(vertex))
            return
        existing.color = Color.dominant(existing.color, vertex.color)
        if existing.is_interval():
            end = min(existing, vertex, key=_end).t_end
            if end != existing.t_end:
                existing.t_end = end
                self._open_intervals.pop(
                    (existing.vtype, existing.node, existing.tup), None)

    def project(self, node):
        result = ReferenceGraph()
        for vertex in self.vertices():
            if vertex.node == node:
                result._merge(vertex)
        for a, b in self.edges():
            for mine, theirs in ((a, b), (b, a)):
                mine, theirs = self._vertices[mine], self._vertices[theirs]
                if (mine.node == node and theirs.node != node
                        and theirs.vtype in (SEND, RECEIVE)):
                    clone = _copy(theirs)
                    clone.color = Color.YELLOW
                    result._merge(clone)
        for a, b in self.edges():
            if a in result._vertices and b in result._vertices \
                    and (a, b) not in result._edges:
                result._edges.append((a, b))
        return result

    def is_subgraph_of(self, other):
        for key, vertex in self._vertices.items():
            theirs = other.get(key)
            if theirs is None:
                return False
            if Color.dominant(vertex.color, theirs.color) != theirs.color:
                return False
            if vertex.is_interval() and _end(theirs) > _end(vertex):
                return False
        return all(other.has_edge(self._vertices[a], self._vertices[b])
                   for a, b in self._edges)


def _end(vertex):
    return float("inf") if vertex.t_end is None else vertex.t_end


def _copy(vertex):
    return Vertex(
        vertex.vtype, vertex.node, tup=vertex.tup, t=vertex.t,
        t_end=vertex.t_end, peer=vertex.peer, rule=vertex.rule,
        msg=vertex.msg, color=vertex.color, seeded=vertex.seeded,
    )
