"""The provenance graph against its plain reference container.

Hypothesis drives :class:`~repro.provgraph.graph.ProvenanceGraph` and
``tests/reference_graph.py``'s :class:`ReferenceGraph` (a dict of keys and
a list of ``(key_from, key_to)`` pairs) with one random sequence of
``add_vertex``, ``add_edge`` (duplicates, ids looked up by equal-key
clones, fans that grow rows past 8 in both directions) and
``close_interval``, and checks after every step that the two agree on ``edges()``,
``edge_count()``, every vertex's predecessor and successor order,
``has_edge``, ``in``, ``get``, ``open_interval`` and the vertex ids
(``id_of``, ``vertex``). Each side is built from its own vertex objects,
so the production graph is always handed equal-key clones of what the
reference holds. The production graph's writes take and return ids (the
GCA's calls); the reference takes the plain key form.
"""

from hypothesis import given, settings, strategies as st

from reference_graph import ReferenceGraph
from repro.model import Msg, Tup, PLUS
from repro.provgraph.graph import ProvenanceGraph
from repro.provgraph.vertices import (
    APPEAR, BELIEVE, Color, DERIVE, EXIST, INSERT, RECEIVE, SEND, Vertex,
)

NODES = ("a", "b")
TUPS = (Tup("r", "a", 1), Tup("r", "b", 2))
MSGS = (Msg(PLUS, TUPS[0], "a", "b", 0, 1.0),
        Msg(PLUS, TUPS[1], "b", "a", 0, 1.0))
COLORS = (Color.BLACK, Color.YELLOW, Color.RED)


def _universe():
    """Every vertex an operation may name, as constructor arguments."""
    specs = []
    for node in NODES:
        for tup in TUPS:
            specs.append(dict(vtype=APPEAR, node=node, tup=tup, t=1.0))
            specs.append(dict(vtype=INSERT, node=node, tup=tup, t=1.0))
            for t in (1.0, 2.0):
                specs.append(dict(vtype=EXIST, node=node, tup=tup, t=t))
            specs.append(dict(vtype=BELIEVE, node=node, tup=tup, t=1.0,
                              peer="z"))
            for rule in ("R1", "R2"):
                specs.append(dict(vtype=DERIVE, node=node, tup=tup,
                                  rule=rule, t=1.0))
    for msg in MSGS:
        specs.append(dict(vtype=SEND, node=msg.src, t=1.0, peer=msg.dst,
                          msg=msg))
        specs.append(dict(vtype=RECEIVE, node=msg.dst, t=1.5, peer=msg.src,
                          msg=msg))
    return specs


SPECS = _universe()
OPEN_SLOTS = sorted({(s["vtype"], s["node"], s["tup"]) for s in SPECS
                     if s["vtype"] in (EXIST, BELIEVE)}, key=repr)

spec_ids = st.integers(min_value=0, max_value=len(SPECS) - 1)
ops = st.one_of(
    st.tuples(st.just("vertex"), spec_ids, st.sampled_from(COLORS)),
    st.tuples(st.just("edge"), spec_ids, spec_ids),
    st.tuples(st.just("fan-out"), spec_ids,
              st.lists(spec_ids, min_size=9, max_size=14)),
    st.tuples(st.just("fan-in"), spec_ids,
              st.lists(spec_ids, min_size=9, max_size=14)),
    st.tuples(st.just("close"), spec_ids, st.sampled_from((3.0, 4.0))),
)


def _vertex(n, color=Color.BLACK):
    return Vertex(color=color, **SPECS[n])


class Pair:
    """One production graph and its reference, driven in step."""

    def __init__(self):
        self.graph = ProvenanceGraph()
        self.model = ReferenceGraph()

    def add_vertex(self, n, color=Color.BLACK):
        """Add vertex n to both sides; the production graph must answer
        the reference's id for the key."""
        i = self.graph.add_vertex(_vertex(n, color))
        self.model.add_vertex(_vertex(n, color))
        assert i == self.model.id_of(_vertex(n).key())
        return i

    def add_edge(self, a, b, ids=None):
        """Add edge a→b to both sides: the production graph by the ids
        *ids* (the ones ``add_vertex`` answered), else by the ids it
        finds for fresh equal-key clones."""
        key_a, key_b = _vertex(a).key(), _vertex(b).key()
        if key_a not in self.model or key_b not in self.model:
            return
        graph = self.graph
        if ids is None:
            ids = graph.id_of(_vertex(a, Color.RED)), graph.id_of(_vertex(b))
        graph.add_edge(*ids)
        self.model.add_edge(self.model.get(key_a), self.model.get(key_b))

    def close(self, n, t_end):
        vtype, node, tup = (SPECS[n].get(f) for f in ("vtype", "node", "tup"))
        ours = self.graph.open_interval(vtype, node, tup)
        theirs = self.model.open_interval(vtype, node, tup)
        assert (ours is None) == (theirs is None)
        if ours is None:
            return
        self.graph.close_interval(ours, t_end)
        self.model.close_interval(theirs, t_end)

    def apply(self, op):
        kind = op[0]
        if kind == "vertex":
            self.add_vertex(op[1], op[2])
        elif kind == "edge":
            self.add_edge(op[1], op[2])
        elif kind == "fan-out":
            hub = self.add_vertex(op[1])
            for n in op[2]:
                self.add_edge(op[1], n, (hub, self.add_vertex(n)))
        elif kind == "fan-in":
            hub = self.add_vertex(op[1])
            for n in op[2]:
                self.add_edge(n, op[1], (self.add_vertex(n), hub))
        elif kind == "close":
            self.close(op[1], op[2])


def _described(vertex):
    if vertex is None:
        return None
    return (vertex.key(), vertex.color, vertex.t_end)


def assert_agree(pair):
    graph, model = pair.graph, pair.model
    assert len(graph) == len(model)
    assert graph.edges() == model.edges()
    assert graph.edge_count() == model.edge_count() == len(graph.edges())
    assert [_described(v) for v in graph.vertices()] \
        == [_described(v) for v in model.vertices()]
    present = []
    for n in range(len(SPECS)):
        clone = _vertex(n)
        key = clone.key()
        assert (clone in graph) == (key in graph) == (key in model)
        canonical = graph.get(key)
        assert _described(canonical) == _described(model.get(key))
        i = graph.id_of(key)
        assert i == graph.id_of(clone) == model.id_of(key)
        if canonical is not None:
            assert graph.get(clone) is canonical
            assert graph.vertex(i) is canonical
            present.append((clone, canonical, model.get(key)))
    for clone, canonical, ref in present:
        for neighbours in ("predecessors", "successors"):
            ours = getattr(graph, neighbours)(clone)
            assert ours == getattr(graph, neighbours)(canonical)
            assert [v.key() for v in ours] \
                == [v.key() for v in getattr(model, neighbours)(ref)]
            assert all(v is graph.get(v.key()) for v in ours)
    for clone_a, canonical_a, ref_a in present:
        for clone_b, canonical_b, ref_b in present:
            expected = model.has_edge(ref_a, ref_b)
            assert graph.has_edge(clone_a, clone_b) == expected
            assert graph.has_edge(canonical_a, canonical_b) == expected
    for slot in OPEN_SLOTS:
        ours = graph.open_interval(*slot)
        theirs = model.open_interval(*slot)
        if theirs is None:
            assert ours is None
        else:
            assert ours == model.id_of(theirs.key())
            assert _described(graph.vertex(ours)) == _described(theirs)


@settings(max_examples=150, deadline=None)
@given(st.lists(ops, min_size=1, max_size=25))
def test_graph_agrees_with_the_reference_container(sequence):
    pair = Pair()
    for op in sequence:
        pair.apply(op)
        assert_agree(pair)
