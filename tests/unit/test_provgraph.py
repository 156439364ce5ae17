"""Provenance graph: vertex identity, colors, and the ∪*/|i/⊆* algebra."""

import pytest

from repro.model import Msg, Tup, PLUS
from repro.provgraph.graph import ProvenanceGraph
from repro.provgraph.vertices import (
    Vertex, Color,
    APPEAR, EXIST, SEND, RECEIVE, BELIEVE, DELETE, DERIVE, INSERT,
)


def _tup(i=1):
    return Tup("r", "n", i)


def _msg(seq=0, tup=None):
    return Msg(PLUS, tup or _tup(), "a", "b", seq, 1.0)


class TestVertexIdentity:
    def test_equal_keys_equal_vertices(self):
        a = Vertex(APPEAR, "n", tup=_tup(), t=1.0)
        b = Vertex(APPEAR, "n", tup=_tup(), t=1.0)
        assert a == b and hash(a) == hash(b)

    def test_time_distinguishes(self):
        a = Vertex(APPEAR, "n", tup=_tup(), t=1.0)
        b = Vertex(APPEAR, "n", tup=_tup(), t=2.0)
        assert a != b

    def test_interval_end_not_part_of_identity(self):
        a = Vertex(EXIST, "n", tup=_tup(), t=1.0, t_end=None)
        b = Vertex(EXIST, "n", tup=_tup(), t=1.0, t_end=5.0)
        assert a == b

    def test_send_keyed_by_full_message(self):
        same_id_other_content = Msg(PLUS, _tup(99), "a", "b", 0, 1.0)
        a = Vertex(SEND, "a", msg=_msg(0), t=1.0, peer="b")
        b = Vertex(SEND, "a", msg=same_id_other_content, t=1.0, peer="b")
        assert a != b

    def test_rule_distinguishes_derive(self):
        a = Vertex(DERIVE, "n", tup=_tup(), rule="R1", t=1.0)
        b = Vertex(DERIVE, "n", tup=_tup(), rule="R2", t=1.0)
        assert a != b

    def test_close_interval_once(self):
        v = Vertex(EXIST, "n", tup=_tup(), t=1.0)
        v.close_interval(2.0)
        with pytest.raises(ValueError):
            v.close_interval(3.0)

    def test_non_interval_cannot_close(self):
        with pytest.raises(ValueError):
            Vertex(APPEAR, "n", tup=_tup(), t=1.0).close_interval(2.0)

    def test_describe_is_paper_notation(self):
        v = Vertex(EXIST, "c", tup=Tup("bestCost", "c", "d", 5), t=1.0)
        assert v.describe().startswith("EXIST(c, bestCost(@c, 'd', 5)")


class TestColors:
    def test_dominance_order(self):
        assert Color.dominant(Color.RED, Color.BLACK) == Color.RED
        assert Color.dominant(Color.BLACK, Color.YELLOW) == Color.BLACK
        assert Color.dominant(Color.YELLOW, Color.RED) == Color.RED
        assert Color.dominant(Color.YELLOW, Color.YELLOW) == Color.YELLOW


class TestGraphContainer:
    def test_add_vertex_idempotent(self):
        g = ProvenanceGraph()
        a = g.add_vertex(Vertex(APPEAR, "n", tup=_tup(), t=1.0))
        b = g.add_vertex(Vertex(APPEAR, "n", tup=_tup(), t=1.0))
        assert a is b and len(g) == 1

    def test_open_interval_index(self):
        g = ProvenanceGraph()
        v = g.add_vertex(Vertex(EXIST, "n", tup=_tup(), t=1.0))
        assert g.open_interval(EXIST, "n", _tup()) is v
        g.close_interval(v, 2.0)
        assert g.open_interval(EXIST, "n", _tup()) is None

    def test_edges_and_adjacency(self):
        g = ProvenanceGraph()
        a = g.add_vertex(Vertex(APPEAR, "n", tup=_tup(), t=1.0))
        b = g.add_vertex(Vertex(EXIST, "n", tup=_tup(), t=1.0))
        g.add_edge(a, b)
        assert g.successors(a) == [b]
        assert g.predecessors(b) == [a]
        g.add_edge(a, b)  # duplicate edges collapse
        assert g.edge_count() == 1

    def test_duplicate_edge_keeps_count_and_order(self):
        g = ProvenanceGraph()
        a = g.add_vertex(Vertex(EXIST, "n", tup=_tup(), t=1.0))
        outs = [g.add_vertex(Vertex(DERIVE, "n", tup=_tup(i), rule="R",
                                    t=2.0)) for i in range(4)]
        for out in outs:
            g.add_edge(a, out)
        g.add_edge(a, outs[1])
        g.add_edge(a, outs[0])
        assert g.edge_count() == 4
        assert g.successors(a) == outs
        assert [g.predecessors(out) for out in outs] == [[a]] * 4
        assert g.edges() == [(a.key(), out.key()) for out in outs]

    def test_equal_key_clone_stands_for_the_canonical_vertex(self):
        g = ProvenanceGraph()
        a = g.add_vertex(Vertex(APPEAR, "n", tup=_tup(), t=1.0))
        b = g.add_vertex(Vertex(EXIST, "n", tup=_tup(), t=1.0))
        a2 = Vertex(APPEAR, "n", tup=_tup(), t=1.0)
        b2 = Vertex(EXIST, "n", tup=_tup(), t=1.0, color=Color.RED)
        g.add_edge(a2, b2)
        assert g.has_edge(a, b) and g.has_edge(a2, b2)
        assert g.predecessors(b2) == [a] and g.predecessors(b2)[0] is a
        assert g.successors(a2)[0] is b
        assert b.color == Color.BLACK        # the clone was only a key
        stranger = Vertex(DELETE, "n", tup=_tup(), t=9.0)
        assert not g.has_edge(a, stranger)
        assert g.predecessors(stranger) == g.successors(stranger) == []

    def test_contains_takes_a_vertex_or_a_key(self):
        g = ProvenanceGraph()
        a = g.add_vertex(Vertex(APPEAR, "n", tup=_tup(), t=1.0))
        assert a in g and a.key() in g
        assert Vertex(APPEAR, "n", tup=_tup(), t=1.0) in g
        assert Vertex(APPEAR, "n", tup=_tup(), t=2.0) not in g
        assert (APPEAR, "n", _tup(), 2.0) not in g


class TestUnion:
    def test_union_merges_vertices(self):
        g1, g2 = ProvenanceGraph(), ProvenanceGraph()
        g1.add_vertex(Vertex(APPEAR, "n", tup=_tup(1), t=1.0))
        g2.add_vertex(Vertex(APPEAR, "n", tup=_tup(2), t=1.0))
        u = g1.union(g2)
        assert len(u) == 2

    def test_union_takes_dominant_color(self):
        g1, g2 = ProvenanceGraph(), ProvenanceGraph()
        g1.add_vertex(Vertex(APPEAR, "n", tup=_tup(), t=1.0,
                             color=Color.BLACK))
        g2.add_vertex(Vertex(APPEAR, "n", tup=_tup(), t=1.0,
                             color=Color.RED))
        u = g1.union(g2)
        assert u.vertices()[0].color == Color.RED

    def test_union_intersects_intervals(self):
        g1, g2 = ProvenanceGraph(), ProvenanceGraph()
        g1.add_vertex(Vertex(EXIST, "n", tup=_tup(), t=1.0, t_end=None))
        g2.add_vertex(Vertex(EXIST, "n", tup=_tup(), t=1.0, t_end=4.0))
        u = g1.union(g2)
        assert u.vertices()[0].t_end == 4.0

    def test_union_keeps_edges(self):
        g1 = ProvenanceGraph()
        a = g1.add_vertex(Vertex(APPEAR, "n", tup=_tup(), t=1.0))
        b = g1.add_vertex(Vertex(EXIST, "n", tup=_tup(), t=1.0))
        g1.add_edge(a, b)
        u = g1.union(ProvenanceGraph())
        assert u.edge_count() == 1

    def test_union_does_not_mutate_operands(self):
        g1, g2 = ProvenanceGraph(), ProvenanceGraph()
        v = g1.add_vertex(Vertex(EXIST, "n", tup=_tup(), t=1.0, t_end=None))
        g2.add_vertex(Vertex(EXIST, "n", tup=_tup(), t=1.0, t_end=4.0))
        g1.union(g2)
        assert v.t_end is None


class TestProjection:
    def test_projection_keeps_host_vertices(self):
        g = ProvenanceGraph()
        g.add_vertex(Vertex(APPEAR, "n", tup=_tup(), t=1.0))
        g.add_vertex(Vertex(APPEAR, "m", tup=Tup("r", "m", 1), t=1.0))
        p = g.project("n")
        assert all(v.node == "n" for v in p.vertices())

    def test_projection_includes_connected_remote_send_as_yellow(self):
        g = ProvenanceGraph()
        msg = _msg()
        send = g.add_vertex(Vertex(SEND, "a", msg=msg, t=1.0, peer="b"))
        recv = g.add_vertex(Vertex(RECEIVE, "b", msg=msg, t=1.2, peer="a"))
        g.add_edge(send, recv)
        p = g.project("b")
        sends = [v for v in p.vertices() if v.vtype == SEND]
        assert sends and sends[0].color == Color.YELLOW

    def test_projection_union_reconstructs_vertices(self):
        g = ProvenanceGraph()
        g.add_vertex(Vertex(APPEAR, "n", tup=_tup(), t=1.0))
        g.add_vertex(Vertex(APPEAR, "m", tup=Tup("r", "m", 1), t=1.0))
        u = g.project("n").union(g.project("m"))
        assert {v.key() for v in u.vertices()} == \
            {v.key() for v in g.vertices()}


class TestSubgraph:
    def test_reflexive(self):
        g = ProvenanceGraph()
        g.add_vertex(Vertex(APPEAR, "n", tup=_tup(), t=1.0))
        assert g.is_subgraph_of(g)

    def test_missing_vertex(self):
        g1, g2 = ProvenanceGraph(), ProvenanceGraph()
        g1.add_vertex(Vertex(APPEAR, "n", tup=_tup(), t=1.0))
        assert not g1.is_subgraph_of(g2)
        assert g2.is_subgraph_of(g1)

    def test_color_cannot_downgrade(self):
        g1, g2 = ProvenanceGraph(), ProvenanceGraph()
        g1.add_vertex(Vertex(APPEAR, "n", tup=_tup(), t=1.0,
                             color=Color.RED))
        g2.add_vertex(Vertex(APPEAR, "n", tup=_tup(), t=1.0,
                             color=Color.BLACK))
        assert not g1.is_subgraph_of(g2)
        # Yellow may upgrade to black.
        g3, g4 = ProvenanceGraph(), ProvenanceGraph()
        g3.add_vertex(Vertex(INSERT, "n", tup=_tup(), t=1.0,
                             color=Color.YELLOW))
        g4.add_vertex(Vertex(INSERT, "n", tup=_tup(), t=1.0,
                             color=Color.BLACK))
        assert g3.is_subgraph_of(g4)

    def test_interval_may_shrink_but_not_grow(self):
        open_g, closed_g = ProvenanceGraph(), ProvenanceGraph()
        open_g.add_vertex(Vertex(EXIST, "n", tup=_tup(), t=1.0, t_end=None))
        closed_g.add_vertex(Vertex(EXIST, "n", tup=_tup(), t=1.0, t_end=9.0))
        assert open_g.is_subgraph_of(closed_g)
        assert not closed_g.is_subgraph_of(open_g)

    def test_edge_subset_required(self):
        g1, g2 = ProvenanceGraph(), ProvenanceGraph()
        for g in (g1, g2):
            a = g.add_vertex(Vertex(APPEAR, "n", tup=_tup(), t=1.0))
            b = g.add_vertex(Vertex(EXIST, "n", tup=_tup(), t=1.0))
        a1 = g1.get(a.key())
        b1 = g1.get(b.key())
        g1.add_edge(a1, b1)
        assert not g1.is_subgraph_of(g2)
        assert g2.is_subgraph_of(g1)
