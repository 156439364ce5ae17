"""The paper's formal properties, tested end to end.

* Theorems 1–3 (Appendix B): the GCA is incremental, compositional, and
  uses colors appropriately — tested over full executions recorded by the
  deployment, with Appendix B.2's algebra applied by the tests' oracle
  (``ReferenceGraph.of``).
* Theorem 4 (monotonicity of Gν): adding evidence never removes vertices.
* Theorem 5 (accuracy): correct nodes' vertices appear black with their
  true predecessors/successors.
* Theorem 6 (completeness): detectably faulty nodes yield a red or yellow
  vertex.
"""

import pytest

from repro.apps.mincost import best_cost, cost
from repro.provgraph.gca import GraphConstructor
from repro.provgraph.vertices import Color
from repro.snp import QueryProcessor
from repro.snp.adversary import FabricatorNode
from repro.snp.replay import log_entries_to_history

from reference_graph import ReferenceGraph
from scenarios import paper_network


def _full_history(dep):
    """Merge all nodes' logs into one global history, ordered by time."""
    events = []
    for node in dep.nodes.values():
        events.extend(log_entries_to_history(node.node_id,
                                             node.log.entries))
    events.sort(key=lambda e: (e.t, str(e.node)))
    return events


def _run_gca(dep, events):
    gca = GraphConstructor(
        lambda n: dep.app_factories[n](n), t_prop=dep.sim.t_prop
    )
    gca.known_alarm_msg_ids = dep.maintainer.alarmed_msg_ids()
    for event in events:
        gca.process(event)
    return gca.graph


@pytest.fixture(scope="module")
def fabricated():
    """``b`` sends ``c`` a cost its machine never derived."""
    dep, nodes = paper_network(13, {"b": FabricatorNode})
    nodes["b"].fabricate("+", cost("c", "d", "b", 1), "c")
    dep.run()
    return dep


@pytest.fixture(scope="module")
def converged():
    return paper_network(7)


class TestTheorem1Incremental:
    def test_prefix_graph_is_subgraph(self, converged):
        dep, _nodes = converged
        events = _full_history(dep)
        # Events from one node must be processed in log order; a global
        # time sort preserves that because log timestamps are monotone.
        g_half = ReferenceGraph.of(_run_gca(dep, events[: len(events) // 2]))
        g_full = ReferenceGraph.of(_run_gca(dep, events))
        assert g_half.is_subgraph_of(g_full)

    def test_every_prefix_monotone(self, converged):
        dep, _nodes = converged
        events = _full_history(dep)
        checkpoints = [len(events) // 4, len(events) // 2,
                       3 * len(events) // 4, len(events)]
        graphs = [ReferenceGraph.of(_run_gca(dep, events[:k]))
                  for k in checkpoints]
        for earlier, later in zip(graphs, graphs[1:]):
            assert earlier.is_subgraph_of(later)


class TestTheorem2Compositional:
    def test_projection_equals_local_construction(self, converged):
        dep, _nodes = converged
        events = _full_history(dep)
        g_full = ReferenceGraph.of(_run_gca(dep, events))
        for name in dep.nodes:
            local_events = [e for e in events if e.node == name]
            g_local = _run_gca(dep, local_events)
            projected = g_full.project(name)
            # G(h|i) = G(h)|i: same vertex keys on the node itself.
            local_keys = {v.key() for v in g_local.vertices()
                          if v.node == name}
            proj_keys = {v.key() for v in projected.vertices()
                         if v.node == name}
            assert local_keys == proj_keys

    def test_union_of_projections_covers_graph(self, converged):
        dep, _nodes = converged
        events = _full_history(dep)
        g_full = ReferenceGraph.of(_run_gca(dep, events))
        union = None
        for name in dep.nodes:
            piece = g_full.project(name)
            union = piece if union is None else union.union(piece)
        assert {v.key() for v in union.vertices()} == \
            {v.key() for v in g_full.vertices()}


class TestTheorem3Colors:
    def test_correct_execution_has_no_red(self, converged):
        dep, _nodes = converged
        graph = _run_gca(dep, _full_history(dep))
        assert graph.red_vertices() == []

    def test_faulty_node_has_red_in_true_graph(self, fabricated):
        graph = _run_gca(fabricated, _full_history(fabricated))
        reds = graph.red_vertices()
        assert reds and all(v.node == "b" for v in reds)


class TestTheorem4Monotonicity:
    def test_more_evidence_never_shrinks_gnu(self, converged):
        dep, _nodes = converged
        qp = QueryProcessor(dep)
        r_small = qp.why(best_cost("c", "d", 5), scope=2)
        r_large = qp.why(best_cost("c", "d", 5), scope=50)
        assert ReferenceGraph.of(r_small.graph).is_subgraph_of(
            ReferenceGraph.of(r_large.graph))


class TestTheorem5Accuracy:
    def test_vertices_match_true_graph(self, converged):
        dep, _nodes = converged
        true_graph = _run_gca(dep, _full_history(dep))
        result = QueryProcessor(dep).why(best_cost("c", "d", 5), scope=50)
        for vertex in result.vertices():
            truth = true_graph.get(vertex.key())
            assert truth is not None, f"{vertex!r} not in G"
            assert truth.color == Color.BLACK

    def test_accuracy_under_attack(self, fabricated):
        # Even with a fabricator active, every *black* vertex the querier
        # reports is genuinely in G with the same key.
        true_graph = _run_gca(fabricated, _full_history(fabricated))
        result = QueryProcessor(fabricated).why(best_cost("c", "d", 1),
                                                scope=50)
        for vertex in result.vertices():
            if vertex.color == Color.BLACK and vertex.node != "b":
                assert true_graph.get(vertex.key()) is not None


class TestTheorem6Completeness:
    def test_every_correct_vertex_reachable(self, converged):
        dep, _nodes = converged
        # Completeness claim (a): with full evidence, the querier's view
        # of each correct node contains that node's true partition.
        true_graph = _run_gca(dep, _full_history(dep))
        qp = QueryProcessor(dep)
        for name in dep.nodes:
            view = qp.mq.view_of(name)
            assert view.status == "ok"
            true_keys = {v.key() for v in true_graph.vertices()
                         if v.node == name}
            view_keys = {v.key() for v in view.graph.vertices()}
            assert true_keys <= view_keys

    def test_detectable_fault_yields_red_or_yellow(self, fabricated):
        result = QueryProcessor(fabricated).why(best_cost("c", "d", 1),
                                                scope=50)
        assert result.suspect_nodes() == ["b"]
