"""Property-based tests of the GCA theorems over random executions.

Hypothesis generates random (but protocol-respecting) base-tuple schedules
for a small MinCost-like network; the deployment executes them with full
commitment-protocol machinery, and we check the Appendix B theorems on the
resulting global history (the ∪*/|i/⊆* algebra is the tests' oracle's,
``ReferenceGraph.of``):

* Theorem 1 — prefixes of the history yield subgraphs;
* Theorem 2 — per-node construction equals projection;
* Theorem 3 — no red vertices in a correct execution;
* determinism of replay — running the GCA twice yields identical graphs.
"""

from hypothesis import given, settings, strategies as st

from reference_graph import ReferenceGraph
from repro.apps.mincost import link, mincost_factory
from repro.provgraph.gca import GraphConstructor
from repro.snp import Deployment
from repro.snp.replay import log_entries_to_history

NODES = ("a", "b", "c")
EDGES = [("a", "b"), ("b", "c"), ("a", "c")]

schedules = st.lists(
    st.tuples(
        st.sampled_from(["ins", "del"]),
        st.sampled_from(EDGES),
        st.integers(min_value=1, max_value=9),
    ),
    min_size=1, max_size=12,
)


def _execute(schedule, seed=0):
    dep = Deployment(seed=seed, key_bits=256)
    factory = mincost_factory()
    for name in NODES:
        dep.add_node(name, factory)
    live = {}
    for kind, (x, y), k in schedule:
        if kind == "ins":
            if (x, y) in live:
                continue  # no double-insert of the same base tuple
            live[(x, y)] = k
            dep.node(x).insert(link(x, y, k))
        else:
            if (x, y) not in live:
                continue
            k_live = live.pop((x, y))
            dep.node(x).delete(link(x, y, k_live))
        dep.run()
    dep.run()
    return dep


def _history(dep):
    events = []
    for node in dep.nodes.values():
        events.extend(
            log_entries_to_history(node.node_id, node.log.entries))
    events.sort(key=lambda e: (e.t, str(e.node)))
    return events


def _gca(dep):
    return GraphConstructor(lambda n: dep.app_factories[n](n),
                            t_prop=dep.effective_t_prop())


class TestGcaTheoremsRandomized:
    @given(schedules)
    @settings(max_examples=15, deadline=None)
    def test_no_red_in_correct_execution(self, schedule):
        dep = _execute(schedule)
        graph = _gca(dep).run(_history(dep))
        assert graph.red_vertices() == []

    @given(schedules)
    @settings(max_examples=10, deadline=None)
    def test_prefix_yields_subgraph(self, schedule):
        dep = _execute(schedule)
        events = _history(dep)
        full = _gca(dep).run(events)
        for cut in (len(events) // 3, 2 * len(events) // 3):
            partial = _gca(dep).run(events[:cut])
            assert ReferenceGraph.of(partial).is_subgraph_of(
                ReferenceGraph.of(full))

    @given(schedules)
    @settings(max_examples=10, deadline=None)
    def test_compositionality(self, schedule):
        dep = _execute(schedule)
        events = _history(dep)
        full = ReferenceGraph.of(_gca(dep).run(events))
        for name in NODES:
            local = _gca(dep).run([e for e in events if e.node == name])
            mine = {v.key() for v in local.vertices() if v.node == name}
            projected = {v.key() for v in full.project(name).vertices()
                         if v.node == name}
            assert mine == projected

    @given(schedules)
    @settings(max_examples=10, deadline=None)
    def test_gca_deterministic(self, schedule):
        dep = _execute(schedule)
        events = _history(dep)
        g1 = _gca(dep).run(events)
        g2 = _gca(dep).run(events)
        assert {v.key(): v.color for v in g1.vertices()} == \
            {v.key(): v.color for v in g2.vertices()}
        assert set(g1.edges()) == set(g2.edges())

    @given(schedules, st.integers(min_value=1, max_value=3))
    @settings(max_examples=10, deadline=None)
    def test_replay_matches_live_state(self, schedule, which):
        """The replayed machine's final tuple set equals the live app's —
        the determinism assumption SNooPy rests on."""
        dep = _execute(schedule)
        name = NODES[which % len(NODES)]
        node = dep.node(name)
        gca = _gca(dep)
        gca.run(log_entries_to_history(name, node.log.entries))
        replayed = gca.machines.get(name)
        if replayed is None:
            return  # node never saw an event
        for relation in ("link", "cost", "bestCost"):
            assert set(replayed.tuples_of(relation)) == \
                set(node.app.tuples_of(relation))


class TestGraphContainerOnReplayedGraphs:
    """The adjacency representation is an implementation detail: these
    hold for any graph the GCA builds, with closed intervals and
    cross-node send/receive edges in it."""

    @given(schedules)
    @settings(max_examples=10, deadline=None)
    def test_edges_are_what_successors_reach(self, schedule):
        dep = _execute(schedule)
        graph = _gca(dep).run(_history(dep))
        edges = graph.edges()
        reached = [(v.key(), s.key())
                   for v in graph.vertices() for s in graph.successors(v)]
        assert edges == reached
        assert len(edges) == len(set(edges)) == graph.edge_count()
        assert set(edges) == {
            (p.key(), v.key())
            for v in graph.vertices() for p in graph.predecessors(v)}
        for key_from, key_to in edges:
            assert graph.has_edge(graph.get(key_from), graph.get(key_to))

    @given(schedules)
    @settings(max_examples=10, deadline=None)
    def test_algebra_on_closed_intervals_and_cross_node_edges(self, schedule):
        dep = _execute(schedule)
        graph = _gca(dep).run(_history(dep))
        ref = ReferenceGraph.of(graph)
        parts = [ref.project(name) for name in NODES]
        whole = parts[0].union(parts[1]).union(parts[2])
        assert {v.key() for v in whole.vertices()} == \
            {v.key() for v in graph.vertices()}
        assert set(whole.edges()) == set(graph.edges())
        for part in parts:
            assert part.is_subgraph_of(whole)
            for key_from, key_to in part.edges():
                assert graph.has_edge(graph.get(key_from),
                                      graph.get(key_to))
        for v in graph.vertices():
            if v.is_interval():
                assert whole.get(v.key()).t_end == v.t_end
        assert ref.union(ref).edges() == graph.edges()
