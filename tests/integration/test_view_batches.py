"""What a build batch promises, and how a macroquery finds its root.

A batch builds its nodes one at a time in canonical node order — fetch,
verify, replay, commit — and every authenticator the querier holds is
compared with its signer's verified chain whenever the two meet, so how
nodes are grouped into batches changes no view, colour or counter
(``TestBatchingChangesNoResult``, random splits included); an
unexpected error aborts it, and no member it did not commit survives.
``TestExtantRootLookup`` pins the one read op that replaced a scan: the
root of a ``why(at=None)`` comes from the graph's open-interval map,
and must be the vertex the scan chose — on the application families,
cold and refreshed, and on the graphs no healthy build produces.
"""

from functools import cache
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.mincost import best_cost, link
from repro.provgraph.graph import ProvenanceGraph
from repro.provgraph.vertices import BELIEVE, EXIST, Vertex
from repro.snp import QueryProcessor
from repro.snp.log import INS
from repro.snp.microquery import NodeView, OK, PROVEN_FAULTY

from scenarios import APPLICATION_SCENARIOS, CORPUS, ForkThenCrashNode, \
    fingerprint, paper_network, run_chord, withholding_peers


def _statuses(qp):
    return {str(n): v.status for n, v in qp.mq._views.items()}


class TestBatchSemantics:
    def test_prefetch_matches_lazy_exploration(self):
        dep, _nodes = paper_network()
        lazy = QueryProcessor(dep)
        eager = QueryProcessor(dep)
        eager.prefetch()
        result_lazy = lazy.why(best_cost("c", "d", 5))
        result_eager = eager.why(best_cost("c", "d", 5))
        assert fingerprint(result_lazy) == fingerprint(result_eager)
        assert _statuses(lazy) == {
            str(n): v.status for n, v in eager.mq._views.items()
            if n in lazy.mq._views}

    def test_unexpected_task_error_invalidates_unfinalized_views(self):
        # An *unexpected* exception escaping a build job aborts the
        # batch; members not yet committed may hold replays advanced past
        # their committed heads and must be dropped, not kept.
        dep, nodes = paper_network(seed=93)
        qp = QueryProcessor(dep)
        qp.why(best_cost("c", "d", 5))
        assert "b" in qp.mq._views

        def boom(*_args, **_kwargs):
            raise RuntimeError("boom")

        nodes["b"].retrieve = boom
        with pytest.raises(RuntimeError, match="boom"):
            qp.refresh()
        assert "b" not in qp.mq._views
        del nodes["b"].retrieve  # restore the class method
        assert qp.why(best_cost("c", "d", 5)).is_clean()


def _heads(qp):
    return {str(n): (v.status, v.head_index, v.head_hash)
            for n, v in qp.mq._views.items()}


#: Corpus rows a batch split must not tell apart: honest, and ``a``
#: forked behind peers that refuse the consistency check (only the
#: authenticators their logs carry expose it).
_SPLIT_ROWS = ("clean", "fork-behind-withholders")


def _split_audit(name, batches):
    """Prefetch *batches* on a fresh build of corpus row *name*, run it
    on at the honest ``c``, refresh: everything a batch split could
    change."""
    dep, query, _run_further = CORPUS[name].build()
    qp = QueryProcessor(dep)
    for batch in batches:
        qp.prefetch(batch)
    dep.nodes["c"].insert(link("c", "z", 2))
    dep.run()
    qp.refresh()
    return _heads(qp), fingerprint(query(qp)), qp.mq.stats.counters()


@cache
def _one_batch_audit(name):
    return _split_audit(name, [list("abcde")])


@st.composite
def _batch_splits(draw):
    """The five nodes in any order, cut into consecutive batches."""
    order = draw(st.permutations("abcde"))
    cuts = sorted(draw(st.sets(st.integers(1, 4))))
    return [order[i:j] for i, j in zip([0] + cuts, cuts + [5])]


class TestBatchingChangesNoResult:
    @pytest.mark.parametrize("family",
                             ["mincost"] + sorted(APPLICATION_SCENARIOS))
    def test_one_batch_equals_one_batch_per_node(self, family):
        """A cold ``prefetch`` of every node, and one ``prefetch([n])``
        per node in sorted order: equal views, colours and counters —
        signatures included."""
        if family == "mincost":
            dep, query, _run_further = CORPUS["clean"].build()
        else:
            _name, dep, query, _run_further = APPLICATION_SCENARIOS[family]()

        def audit(batches):
            qp = QueryProcessor(dep)
            for batch in batches:
                qp.prefetch(batch)
            return (_heads(qp), fingerprint(query(qp)),
                    qp.mq.stats.counters())

        nodes = sorted(dep.nodes, key=str)
        assert audit([nodes]) == audit([[node] for node in nodes])

    @pytest.mark.parametrize("name", _SPLIT_ROWS)
    @settings(max_examples=20, deadline=None)
    @given(batches=_batch_splits())
    def test_any_batch_split_changes_nothing(self, name, batches):
        """Any split of MinCost's nodes into ``prefetch`` batches, then a
        run-on and a refresh: equal views, colours and counters. Where
        the fork sits behind withholding peers, ``a`` is convicted
        whether its peers' logs are held before it is built or after."""
        together = _one_batch_audit(name)
        assert _split_audit(name, batches) == together
        if name != "clean":
            assert together[0]["a"][0] == PROVEN_FAULTY

    def test_chord_ring_built_node_by_node_skips_nothing(self):
        """chord@16 built one node per batch, then refreshed ten times:
        an authenticator carried by a log held after its signer was built
        is compared with the signer's chain, not skipped at every
        refresh — and the counters are a one-batch audit's."""
        def audit(batches):
            scen = run_chord(n_nodes=16, seed=7)
            qp = QueryProcessor(scen.deployment)
            for batch in batches(sorted(scen.deployment.nodes, key=str)):
                qp.prefetch(batch)
            for _epoch in range(10):
                scen.net.stabilize(rounds=1)
                qp.refresh()
            return _heads(qp), qp.mq.stats.counters()

        apart = audit(lambda nodes: [[node] for node in nodes])
        assert apart[1]["auth_checks_skipped"] == 0
        assert apart == audit(lambda nodes: [nodes])

    def test_a_mirror_verdict_does_not_depend_on_the_batch(self):
        """``b`` forks above its audited head, is mirrored on the new
        branch and crashes, while ``a``'s log holds ``b``'s authenticators
        on the old one. Whether ``a`` is refreshed in the same batch as
        ``b`` or in an earlier one, ``b``'s mirrored delta fails
        verification before replay, and the stale verified view stays."""
        dep, nodes = paper_network(overrides=withholding_peers(b=ForkThenCrashNode))
        b = nodes["b"]
        b.refuse_retrieve = b.refuse_consistency = False
        together = QueryProcessor(dep)
        apart = QueryProcessor(dep)
        together.prefetch()
        apart.prefetch()
        head = together.mq.view_of("b").head_index
        b.insert(link("b", "q", 4))   # a logs b's newer authenticators
        dep.run()
        b.fork_log(keep_upto=head)
        b.insert(link("b", "r", 9))
        dep.run()
        dep.replicate_deltas()
        b.refuse_retrieve = True
        together.refresh()
        apart.refresh("a")
        apart.refresh("b")
        both = {n: _heads(together)[n] for n in "ab"}
        assert both == {n: _heads(apart)[n] for n in "ab"}
        view = together.mq.view_of("b")
        assert view.status == OK and view.head_index == head


# ------------------------------------------------ the extant-root lookup

def _scan_roots(view, node):
    """``{tup: vertex-or-None}`` as the scan chose ``why(at=None)`` roots
    before the map did: of a tuple's exist-sorted then believe-sorted
    interval vertices, the last one still open. (One scan per type
    instead of one per tuple: filtering by tuple keeps the order.)"""
    roots = {}
    for vtype in (EXIST, BELIEVE):
        for vertex in view.graph.find_all(vtype=vtype, node=node):
            roots.setdefault(vertex.tup, None)
            if vertex.t_end is None:
                roots[vertex.tup] = vertex
    return roots


def _check_extant_roots(qp, node):
    """The processor's root for every tuple that ever had an interval
    vertex on *node* is the scan's choice; returns how many are extant."""
    expected = _scan_roots(qp.mq.view_of(node), node)
    for tup, vertex in expected.items():
        found = qp._find_interval_vertex(node, tup, None)
        if vertex is None:
            assert found is None, (node, tup)
        else:
            assert found is not None and found.t_end is None, (node, tup)
            assert (found.key(), found.color, found.seeded) \
                == (vertex.key(), vertex.color, vertex.seeded)
    return sum(vertex is not None for vertex in expected.values())


def _planted(qp, node, graph):
    """Make *graph* the processor's healthy view of *node*, so the root
    lookup can be asked about a graph no healthy build hands it."""
    qp.mq._views[node] = NodeView(
        node, OK, replay=SimpleNamespace(graph=graph))
    return qp


class TestExtantRootLookup:
    @pytest.mark.parametrize("family", sorted(APPLICATION_SCENARIOS))
    def test_application_views_cold_and_refreshed(self, family):
        """chord, BGP under announce/withdraw churn, Hadoop — cold, then
        extended by a refresh."""
        _name, dep, _query, run_further = APPLICATION_SCENARIOS[family]()

        def extant_roots(qp):
            return sum(_check_extant_roots(qp, node)
                       for node in sorted(dep.nodes, key=str))

        qp = QueryProcessor(dep)
        qp.prefetch()
        assert extant_roots(qp) > 0
        run_further()
        qp.refresh()
        assert extant_roots(qp) > 0

    def test_checkpoint_seeded_view(self):
        dep, nodes = paper_network(seed=83)
        dep.checkpoint_all()
        nodes["a"].insert(link("a", "y", 4))
        dep.run()
        qp = QueryProcessor(dep, use_checkpoints=True)
        qp.prefetch()
        seeded = [v for view in qp.mq._views.values()
                  for v in view.graph.find_all(vtype=EXIST)
                  if v.seeded]
        assert seeded
        assert all(_check_extant_roots(qp, node) for node in dep.nodes)

    def test_failed_replay_graph(self):
        """A replay that crashed mid-log leaves whatever it had opened
        open; the view is proven faulty, its graph kept as evidence."""
        dep, nodes = paper_network()
        b = nodes["b"]
        bomb = link("b", "q", "not-a-number")
        b.log.append(b._next_time(), INS, bomb)
        qp = QueryProcessor(dep)
        view = qp.mq.view_of("b")
        assert view.status == "proven-faulty" and not view.replay.ok
        assert _check_extant_roots(_planted(qp, "b", view.graph), "b")

    def test_believe_outranks_exist_of_the_same_tuple(self):
        dep, _nodes = paper_network()
        tup = link("b", "c", 2)
        graph = ProvenanceGraph()
        graph.add_vertex(Vertex(EXIST, "b", tup=tup, t=1.0, t_end=2.0))
        exist = Vertex(EXIST, "b", tup=tup, t=3.0)
        exist_id = graph.add_vertex(exist)
        graph.add_vertex(Vertex(BELIEVE, "b", tup=tup, t=1.5, t_end=2.5,
                                peer="a"))
        qp = QueryProcessor(dep)
        _planted(qp, "b", graph)
        assert qp._find_interval_vertex("b", tup, None) is exist
        believe = Vertex(BELIEVE, "b", tup=tup, t=4.0, peer="a")
        believe_id = graph.add_vertex(believe)
        assert qp._find_interval_vertex("b", tup, None) is believe
        assert _check_extant_roots(qp, "b") == 1
        graph.close_interval(believe_id, 5.0)
        assert qp._find_interval_vertex("b", tup, None) is exist
        graph.close_interval(exist_id, 6.0)
        assert qp._find_interval_vertex("b", tup, None) is None
        assert _check_extant_roots(qp, "b") == 0

    def test_a_plain_why_scans_nothing(self, monkeypatch):
        """The root of a ``why(at=None)`` costs two map reads, not work
        proportional to the host's history."""
        dep, _nodes = paper_network()
        ops = []

        def counted(name):
            method = getattr(ProvenanceGraph, name)

            def wrapper(graph, *args, **kwargs):
                ops.append(name)
                return method(graph, *args, **kwargs)
            return wrapper

        for name in ("find_all", "open_interval"):
            monkeypatch.setattr(ProvenanceGraph, name, counted(name))
        qp = QueryProcessor(dep)
        qp.prefetch()
        del ops[:]
        assert qp.why(best_cost("c", "d", 5)).is_clean()
        assert "find_all" not in ops
        assert 1 <= ops.count("open_interval") <= 2
        # a historical instant still has to scan
        del ops[:]
        qp.why(best_cost("c", "d", 5), at=dep.sim.now)
        assert ops.count("find_all") == 2
        assert "open_interval" not in ops
