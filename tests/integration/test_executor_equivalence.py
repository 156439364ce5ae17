"""Serial ≡ wire ≡ process: one equivalence matrix, one oracle.

Every executor funnels the same compute step, and every querier-shared
effect (evidence harvesting, memo commits, stats merging, view creation)
happens on the calling thread in canonical node order. These tests pin
the resulting contract on MinCost — macroquery colors, verdicts, view
statuses and merged ``QueryStats`` counters are identical to a serial
build's, cold and across a refresh, adversary gallery included — once,
parametrized over the two non-serial arms:

* ``wire`` — the ``wire_executor`` fixture: the full serialization round
  trip in-process, cheap and deterministic;
* ``process:2`` — a real spawn-based resident pool (slow marker), which
  adds per-process hash randomization and worker-owned replays.

The second half is what only a resident pool has: warm refreshes hit the
worker cache, queries run against resident state, and every way an entry
can vanish — worker death, LRU eviction under a tiny ``resident_cap``,
explicit invalidation — degrades to a cold rebuild with identical
colors. ``test_executor_applications.py`` runs the same contract on
chord, BGP and Hadoop.

``TestExtantRootLookup`` pins the one read op that replaced a scan: the
root of a ``why(at=None)`` comes from the graph's open-interval map, and
must be the vertex the scan chose — on every arm, and on the graphs no
healthy build produces.
"""

import os
import pickle
import signal
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.mincost import best_cost, build_paper_network, link
from repro.provgraph.graph import ProvenanceGraph
from repro.provgraph.vertices import BELIEVE, EXIST, Vertex
from repro.snp import Deployment, QueryProcessor, build
from repro.snp.adversary import (
    ForkingNode, OverTruncatingNode, SilentNode, TamperingNode,
)
from repro.snp.build import BuildWork
from repro.snp.executor import ProcessExecutor, SerialExecutor
from repro.snp.log import INS
from repro.snp.microquery import NodeView, OK
from repro.snp.wire import ResidentReplay

from scenarios import APPLICATION_SCENARIOS

PROCESS = "process:2"


def _executor_for(name, wire_executor):
    """The ``executor=`` argument an arm's name stands for: None, the
    wire round-trip instance, or the spec of a real pool (each querier
    then spawns, owns and closes its own)."""
    return {"serial": None, "wire": wire_executor}.get(name, name)


@pytest.fixture(params=["wire",
                        pytest.param(PROCESS, marks=pytest.mark.slow)])
def arm(request, wire_executor):
    """The non-serial arms, compared against the serial oracle."""
    return _executor_for(request.param, wire_executor)


@pytest.fixture(params=["serial", "wire"])
def inline_arm(request, wire_executor):
    """The in-process arms, for batch semantics no executor may change."""
    return _executor_for(request.param, wire_executor)


def _net(seed=77, overrides=None):
    dep = Deployment(seed=seed, key_bits=256)
    nodes = build_paper_network(dep, node_overrides=overrides or {})
    dep.run()
    return dep, nodes


def _fingerprint(result):
    return sorted((str(v.key()), v.color) for v in result.graph.vertices())


def _statuses(qp):
    return {str(n): v.status for n, v in qp.mq._views.items()}


def _cold_outcome(dep, executor, **qp_kwargs):
    """Everything observable from one cold macroquery."""
    with QueryProcessor(dep, executor=executor, **qp_kwargs) as qp:
        result = qp.why(best_cost("c", "d", 5), scope=5)
        return {
            "colors": _fingerprint(result),
            "faulty": result.faulty_nodes(),
            "suspect": result.suspect_nodes(),
            "counters": qp.mq.stats.counters(),
            "views": _statuses(qp),
        }


def _refresh_outcome(executor, seed=91, mutate=None, counters=True,
                     overrides=None):
    """Build → mutate the deployment → refresh → re-query, capturing
    everything the equivalence contract covers."""
    dep, nodes = _net(seed=seed, overrides=overrides)
    with QueryProcessor(dep, executor=executor) as qp:
        qp.why(best_cost("c", "d", 5))
        if mutate is not None:
            mutate(dep, nodes)
        else:
            nodes["a"].insert(link("a", "z", 2))
        dep.run()
        before = qp.mq.stats.copy()
        qp.refresh()
        delta = qp.mq.stats.delta_since(before)
        result = qp.why(best_cost("c", "d", 5))
        out = {
            "colors": _fingerprint(result),
            "faulty": result.faulty_nodes(),
            "views": _statuses(qp),
        }
        if counters:
            out["refresh_delta"] = delta.counters()
            out["counters"] = qp.mq.stats.counters()
        return out, qp.mq.stats.copy()


# ------------------------------------------------- the equivalence matrix


class TestColdBuilds:
    def test_clean_network(self, arm):
        dep, _nodes = _net()
        assert _cold_outcome(dep, arm) == _cold_outcome(dep, None)

    def test_forking_adversary(self, arm):
        dep, nodes = _net(overrides={"b": ForkingNode})
        nodes["b"].fork_log(keep_upto=3)
        serial = _cold_outcome(dep, None)
        assert "b" in serial["faulty"]
        assert _cold_outcome(dep, arm) == serial

    def test_tampering_adversary(self, arm):
        dep, nodes = _net(overrides={"b": TamperingNode})
        nodes["b"].tamper_entry(2, ("rewritten-history",))
        serial = _cold_outcome(dep, None)
        assert "b" in serial["faulty"]
        assert _cold_outcome(dep, arm) == serial

    def test_silent_adversary(self, arm):
        dep, _nodes = _net(overrides={"b": SilentNode})
        serial = _cold_outcome(dep, None)
        assert "b" in serial["suspect"]
        assert serial["views"]["b"] == "unreachable"
        assert _cold_outcome(dep, arm) == serial

    def test_checkpointed_build(self, arm):
        dep, nodes = _net(seed=83)
        dep.checkpoint_all()
        nodes["a"].insert(link("a", "y", 4))
        dep.run()
        serial = _cold_outcome(dep, None, use_checkpoints=True)
        assert serial["counters"]["auth_checks_skipped"] >= 0
        assert _cold_outcome(dep, arm, use_checkpoints=True) == serial

    @pytest.mark.slow
    @pytest.mark.parametrize("workers", (1, 4))
    def test_clean_network_at_other_pool_sizes(self, workers):
        dep, _nodes = _net()
        assert _cold_outcome(dep, f"process:{workers}") \
            == _cold_outcome(dep, None)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=4))
    def test_equivalence_property(self, wire_executor, seed):
        dep, _nodes = _net(seed=100 + seed)
        assert _cold_outcome(dep, wire_executor) == _cold_outcome(dep, None)


class TestRefresh:
    def test_clean_refresh(self, arm):
        serial, _ = _refresh_outcome(None)
        refreshed, stats = _refresh_outcome(arm)
        assert refreshed == serial
        # Only a resident pool has a cache for the refresh to hit.
        assert (stats.view_cache_hits > 0) == (arm == PROCESS)

    def test_forking_after_build(self, arm):
        def mutate(dep, nodes):
            nodes["b"].fork_log(keep_upto=3)
            nodes["a"].insert(link("a", "z", 2))
        serial, _ = _refresh_outcome(None, seed=93, mutate=mutate,
                                     overrides={"b": ForkingNode})
        refreshed, _ = _refresh_outcome(arm, seed=93, mutate=mutate,
                                        overrides={"b": ForkingNode})
        assert "b" in serial["faulty"]
        assert refreshed == serial

    def test_tampering_after_build(self, arm):
        def mutate(dep, nodes):
            # Grow the log first, then rewrite an entry *in the new
            # suffix* — a refresh re-fetches only past the verified head,
            # so only suffix tampering is visible to an extend.
            nodes["a"].insert(link("a", "z", 2))
            nodes["b"].insert(link("b", "w", 3))
            dep.run()
            nodes["b"].tamper_entry(len(nodes["b"].log),
                                    ("rewritten-history",))
        serial, _ = _refresh_outcome(None, seed=94, mutate=mutate,
                                     overrides={"b": TamperingNode})
        refreshed, _ = _refresh_outcome(arm, seed=94, mutate=mutate,
                                        overrides={"b": TamperingNode})
        assert "b" in serial["faulty"]
        assert refreshed == serial

    def test_over_truncator_post_gc(self, arm):
        def post_gc_outcome(executor):
            dep, nodes = _net(seed=95, overrides={"b": OverTruncatingNode})
            auditor = QueryProcessor(dep)
            dep.register_querier(auditor)
            auditor.prefetch()
            dep.checkpoint_all()
            nodes["a"].insert(link("a", "z", 2))
            dep.run()
            auditor.refresh()
            dep.checkpoint_all()
            nodes["b"].insert(link("b", "y", 9))
            dep.run()
            dep.run_gc(checkpoint=False)
            dep.unregister_querier(auditor)
            auditor.close()
            with QueryProcessor(dep, executor=executor) as qp:
                qp.prefetch()  # every node, b's truncation included
                result = qp.why(best_cost("c", "d", 5), scope=5)
                return {
                    "colors": _fingerprint(result),
                    "views": _statuses(qp),
                    "counters": qp.mq.stats.counters(),
                }
        serial = post_gc_outcome(None)
        assert serial["views"]["b"] == "proven-faulty"
        assert post_gc_outcome(arm) == serial


class TestBatchSemantics:
    """What a batch promises whichever executor ran it."""

    def test_prefetch_matches_lazy_exploration(self, inline_arm):
        dep, _nodes = _net()
        with QueryProcessor(dep) as lazy, \
                QueryProcessor(dep, executor=inline_arm) as eager:
            eager.prefetch()
            result_lazy = lazy.why(best_cost("c", "d", 5))
            result_eager = eager.why(best_cost("c", "d", 5))
            assert _fingerprint(result_lazy) == _fingerprint(result_eager)
            assert _statuses(lazy) == {
                str(n): v.status for n, v in eager.mq._views.items()
                if n in lazy.mq._views}

    def test_unexpected_task_error_invalidates_unfinalized_views(
            self, inline_arm):
        # An *unexpected* exception escaping a build task aborts the
        # batch; members not yet finalized may hold replays advanced past
        # their committed heads and must be dropped, not kept.
        dep, nodes = _net(seed=93)
        with QueryProcessor(dep, executor=inline_arm) as qp:
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

    def test_fork_after_cached_head_detected(self, inline_arm):
        dep, nodes = _net(seed=92, overrides={"b": ForkingNode})
        with QueryProcessor(dep, executor=inline_arm) as qp:
            qp.why(best_cost("c", "d", 5))
            head = qp.mq.view_of("b").head_index
            nodes["b"].fork_log(keep_upto=head - 4)
            nodes["b"].insert(link("b", "q", 4))
            dep.run()
            qp.refresh()
            view = qp.mq._views["b"]
            assert view.status == "proven-faulty"
            assert "fork" in view.verdict_reason

    @pytest.mark.slow
    def test_unpicklable_work_item_raises_on_the_calling_thread(
            self, monkeypatch):
        """The pool's pipe is the only pickle pass, so it is also where
        an unpicklable work item surfaces: its future fails, collection
        re-raises on the caller, the batch aborts whole and the pool
        lives on."""
        dep, _nodes = _net(seed=74)
        to_wire = BuildWork.to_wire
        monkeypatch.setattr(
            BuildWork, "to_wire",
            lambda work: to_wire(work) + (lambda: None,))
        with QueryProcessor(dep, executor=PROCESS) as qp:
            with pytest.raises((pickle.PicklingError, AttributeError),
                               match="pickle"):
                qp.prefetch()
            assert not qp.mq._views
            monkeypatch.undo()
            assert qp.why(best_cost("c", "d", 5)).is_clean()


class TestExecutorLifecycle:
    def test_serial_querier_owns_trivial_executor(self):
        dep, _nodes = _net(seed=72)
        qp = QueryProcessor(dep)
        assert isinstance(qp.mq.executor, SerialExecutor)
        assert qp.mq._owns_executor
        qp.close()

    @pytest.mark.slow
    def test_process_pool_closes_and_is_prewarmed(self):
        dep, _nodes = _net(seed=73)
        with QueryProcessor(dep, executor=PROCESS) as qp:
            # prepare() ran at construction: the slots exist before the
            # first batch, so spawn cost never lands inside a query.
            assert qp.mq.executor.alive
            qp.prefetch(["a", "b"])
        assert not qp.mq.executor.alive

    @pytest.mark.slow
    def test_passed_in_executor_stays_open(self):
        dep, _nodes = _net(seed=71)
        shared = ProcessExecutor(1)
        try:
            with QueryProcessor(dep, executor=shared) as qp:
                qp.prefetch(["a", "b"])
            assert shared.alive  # caller-owned: left running
        finally:
            shared.close()


# ------------------------------------- what only a resident pool has

@pytest.mark.slow
class TestResidentCache:
    """The cache actually carries the refresh: hits, no cold rebuilds,
    and coordinator-side non-materialization."""

    def test_warm_refresh_avoids_reshipping_blobs(self):
        dep, nodes = _net(seed=91)
        with QueryProcessor(dep, executor=PROCESS) as qp:
            qp.why(best_cost("c", "d", 5))
            built = qp.mq.stats.copy()
            assert built.view_cache_misses > 0  # cold builds populate
            assert built.view_cache_hits == 0
            nodes["a"].insert(link("a", "z", 2))
            dep.run()
            qp.refresh()
            delta = qp.mq.stats.delta_since(built)
            assert delta.view_cache_hits > 0
            assert delta.view_cache_misses == 0  # nothing rebuilt cold

    def test_queries_run_against_resident_state(self):
        dep, _nodes = _net(seed=92)
        with QueryProcessor(dep, executor=PROCESS) as qp:
            qp.why(best_cost("c", "d", 5))
            ok_views = [v for v in qp.mq._views.values()
                        if v.status == OK]
            assert ok_views
            for view in ok_views:
                assert isinstance(view.replay, ResidentReplay)
            # The whole exploration ran through worker-side graph ops:
            # no view had to pull its replay into the coordinator.
            assert not any(view.replay.materialized for view in ok_views)
            assert not any(view._graph is not None for view in ok_views)

    def test_materialize_pulls_the_workers_graph(self):
        dep, _nodes = _net(seed=92)
        with QueryProcessor(dep, executor=PROCESS) as qp, \
                QueryProcessor(dep) as serial:
            view = qp.mq.view_of("c")
            in_worker = view.replay.query("find_all", (None, None, None))
            assert not view.replay.materialized
            pulled = sorted((str(v.key()), v.color)
                            for v in view.graph.vertices())
            assert view.replay.materialized
            assert pulled == sorted((str(v.key()), v.color)
                                    for v in in_worker)
            assert pulled == sorted(
                (str(v.key()), v.color)
                for v in serial.mq.view_of("c").graph.vertices())

    def test_invalidate_evicts_worker_entry(self):
        dep, _nodes = _net(seed=92)
        with QueryProcessor(dep, executor=PROCESS) as qp:
            qp.why(best_cost("c", "d", 5))
            before = qp.mq.stats.view_cache_evictions
            qp.mq.invalidate("c")
            assert qp.mq.stats.view_cache_evictions == before + 1
            # The rebuilt view is a cold miss, not a stale hit.
            misses = qp.mq.stats.view_cache_misses
            view = qp.mq.view_of("c")
            assert view.status == OK
            assert qp.mq.stats.view_cache_misses == misses + 1


@pytest.mark.slow
class TestResidentFallbacks:
    """Lost entries degrade to bit-identical cold rebuilds."""

    def test_worker_death_falls_back_to_cold_build(self):
        serial, _ = _refresh_outcome(None, counters=False)
        dep, nodes = _net(seed=91)
        with QueryProcessor(dep, executor=PROCESS) as qp:
            qp.why(best_cost("c", "d", 5))
            # Kill every live worker outright: resident state is gone and
            # the submit path sees broken pools, not graceful errors.
            for pool in qp.mq.executor._slots:
                if pool is None:
                    continue
                for pid in list(getattr(pool, "_processes", {})):
                    os.kill(pid, signal.SIGKILL)
            nodes["a"].insert(link("a", "z", 2))
            dep.run()
            qp.refresh()
            result = qp.why(best_cost("c", "d", 5))
            # Counters legitimately diverge (the fallback re-fetches); the
            # answer — colors, verdicts, view statuses — may not.
            assert _fingerprint(result) == serial["colors"]
            assert result.faulty_nodes() == serial["faulty"]
            assert _statuses(qp) == serial["views"]

    def test_tiny_resident_cap_forces_evictions_not_errors(self):
        serial, _ = _refresh_outcome(None, counters=False)
        dep, nodes = _net(seed=91)
        executor = ProcessExecutor(2, resident_cap=1)
        try:
            with QueryProcessor(dep, executor=executor) as qp:
                qp.why(best_cost("c", "d", 5))
                nodes["a"].insert(link("a", "z", 2))
                dep.run()
                before = qp.mq.stats.copy()
                qp.refresh()
                result = qp.why(best_cost("c", "d", 5))
                assert _fingerprint(result) == serial["colors"]
                assert result.faulty_nodes() == serial["faulty"]
                delta = qp.mq.stats.delta_since(before)
                # 5 nodes on 2 single-entry workers: some refresh had to
                # miss (its entry was evicted) and rebuild cold.
                assert delta.view_cache_misses > 0
        finally:
            executor.close()


# ------------------------------------------------ the extant-root lookup

def _scan_roots(mq, view, node):
    """``{tup: vertex-or-None}`` as the scan chose ``why(at=None)`` roots
    before the map did: of a tuple's exist-sorted then believe-sorted
    interval vertices, the last one still open. (One scan per type
    instead of one per tuple: filtering by tuple keeps the order.)"""
    roots = {}
    for vtype in (EXIST, BELIEVE):
        for vertex in mq.view_find_all(view, vtype=vtype, node=node):
            roots.setdefault(vertex.tup, None)
            if vertex.t_end is None:
                roots[vertex.tup] = vertex
    return roots


def _check_extant_roots(qp, node):
    """The processor's root for every tuple that ever had an interval
    vertex on *node* is the scan's choice; returns how many are extant."""
    expected = _scan_roots(qp.mq, qp.mq.view_of(node), node)
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
    @pytest.mark.slow
    @pytest.mark.parametrize("family", sorted(APPLICATION_SCENARIOS))
    def test_application_views_serial_and_resident(self, family):
        """chord, BGP under announce/withdraw churn, Hadoop — cold, then
        extended by a refresh. The pool's answers cross
        ``resident_op_wire`` and come back cloned."""
        _name, dep, _query, run_further = APPLICATION_SCENARIOS[family]()

        def extant_roots(qp):
            return sum(_check_extant_roots(qp, node)
                       for node in sorted(dep.nodes, key=str))

        with QueryProcessor(dep) as serial, \
                QueryProcessor(dep, executor=PROCESS) as resident:
            serial.prefetch()
            resident.prefetch()
            assert extant_roots(serial) == extant_roots(resident) > 0
            run_further()
            serial.refresh()
            resident.refresh()
            assert extant_roots(serial) == extant_roots(resident) > 0
            assert not any(view.replay.materialized
                           for view in resident.mq._views.values())

    def test_checkpoint_seeded_view(self, arm):
        dep, nodes = _net(seed=83)
        dep.checkpoint_all()
        nodes["a"].insert(link("a", "y", 4))
        dep.run()
        with QueryProcessor(dep, executor=arm, use_checkpoints=True) as qp:
            qp.prefetch()
            seeded = [v for view in qp.mq._views.values()
                      for v in qp.mq.view_find_all(view, vtype=EXIST)
                      if v.seeded]
            assert seeded
            assert all(_check_extant_roots(qp, node) for node in dep.nodes)

    def test_failed_replay_graph(self, inline_arm):
        """A replay that crashed mid-log leaves whatever it had opened
        open; the view is proven faulty, its graph kept as evidence."""
        dep, nodes = _net()
        b = nodes["b"]
        bomb = link("b", "q", "not-a-number")
        b.log.append(b._next_time(), INS, bomb.canonical(),
                     aux={"tup": bomb})
        with QueryProcessor(dep, executor=inline_arm) as qp:
            view = qp.mq.view_of("b")
            assert view.status == "proven-faulty" and not view.replay.ok
            assert _check_extant_roots(_planted(qp, "b", view.graph), "b")

    def test_believe_outranks_exist_of_the_same_tuple(self):
        dep, _nodes = _net()
        tup = link("b", "c", 2)
        graph = ProvenanceGraph()
        graph.add_vertex(Vertex(EXIST, "b", tup=tup, t=1.0, t_end=2.0))
        exist = graph.add_vertex(Vertex(EXIST, "b", tup=tup, t=3.0))
        graph.add_vertex(Vertex(BELIEVE, "b", tup=tup, t=1.5, t_end=2.5,
                                peer="a"))
        with QueryProcessor(dep) as qp:
            _planted(qp, "b", graph)
            assert qp._find_interval_vertex("b", tup, None) is exist
            believe = graph.add_vertex(
                Vertex(BELIEVE, "b", tup=tup, t=4.0, peer="a"))
            assert qp._find_interval_vertex("b", tup, None) is believe
            assert _check_extant_roots(qp, "b") == 1
            graph.close_interval(believe, 5.0)
            assert qp._find_interval_vertex("b", tup, None) is exist
            graph.close_interval(exist, 6.0)
            assert qp._find_interval_vertex("b", tup, None) is None
            assert _check_extant_roots(qp, "b") == 0

    @pytest.mark.parametrize("executor", [
        "serial", pytest.param(PROCESS, marks=pytest.mark.slow)])
    def test_a_plain_why_scans_nothing(self, executor, monkeypatch):
        """The root of a ``why(at=None)`` costs two map reads, not work
        proportional to the host's history."""
        dep, _nodes = _net()
        ops = []
        graph_read, resident_query = build.graph_read, ResidentReplay.query

        def counted_read(graph, op, payload):
            ops.append(op)
            return graph_read(graph, op, payload)

        def counted_query(replay, op, payload=None):
            ops.append(op)
            return resident_query(replay, op, payload)

        # An in-process view is read through graph_read here; a resident
        # one in its worker, where this patch does not reach — so that
        # arm is counted at the handle the op leaves through.
        monkeypatch.setattr("repro.snp.microquery.graph_read", counted_read)
        monkeypatch.setattr(ResidentReplay, "query", counted_query)
        with QueryProcessor(dep, executor=_executor_for(executor, None)) \
                as qp:
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
