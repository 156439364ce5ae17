"""Worker-resident view cache: the PR 6 shared view plane, end to end.

``process:N`` now keeps each replay resident in its owning worker and
ships only verified heads + deltas; these tests pin the contract that
makes that safe:

* serial ≡ resident-process bit-identical colors/verdicts/counters on
  cold builds *and* warm refreshes, adversary gallery included
  (forking, tampering, over-truncating);
* warm refreshes actually hit the cache (``view_cache_hits`` > 0, no
  cold miss) and queries run against resident state without
  materializing blobs in the coordinator;
* every way an entry can vanish — worker death, LRU eviction under a
  tiny ``resident_cap``, explicit invalidation — degrades to a cold
  rebuild with identical colors, never a wrong or missing answer.
"""

import os
import signal

import pytest

from repro.apps.mincost import best_cost, build_paper_network, link
from repro.snp import Deployment, QueryProcessor
from repro.snp.adversary import (
    ForkingNode, OverTruncatingNode, TamperingNode,
)
from repro.snp.executor import ProcessExecutor
from repro.snp.microquery import OK
from repro.snp.wire import ResidentReplay

pytestmark = pytest.mark.slow  # every test spawns a real process pool


def _net(seed=77, overrides=None):
    dep = Deployment(seed=seed, key_bits=256)
    nodes = build_paper_network(dep, node_overrides=overrides or {})
    dep.run()
    return dep, nodes


def _fingerprint(result):
    return sorted((str(v.key()), v.color) for v in result.graph.vertices())


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
        qp.refresh()
        result = qp.why(best_cost("c", "d", 5))
        out = {
            "colors": _fingerprint(result),
            "faulty": result.faulty_nodes(),
            "views": {str(n): v.status for n, v in qp.mq._views.items()},
        }
        if counters:
            out["counters"] = qp.mq.stats.counters()
        return out, qp.mq.stats.copy()


class TestResidentEquivalence:
    """Serial ≡ resident-process, counters included, under refresh."""

    def test_clean_refresh_matches_serial(self):
        serial, _ = _refresh_outcome(None)
        resident, stats = _refresh_outcome("process:2")
        assert resident == serial
        assert stats.view_cache_hits > 0

    def test_forking_after_build_matches_serial(self):
        def mutate(dep, nodes):
            nodes["b"].fork_log(keep_upto=3)
            nodes["a"].insert(link("a", "z", 2))
        serial, _ = _refresh_outcome(None, seed=93, mutate=mutate,
                                     overrides={"b": ForkingNode})
        resident, _ = _refresh_outcome("process:2", seed=93, mutate=mutate,
                                       overrides={"b": ForkingNode})
        assert "b" in serial["faulty"]
        assert resident == serial

    def test_tampering_after_build_matches_serial(self):
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
        resident, _ = _refresh_outcome("process:2", seed=94, mutate=mutate,
                                       overrides={"b": TamperingNode})
        assert "b" in serial["faulty"]
        assert resident == serial

    def test_over_truncator_post_gc_matches_serial(self):
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
                    "views": {str(n): v.status
                              for n, v in qp.mq._views.items()},
                    "counters": qp.mq.stats.counters(),
                }
        serial = post_gc_outcome(None)
        assert serial["views"]["b"] == "proven-faulty"
        assert post_gc_outcome("process:2") == serial


class TestResidentCache:
    """The cache actually carries the refresh: hits, no cold rebuilds,
    and coordinator-side non-materialization."""

    def test_warm_refresh_avoids_reshipping_blobs(self):
        dep, nodes = _net(seed=91)
        with QueryProcessor(dep, executor="process:2") as qp:
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
        with QueryProcessor(dep, executor="process:2") as qp:
            qp.why(best_cost("c", "d", 5))
            ok_views = [v for v in qp.mq._views.values()
                        if v.status == OK]
            assert ok_views
            for view in ok_views:
                assert isinstance(view.replay, ResidentReplay)
            # The whole exploration ran through worker-side graph ops:
            # no view had to pull its replay blob into the coordinator.
            assert not any(view.replay.materialized for view in ok_views)
            assert not any(view._graph is not None for view in ok_views)

    def test_invalidate_evicts_worker_entry(self):
        dep, _nodes = _net(seed=92)
        with QueryProcessor(dep, executor="process:2") as qp:
            qp.why(best_cost("c", "d", 5))
            before = qp.mq.stats.view_cache_evictions
            qp.mq.invalidate("c")
            assert qp.mq.stats.view_cache_evictions == before + 1
            # The rebuilt view is a cold miss, not a stale hit.
            misses = qp.mq.stats.view_cache_misses
            view = qp.mq.view_of("c")
            assert view.status == OK
            assert qp.mq.stats.view_cache_misses == misses + 1


class TestResidentFallbacks:
    """Lost entries degrade to bit-identical cold rebuilds."""

    def test_worker_death_falls_back_to_cold_build(self):
        serial, _ = _refresh_outcome(None, counters=False)
        dep, nodes = _net(seed=91)
        with QueryProcessor(dep, executor="process:2") as qp:
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
            assert {str(n): v.status
                    for n, v in qp.mq._views.items()} == serial["views"]

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
