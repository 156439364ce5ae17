"""Process-pool view builds: serial ≡ wire ≡ process equivalence.

Every executor funnels the same compute step; these tests pin the
resulting contract end-to-end. The cheap, deterministic coverage runs on
the ``wire_executor`` fixture (the full serialization round trip without
process spawn); a smaller set of tests pays for real spawn-based pools to
prove the whole path — per-process hash randomization included — produces
bit-identical colors, verdicts and merged counters. Also covers executor
lifecycle (ownership, context management) and the pending-skip registry
(satellite of the same PR).
"""

import pytest

from repro.apps.mincost import best_cost, build_paper_network, link
from repro.snp import Deployment, QueryProcessor
from repro.snp.adversary import ForkingNode, SilentNode, TamperingNode
from repro.snp.evidence import Authenticator
from repro.snp.executor import (
    ProcessExecutor, SerialExecutor, ThreadedExecutor, make_executor,
)


def _net(seed=77, overrides=None):
    dep = Deployment(seed=seed, key_bits=256)
    nodes = build_paper_network(dep, node_overrides=overrides or {})
    dep.run()
    return dep, nodes


def _fingerprint(result):
    return sorted((str(v.key()), v.color)
                  for v in result.graph.vertices())


def _cold_outcome(dep, executor, scope=5):
    with QueryProcessor(dep, executor=executor) as qp:
        result = qp.why(best_cost("c", "d", 5), scope=scope)
        return {
            "colors": _fingerprint(result),
            "faulty": result.faulty_nodes(),
            "suspect": result.suspect_nodes(),
            "counters": qp.mq.stats.counters(),
            "views": {str(n): v.status for n, v in qp.mq._views.items()},
        }


class TestWireCheckEquivalence:
    """The serialization contract, exercised deterministically: every
    work item, context and outcome crosses a pickle of its wire form."""

    def test_clean_network(self, wire_executor):
        dep, _nodes = _net()
        assert _cold_outcome(dep, wire_executor) == _cold_outcome(dep, None)

    def test_forking_adversary(self, wire_executor):
        dep, nodes = _net(overrides={"b": ForkingNode})
        nodes["b"].fork_log(keep_upto=3)
        serial = _cold_outcome(dep, None)
        assert "b" in serial["faulty"]
        assert _cold_outcome(dep, wire_executor) == serial

    def test_tampering_adversary(self, wire_executor):
        dep, nodes = _net(overrides={"b": TamperingNode})
        nodes["b"].tamper_entry(2, ("rewritten-history",))
        serial = _cold_outcome(dep, None)
        assert "b" in serial["faulty"]
        assert _cold_outcome(dep, wire_executor) == serial

    def test_silent_adversary(self, wire_executor):
        dep, _nodes = _net(overrides={"b": SilentNode})
        serial = _cold_outcome(dep, None)
        assert serial["views"]["b"] == "unreachable"
        assert _cold_outcome(dep, wire_executor) == serial

    def test_wire_refresh_matches_serial(self, wire_executor):
        def refreshed(executor):
            dep, nodes = _net(seed=91)
            with QueryProcessor(dep, executor=executor) as qp:
                qp.why(best_cost("c", "d", 5))
                nodes["a"].insert(link("a", "z", 2))
                dep.run()
                before = qp.mq.stats.copy()
                qp.refresh()
                delta = qp.mq.stats.delta_since(before)
                result = qp.why(best_cost("c", "d", 5))
                return {"colors": _fingerprint(result),
                        "delta": delta.counters()}
        assert refreshed(wire_executor) == refreshed(None)

    def test_wire_checkpointed_build_matches_serial(self, wire_executor):
        def outcome(executor):
            dep, nodes = _net(seed=83)
            dep.checkpoint_all()
            nodes["a"].insert(link("a", "y", 4))
            dep.run()
            with QueryProcessor(dep, use_checkpoints=True,
                                executor=executor) as qp:
                result = qp.why(best_cost("c", "d", 5))
                return {"colors": _fingerprint(result),
                        "counters": qp.mq.stats.counters()}
        serial = outcome(None)
        assert serial["counters"]["auth_checks_skipped"] >= 0
        assert outcome(wire_executor) == serial


@pytest.mark.slow
class TestProcessEquivalence:
    """Real spawn-based pools: equivalence at 1/2/4 workers, adversaries
    included. Spawn start-up makes these the suite's slowest tests."""

    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_clean_network_matches_serial(self, workers):
        dep, _nodes = _net()
        assert _cold_outcome(dep, f"process:{workers}") \
            == _cold_outcome(dep, None)

    def test_forking_adversary_matches_serial(self):
        dep, nodes = _net(overrides={"b": ForkingNode})
        nodes["b"].fork_log(keep_upto=3)
        serial = _cold_outcome(dep, None)
        assert "b" in serial["faulty"]
        assert _cold_outcome(dep, "process:2") == serial

    def test_silent_adversary_matches_serial(self):
        dep, _nodes = _net(overrides={"b": SilentNode})
        serial = _cold_outcome(dep, None)
        assert serial["views"]["b"] == "unreachable"
        assert _cold_outcome(dep, "process:2") == serial

    def test_tampering_matches_serial(self):
        dep, nodes = _net(overrides={"b": TamperingNode})
        nodes["b"].tamper_entry(2, ("rewritten-history",))
        serial = _cold_outcome(dep, None)
        assert "b" in serial["faulty"]
        assert _cold_outcome(dep, "process:2") == serial

    def test_refresh_matches_serial(self):
        def refreshed(executor):
            dep, nodes = _net(seed=91)
            with QueryProcessor(dep, executor=executor) as qp:
                qp.why(best_cost("c", "d", 5))
                nodes["a"].insert(link("a", "z", 2))
                dep.run()
                before = qp.mq.stats.copy()
                qp.refresh()
                delta = qp.mq.stats.delta_since(before)
                result = qp.why(best_cost("c", "d", 5))
                return {"colors": _fingerprint(result),
                        "delta": delta.counters()}
        assert refreshed("process:2") == refreshed(None)


class TestExecutorLifecycle:
    def test_make_executor_specs(self, wire_executor):
        proc = make_executor("process:3")
        assert isinstance(proc, ProcessExecutor) and proc.workers == 3
        with pytest.raises(ValueError):
            make_executor("process:0")
        assert make_executor(wire_executor) is wire_executor

    def test_context_manager_closes_owned_pool(self):
        dep, _nodes = _net(seed=70)
        with QueryProcessor(dep, executor="thread:2") as qp:
            qp.prefetch(["a", "b"])
            assert qp.mq.executor._pool is not None
        assert qp.mq.executor._pool is None

    def test_passed_in_executor_stays_open(self):
        dep, _nodes = _net(seed=71)
        shared = ThreadedExecutor(2)
        try:
            with QueryProcessor(dep, executor=shared) as qp:
                qp.prefetch(["a", "b"])
            assert shared._pool is not None  # caller-owned: left running
        finally:
            shared.close()

    def test_serial_querier_owns_trivial_executor(self):
        dep, _nodes = _net(seed=72)
        qp = QueryProcessor(dep)
        assert isinstance(qp.mq.executor, SerialExecutor)
        assert qp.mq._owns_executor
        qp.close()

    @pytest.mark.slow
    def test_process_pool_closes_and_is_prewarmed(self):
        dep, _nodes = _net(seed=73)
        with QueryProcessor(dep, executor="process:2") as qp:
            # prepare() ran at construction: the slots exist before the
            # first batch, so spawn cost never lands inside a query.
            assert qp.mq.executor.alive
            qp.prefetch(["a", "b"])
        assert not qp.mq.executor.alive


class TestPendingSkippedAuthenticators:
    """Evidence below a partial-segment anchor is remembered, not lost:
    a later full build retroactively checks it."""

    def _checkpointed_querier(self, seed=85):
        dep, nodes = _net(seed=seed)
        dep.checkpoint_all()
        nodes["a"].insert(link("a", "y", 4))
        dep.run()
        # The on-demand anchoring fetch (PR 6) would repay the pending
        # skips at batch end; disable it so the registry itself — what
        # these tests pin — stays observable.
        qp = QueryProcessor(dep, use_checkpoints=True,
                            fetch_pending_anchors=False)
        qp.why(best_cost("c", "d", 5))
        return dep, nodes, qp

    def test_skips_are_recorded_with_peer_and_index(self):
        _dep, _nodes, qp = self._checkpointed_querier()
        assert qp.mq.stats.auth_checks_skipped > 0
        recorded = {
            node: qp.mq.pending_skipped(node)
            for node in list(qp.mq._pending_skipped)
        }
        assert recorded  # something below an anchor was remembered
        for node, pairs in recorded.items():
            for peer, index in pairs:
                assert peer == node  # signed by the node under audit
                assert index >= 1

    def test_full_build_recovers_pending_skips(self):
        _dep, _nodes, qp = self._checkpointed_querier()
        node = next(iter(qp.mq._pending_skipped))
        owed = len(qp.mq.pending_skipped(node))
        before = qp.mq.stats.auth_checks_recovered
        qp.mq.use_checkpoints = False  # next build covers from entry 1
        qp.mq.invalidate(node)
        view = qp.mq.view_of(node)
        assert view.status == "ok"
        assert qp.mq.stats.auth_checks_recovered >= before + owed
        assert node not in qp.mq._pending_skipped

    def test_mismatching_pending_authenticator_convicts(self):
        dep, _nodes, qp = self._checkpointed_querier()
        node = "b"
        identity = dep.identity_of(node)
        forged = Authenticator(node, 1, 0.0, "f" * 64, None)
        forged.signature = identity.sign(forged.payload())
        qp.mq._pending_skipped.setdefault(node, {})[
            bytes(forged.signature)
        ] = forged
        qp.mq.use_checkpoints = False
        qp.mq.invalidate(node)
        view = qp.mq.view_of(node)
        # The node validly signed an (index, hash) that is not on its
        # chain — retroactively checking the remembered authenticator is
        # what exposes the equivocation.
        assert view.status == "proven-faulty"
        assert "authenticator" in view.verdict_reason
