"""The serial audit's contract, stated once over a scenario gallery.

A querier has one build path — fetch, verify + replay, commit, one node
at a time, inline. This module states what an audit through it
promises, checked on every scenario of one gallery: MinCost under each
adversary the paper's Section 6 names (plus checkpoints, GC, mirrors
and a receiver that logs what it was not sent), and the three
application families at small size. On every scenario:

* the verdict is the stated one, and red lands only on adversaries;
* every view that withholds judgment or convicts says why;
* two independent cold audits of one state agree — colours, verdicts,
  view heads and ``QueryStats`` counters;
* neither eager prefetch, nor the order a batch is asked in, nor how
  nodes are grouped into batches changes an answer (a batch builds in
  canonical node order, and every authenticator the querier holds is
  compared with its signer's verified chain whenever the two meet);
* a refresh with nothing new changes nothing, and a standing auditor that
  refreshes after the deployment ran on answers as a cold audit of the
  new state does;
* after every node checkpoints, an audit seeded from the checkpoints
  gives each vertex the full audit's colour or yellow, and red lands
  only on adversaries.

``TestRefreshAfterMisbehaviour`` adds the cases where the adversary acts
*between* the build and the refresh (a fork below the cached head is
``test_incremental_audit.py``'s).
"""

import pytest

from repro.apps.mincost import best_cost, build_paper_network, cost, link
from repro.snp import Deployment, QueryProcessor
from repro.snp.adversary import (
    FabricatorNode, ForkingNode, InputLiarNode, MisreceivingNode,
    OverTruncatingNode, SilentNode, TamperingNode,
)
from repro.snp.microquery import OK, PROVEN_FAULTY

from scenarios import bgp_scenario, chord_scenario, fingerprint, \
    fork_then_run_on, hadoop_scenario, withholding_peers


class Case:
    """One gallery entry. *build* returns ``(deployment, query,
    run_further)`` — the shape of ``scenarios.APPLICATION_SCENARIOS`` —
    on a fresh deployment; *adversaries* are the nodes allowed to turn
    red; *statuses* the views that must not be ``ok`` after a prefetch;
    *faulty* the nodes the query must convict."""

    def __init__(self, build, adversaries=(), statuses=None, faulty=(),
                 **qp_kwargs):
        self.build = build
        self.adversaries = frozenset(adversaries)
        self.statuses = statuses or {}
        self.faulty = sorted(faulty)
        self.qp_kwargs = qp_kwargs

    def processor(self, dep):
        return QueryProcessor(dep, **self.qp_kwargs)


def _mincost(seed=77, overrides=None, setup=None, target=None,
             after_run=None, t_batch=0.0):
    """A MinCost builder: the paper network, *setup* applied after the
    first run, the query ``why(target)``; the run-on adds a link, then
    applies *after_run*."""
    def build():
        dep = Deployment(seed=seed, key_bits=256, t_batch=t_batch)
        nodes = build_paper_network(dep, node_overrides=overrides or {})
        dep.run()
        if setup is not None:
            setup(dep, nodes)
        wanted = target or best_cost("c", "d", 5)

        def query(qp):
            return qp.why(wanted, scope=5)

        def run_further():
            nodes["a"].insert(link("a", "z", 2))
            dep.run()
            if after_run is not None:
                after_run(dep, nodes)

        return dep, query, run_further
    return build


def _fork(_dep, nodes):
    nodes["b"].fork_log(keep_upto=3)


def _tamper(_dep, nodes):
    nodes["b"].tamper_entry(2, ("rewritten-history",))


def _rewrite_chain(_dep, nodes):
    nodes["b"].tamper_entry(2, ("rewritten-history",), recompute_chain=True)


def _checkpoint_then_run(dep, nodes):
    dep.checkpoint_all()
    nodes["a"].insert(link("a", "y", 4))
    dep.run()


def _truncate_past_the_floor(dep, nodes):
    """A standing auditor sets floors; ``b`` then truncates past them."""
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


def _fabricate(dep, nodes):
    nodes["b"].fabricate("+", cost("c", "d", "b", 1), "c")
    dep.run()


def _crash_after_mirroring(dep, nodes):
    nodes["b"].refuse_retrieve = False
    dep.replicate_deltas(replication_factor=2)
    nodes["b"].refuse_retrieve = True


def _lie_about_an_input(dep, nodes):
    nodes["b"].lie_insert(link("b", "d", 1))
    dep.run()


def _two_adversaries(dep, nodes):
    _fabricate(dep, nodes)
    nodes["e"].tamper_entry(1, ("gone",))


class _Misreceiver(MisreceivingNode):
    """Withholds its ack of the batch it misreceived, too."""

    withhold_ack = True


def _family(scenario, **kwargs):
    def build():
        _name, dep, query, run_further = scenario(**kwargs)
        return dep, query, run_further
    return build


CASES = {
    "clean": Case(_mincost()),
    "forking": Case(
        _mincost(overrides={"b": ForkingNode}, setup=_fork),
        adversaries="b", statuses={"b": PROVEN_FAULTY}, faulty="b"),
    # The peers refuse the consistency check, so only the
    # authenticators their logs carry expose the fork — whether they are
    # held before the forker is built or after.
    "fork-behind-withholders": Case(
        _mincost(overrides=withholding_peers(a=ForkingNode),
                 setup=fork_then_run_on),
        adversaries="a", statuses={"a": PROVEN_FAULTY}),
    "tampering": Case(
        _mincost(overrides={"b": TamperingNode}, setup=_tamper),
        adversaries="b", statuses={"b": PROVEN_FAULTY}, faulty="b"),
    "rewritten-chain": Case(
        _mincost(overrides={"b": TamperingNode}, setup=_rewrite_chain),
        adversaries="b", statuses={"b": PROVEN_FAULTY}, faulty="b"),
    "silent": Case(
        _mincost(overrides={"b": SilentNode}),
        statuses={"b": "unreachable"}),
    "checkpointed": Case(
        _mincost(seed=83, setup=_checkpoint_then_run),
        use_checkpoints=True),
    "over-truncated": Case(
        _mincost(seed=95, overrides={"b": OverTruncatingNode},
                 setup=_truncate_past_the_floor),
        # proven faulty, yet off the query's path: c's belief is seeded
        # from its own post-GC checkpoint
        adversaries="b", statuses={"b": PROVEN_FAULTY}),
    "fabricating": Case(
        _mincost(overrides={"b": FabricatorNode}, setup=_fabricate,
                 target=best_cost("c", "d", 1)),
        adversaries="b", faulty="b"),
    # The mirrors are refreshed with the run-on: a refresh keeps a
    # crashed node's stale view where a cold audit finds only stale
    # mirrors (test_incremental_audit.py pins that divergence).
    "mirrored-crash": Case(
        _mincost(seed=300, overrides={"b": SilentNode},
                 setup=_crash_after_mirroring,
                 after_run=_crash_after_mirroring)),
    "input-liar": Case(
        _mincost(seed=55, overrides={"b": InputLiarNode},
                 setup=_lie_about_an_input, target=best_cost("c", "d", 3)),
        adversaries="b"),
    "two-adversaries": Case(
        _mincost(seed=101, overrides={"b": FabricatorNode,
                                      "e": TamperingNode},
                 setup=_two_adversaries, target=best_cost("c", "a", 4)),
        adversaries="be", statuses={"e": PROVEN_FAULTY}, faulty="e"),
    # c logs b's first message, cost(@c,a,b,8), with the cost raised to
    # 58 under b's genuine authenticator; b's route to e runs through c.
    # b refuses the ack (and its log never says c acked 58), and the rcv
    # entry misses b's signed hash: c is convicted, acked or not.
    "misreceiving-acked": Case(
        _mincost(seed=7, overrides={"c": MisreceivingNode},
                 target=best_cost("b", "e", 3)),
        adversaries="c", statuses={"c": PROVEN_FAULTY}, faulty="c"),
    "misreceiving-withheld": Case(
        _mincost(seed=7, overrides={"c": _Misreceiver},
                 target=best_cost("b", "e", 3)),
        adversaries="c", statuses={"c": PROVEN_FAULTY}, faulty="c"),
    "chord": Case(_family(chord_scenario, n_nodes=6, rounds=1)),
    "bgp": Case(_family(bgp_scenario, n_updates=12)),
    "hadoop": Case(_family(hadoop_scenario, n_words=120)),
}


#: Verdicts the audit gets wrong today, pinned as strict xfails of the
#: verdict tests. The lie of "misreceiving-withheld" inside a
#: three-message batch (b's entries 9-11): a rcv entry carries neither
#: its index in the batch's range nor the range's gap metadata, so the
#: querier cannot re-chain it, and b's unacknowledged send convicts b.
HOLES = {
    "misreceiving-batched": Case(
        _mincost(seed=7, t_batch=0.05, overrides={"c": _Misreceiver},
                 target=cost("c", "a", "b", 58)),
        adversaries="c", statuses={"c": PROVEN_FAULTY}, faulty="c"),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


@pytest.fixture(params=sorted(CASES) + [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, reason="a rcv entry of a longer batch cannot be "
        "re-chained (ROADMAP)"))
    for name in sorted(HOLES)])
def verdict_case(request):
    return CASES.get(request.param) or HOLES[request.param]


def _views(qp, heads=True):
    return {str(n): (v.status, v.head_index) if heads else v.status
            for n, v in qp.mq._views.items()}


def _answer(result):
    """What two audits of one state must agree on, of one result."""
    return {
        "colors": fingerprint(result),
        "faulty": [str(n) for n in result.faulty_nodes()],
        "suspect": [str(n) for n in result.suspect_nodes()],
    }


def _cold_outcome(case, dep, query, batches=()):
    """Everything observable from one cold audit: *batches* are the node
    lists prefetched first, one batch each (none: lazy exploration)."""
    with case.processor(dep) as qp:
        for batch in batches:
            qp.prefetch(batch)
        return dict(_answer(query(qp)), views=_views(qp),
                    counters=qp.mq.stats.counters())


def _all_nodes(dep):
    return sorted(dep.nodes, key=str)


class TestVerdicts:
    def test_the_verdict_is_the_stated_one(self, verdict_case):
        case = verdict_case
        dep, query, _run_further = case.build()
        with case.processor(dep) as qp:
            views = qp.prefetch()
            result = query(qp)
        assert {str(n): v.status for n, v in views.items()
                if v.status != OK} == case.statuses
        assert [str(n) for n in result.faulty_nodes()] == case.faulty

    def test_red_lands_only_on_adversaries(self, verdict_case):
        case = verdict_case
        dep, query, _run_further = case.build()
        with case.processor(dep) as qp:
            views = qp.prefetch()
            result = query(qp)
        assert {str(v.node) for v in result.red_vertices()} \
            <= case.adversaries
        assert {str(n) for n, v in views.items()
                if v.status == PROVEN_FAULTY} <= case.adversaries

    def test_every_withheld_or_convicted_view_says_why(self, case):
        dep, _query, _run_further = case.build()
        with case.processor(dep) as qp:
            views = qp.prefetch()
        for node, view in views.items():
            if view.status == OK:
                assert view.replay is not None and view.replay.ok, node
            else:
                assert isinstance(view.verdict_reason, str) \
                    and view.verdict_reason, node


class TestColdAudits:
    def test_two_cold_audits_agree(self, case):
        dep, query, _run_further = case.build()
        first = _cold_outcome(case, dep, query)
        assert _cold_outcome(case, dep, query) == first

    def test_prefetch_matches_lazy_exploration(self, case):
        dep, query, _run_further = case.build()
        lazy = _cold_outcome(case, dep, query)
        eager = _cold_outcome(case, dep, query, batches=[_all_nodes(dep)])
        assert {k: eager[k] for k in ("colors", "faulty", "suspect")} \
            == {k: lazy[k] for k in ("colors", "faulty", "suspect")}
        assert lazy["views"] == {n: eager["views"][n] for n in lazy["views"]}

    def test_batch_order_is_canonical(self, case):
        dep, query, _run_further = case.build()
        nodes = _all_nodes(dep)
        forward = _cold_outcome(case, dep, query, batches=[nodes])
        assert _cold_outcome(case, dep, query,
                             batches=[nodes[::-1]]) == forward

    def test_batch_grouping_changes_nothing(self, case):
        # one node per batch, last node first: each node's peers are
        # built, and their logs held, before it
        dep, query, _run_further = case.build()
        nodes = _all_nodes(dep)
        together = _cold_outcome(case, dep, query, batches=[nodes])
        assert _cold_outcome(case, dep, query,
                             batches=[[n] for n in nodes[::-1]]) == together


class TestStandingAudits:
    def test_an_empty_refresh_changes_nothing(self, case):
        dep, query, _run_further = case.build()
        with case.processor(dep) as qp:
            qp.prefetch()
            built = dict(_answer(query(qp)), views=_views(qp))
            qp.refresh()
            assert dict(_answer(query(qp)), views=_views(qp)) == built

    def test_refresh_matches_a_cold_audit(self, case):
        dep, query, run_further = case.build()
        with case.processor(dep) as standing:
            standing.prefetch()
            query(standing)
            run_further()
            standing.refresh()
            refreshed = dict(_answer(query(standing)),
                             views=_views(standing, heads=False))
        with case.processor(dep) as cold:
            cold.prefetch()
            assert dict(_answer(query(cold)),
                        views=_views(cold, heads=False)) == refreshed


class TestCheckpointedAudits:
    def test_a_checkpoint_seeded_audit_is_the_full_audit_or_yellow(
            self, case):
        # every node checkpoints, then runs on; an audit seeded from the
        # checkpoints cannot see below them, so it may withhold judgment
        # (yellow) where the full audit decided, but never decide
        # otherwise — and a second one, after the first restored every
        # snapshot, answers alike
        dep, query, run_further = case.build()
        dep.checkpoint_all()
        run_further()
        with case.processor(dep) as full:
            colors = dict(fingerprint(query(full)))
        seeded = []
        for _audit in range(2):
            with QueryProcessor(dep, use_checkpoints=True) as qp:
                views = qp.prefetch()
                result = query(qp)
                seeded.append(dict(_answer(result), views=_views(qp)))
            assert {str(v.node) for v in result.red_vertices()} \
                <= case.adversaries
            assert {str(n) for n, v in views.items()
                    if v.status == PROVEN_FAULTY} <= case.adversaries
        first, second = seeded
        assert second == first
        for key, color in first["colors"]:
            assert color in (colors.get(key), "yellow"), key


def _refreshed_against_cold(seed, overrides, misbehave):
    """Build a standing audit, let ``b`` *misbehave* (the deployment runs
    on), refresh, and compare with a cold audit of the new state."""
    dep = Deployment(seed=seed, key_bits=256)
    nodes = build_paper_network(dep, node_overrides=overrides)
    dep.run()
    target = best_cost("c", "d", 5)
    with QueryProcessor(dep) as standing:
        standing.why(target)
        misbehave(dep, nodes)
        standing.refresh()
        refreshed = dict(_answer(standing.why(target)),
                         views=_views(standing, heads=False))
    with QueryProcessor(dep) as cold:
        cold.prefetch(list(standing.mq._views))
        assert dict(_answer(cold.why(target)),
                    views=_views(cold, heads=False)) == refreshed
    return refreshed


class TestRefreshAfterMisbehaviour:
    def test_forking_after_build(self):
        def misbehave(dep, nodes):
            nodes["b"].fork_log(keep_upto=3)
            nodes["a"].insert(link("a", "z", 2))
            dep.run()
        refreshed = _refreshed_against_cold(93, {"b": ForkingNode},
                                            misbehave)
        assert "b" in refreshed["faulty"]

    def test_tampering_after_build(self):
        def misbehave(dep, nodes):
            # Grow the log first, then rewrite an entry *in the new
            # suffix*: a refresh re-fetches only past the verified head,
            # so only suffix tampering is visible to an extend.
            nodes["a"].insert(link("a", "z", 2))
            nodes["b"].insert(link("b", "w", 3))
            dep.run()
            nodes["b"].tamper_entry(len(nodes["b"].log),
                                    ("rewritten-history",))
        refreshed = _refreshed_against_cold(94, {"b": TamperingNode},
                                            misbehave)
        assert "b" in refreshed["faulty"]
