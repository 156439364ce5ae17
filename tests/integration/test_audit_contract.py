"""The serial audit's contract, stated once over the adversary corpus.

A querier has one build path — fetch, verify + replay, commit, one node
at a time, inline. This module states what an audit through it
promises, checked on every row of ``scenarios.CORPUS``: MinCost under
each lie the tests stage (the adversaries of the paper's Section 2.1,
one head-of-log edit per conviction check, checkpoints, GC and mirrors)
and the three application families at small size. On every row:

* the verdict is the row's — the views that are not ``ok``, why each
  one is not, the nodes the query convicts and the nodes it suspects —
  and red lands only on the row's adversaries;
* every view that withholds judgment or convicts says why, and a view
  convicted because its replay diverged keeps that failed replay;
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

A promise a row's ``holes`` name is one the audit breaks on that row
today: its tests are strict xfails there. The promises that only read
share one build per row; the two that run the deployment on build
their own.
``TestRefreshAfterMisbehaviour`` adds the cases where the adversary acts
*between* the build and the refresh (a fork below the cached head is
``test_incremental_audit.py``'s).
"""

import pytest

from repro.apps.mincost import best_cost, link
from repro.snp import QueryProcessor
from repro.snp.adversary import ForkingNode, TamperingNode
from repro.snp.microquery import OK, PROVEN_FAULTY

from scenarios import CORPUS, fingerprint, paper_network


@pytest.fixture(scope="module", params=sorted(CORPUS))
def row(request):
    return CORPUS[request.param]


@pytest.fixture(scope="module")
def built(row):
    """One build of *row* for the promises that only read it."""
    dep, query, _run_further = row.build()
    return dep, query


def _holed(promise):
    """*row*, for the tests of *promise*: strict xfails on a row whose
    ``holes`` name it."""
    @pytest.fixture
    def fixture(request, row):
        if promise in row.holes:
            request.applymarker(pytest.mark.xfail(
                strict=True, reason=row.holes[promise]))
        return row
    return fixture


verdict_row = _holed("verdict")
seeded_row = _holed("checkpoint-seeded")


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


def _cold_outcome(row, dep, query, batches=()):
    """Everything observable from one cold audit: *batches* are the node
    lists prefetched first, one batch each (none: lazy exploration)."""
    qp = row.processor(dep)
    for batch in batches:
        qp.prefetch(batch)
    return dict(_answer(query(qp)), views=_views(qp),
                counters=qp.mq.stats.counters())


def _all_nodes(dep):
    return sorted(dep.nodes, key=str)


def _not_ok(views):
    """``{node: status}`` of the views that are not ``ok``."""
    return {str(n): v.status for n, v in views.items() if v.status != OK}


def _convicted(views):
    return {str(n) for n, v in views.items() if v.status == PROVEN_FAULTY}


class TestVerdicts:
    def test_the_verdict_is_the_stated_one(self, verdict_row, built):
        dep, query = built
        qp = verdict_row.processor(dep)
        views = qp.prefetch()
        result = query(qp)
        assert _not_ok(views) == {node: status for node, (status, _reason)
                                  in verdict_row.views.items()}
        assert [str(n) for n in result.faulty_nodes()] == verdict_row.faulty
        assert [str(n) for n in result.suspect_nodes()] \
            == verdict_row.suspects
        for node, (_status, reason) in verdict_row.views.items():
            assert reason in views[node].verdict_reason, node

    def test_red_lands_only_on_adversaries(self, verdict_row, built):
        dep, query = built
        qp = verdict_row.processor(dep)
        views = qp.prefetch()
        result = query(qp)
        assert {str(v.node) for v in result.red_vertices()} \
            <= verdict_row.adversaries
        assert _convicted(views) <= verdict_row.adversaries

    def test_every_withheld_or_convicted_view_says_why(self, row, built):
        dep, _query = built
        for node, view in row.processor(dep).prefetch().items():
            if view.status == OK:
                assert view.replay is not None and view.replay.ok, node
                continue
            assert isinstance(view.verdict_reason, str) \
                and view.verdict_reason, node
            if view.replay is not None or "diverged" in view.verdict_reason:
                assert view.replay is not None and not view.replay.ok, node


class TestColdAudits:
    def test_two_cold_audits_agree(self, row, built):
        dep, query = built
        first = _cold_outcome(row, dep, query)
        assert _cold_outcome(row, dep, query) == first

    def test_prefetch_matches_lazy_exploration(self, row, built):
        dep, query = built
        lazy = _cold_outcome(row, dep, query)
        eager = _cold_outcome(row, dep, query, batches=[_all_nodes(dep)])
        assert {k: eager[k] for k in ("colors", "faulty", "suspect")} \
            == {k: lazy[k] for k in ("colors", "faulty", "suspect")}
        assert lazy["views"] == {n: eager["views"][n] for n in lazy["views"]}

    def test_batch_order_is_canonical(self, row, built):
        dep, query = built
        nodes = _all_nodes(dep)
        forward = _cold_outcome(row, dep, query, batches=[nodes])
        assert _cold_outcome(row, dep, query,
                             batches=[nodes[::-1]]) == forward

    def test_batch_grouping_changes_nothing(self, row, built):
        # one node per batch, last node first: each node's peers are
        # built, and their logs held, before it
        dep, query = built
        nodes = _all_nodes(dep)
        together = _cold_outcome(row, dep, query, batches=[nodes])
        assert _cold_outcome(row, dep, query,
                             batches=[[n] for n in nodes[::-1]]) == together


class TestStandingAudits:
    def test_an_empty_refresh_changes_nothing(self, row, built):
        dep, query = built
        qp = row.processor(dep)
        qp.prefetch()
        before = dict(_answer(query(qp)), views=_views(qp))
        qp.refresh()
        assert dict(_answer(query(qp)), views=_views(qp)) == before

    def test_refresh_matches_a_cold_audit(self, row):
        dep, query, run_further = row.build()
        standing = row.processor(dep)
        standing.prefetch()
        query(standing)
        run_further()
        standing.refresh()
        refreshed = dict(_answer(query(standing)),
                         views=_views(standing, heads=False))
        cold = row.processor(dep)
        cold.prefetch()
        assert dict(_answer(query(cold)),
                    views=_views(cold, heads=False)) == refreshed


class TestCheckpointedAudits:
    def test_a_checkpoint_seeded_audit_is_the_full_audit_or_yellow(
            self, seeded_row):
        # every node checkpoints, then runs on; an audit seeded from the
        # checkpoints cannot see below them, so it may withhold judgment
        # (yellow) where the full audit decided, but never decide
        # otherwise — and a second one, after the first restored every
        # snapshot, answers alike
        dep, query, run_further = seeded_row.build()
        dep.checkpoint_all()
        run_further()
        colors = dict(fingerprint(query(seeded_row.processor(dep))))
        seeded = []
        for _audit in range(2):
            qp = QueryProcessor(dep, use_checkpoints=True)
            views = qp.prefetch()
            result = query(qp)
            seeded.append(dict(_answer(result), views=_views(qp)))
            assert {str(v.node) for v in result.red_vertices()} \
                <= seeded_row.adversaries
            assert _convicted(views) <= seeded_row.adversaries
        first, second = seeded
        assert second == first
        for key, color in first["colors"]:
            assert color in (colors.get(key), "yellow"), key


def _refreshed_against_cold(seed, overrides, misbehave):
    """Build a standing audit, let ``b`` *misbehave* (the deployment runs
    on), refresh, and compare with a cold audit of the new state."""
    dep, nodes = paper_network(seed, overrides)
    target = best_cost("c", "d", 5)
    standing = QueryProcessor(dep)
    standing.why(target)
    misbehave(dep, nodes)
    standing.refresh()
    refreshed = dict(_answer(standing.why(target)),
                     views=_views(standing, heads=False))
    cold = QueryProcessor(dep)
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
