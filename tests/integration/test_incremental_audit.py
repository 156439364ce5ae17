"""The incremental audit pipeline: delta retrieval, extendable views,
refresh semantics, the evidence-boundary bugfix, the pending-skip
registry and the cursored consistency scan.

The invariant under test: after ``refresh()``, a querier's views answer
exactly like a cold querier's would (same tuples, same verdicts), while
having fetched, verified and replayed only the log suffix past each
view's previously verified head — and a node that forks its log after a
cached head is *proven* faulty by the refresh, not silently re-verified.
"""

import pytest

from repro.apps.mincost import best_cost, link
from repro.metrics import QueryStats
from repro.snp import QueryProcessor
from repro.snp.adversary import ForkingNode, SilentNode, TamperingNode
from repro.snp.evidence import Authenticator
from repro.snp.log import encode_contents
from repro.snp.build import settle
from repro.snp.microquery import MicroQuerier, _Ledger
from repro.snp.snoopy import LogCopy
from repro.snp.replay import check_against_authenticator, verify_segment_hashes
from repro.util.errors import LogVerificationError

from scenarios import APPLICATION_SCENARIOS, fork_then_run_on, \
    paper_network, withholding_peers


# ------------------------------------------------------------ delta retrieve


class TestDeltaRetrieve:
    def test_suffix_anchors_at_previous_head(self):
        dep, nodes = paper_network(21)
        node = nodes["b"]
        head = len(node.log)
        nodes["a"].insert(link("a", "z", 2))
        dep.run()
        response = node.retrieve(since_index=head)
        assert response.start_index == head + 1
        assert response.start_hash == node.log.hash_at(head)
        assert [e.index for e in response.entries] == \
            list(range(head + 1, len(node.log) + 1))

    def test_empty_suffix_still_carries_fresh_head_auth(self):
        dep, nodes = paper_network(21)
        node = nodes["c"]
        head = len(node.log)
        response = node.retrieve(since_index=head)
        assert response.entries == []
        assert response.start_index == head + 1
        assert response.start_hash == node.log.head_hash()
        assert response.head_auth.index == head

    def test_since_beyond_head_falls_back_to_full_log(self):
        dep, nodes = paper_network(21)
        node = nodes["c"]
        response = node.retrieve(since_index=len(node.log) + 10)
        assert response.start_index == 1
        assert len(response.entries) == len(node.log)

    def test_mirror_served_suffix(self):
        dep, nodes = paper_network(21)
        head = 3
        dep.replicate_deltas()
        full = dep.find_mirror("b")
        sliced = dep.find_mirror("b", since_index=head)
        assert sliced.start_index == head + 1
        assert sliced.start_hash == full.entries[head - 1].entry_hash
        assert len(sliced.entries) == len(full.entries) - head
        # A replica no longer than the verified head has nothing to serve.
        assert dep.find_mirror(
            "b", since_index=full.head_auth.index
        ) is None

    def test_log_copy_unanchorable_serves_the_whole_copy(self):
        dep, nodes = paper_network(21)
        node = nodes["b"]
        dep.checkpoint_all()
        nodes["a"].insert(link("a", "z", 2))
        dep.run()
        partial = node.retrieve(from_checkpoint=True)
        assert partial.start_index > 4
        copy = LogCopy("b")
        assert copy.store(partial)
        # The stored copy starts past entry 4; it cannot anchor a
        # continuation at entry 3, so the whole copy is served for the
        # querier to verify from scratch — as a fresh response, still
        # starting at its checkpoint.
        served = copy.serve(3)
        assert served is not partial and served.entries is not copy.entries
        assert (served.start_index, served.start_hash, served.entries) \
            == (partial.start_index, partial.start_hash, partial.entries)
        assert served.seed is partial.seed is not None


# ---------------------------------------------------------- refresh: views


class TestRefreshStaleness:
    def test_new_tuples_visible_after_refresh(self):
        dep, nodes = paper_network(21)
        qp = QueryProcessor(dep)
        qp.why(best_cost("c", "d", 5))
        qp.mq.view_of("a")  # cache a's view before the system runs on
        nodes["a"].insert(link("a", "z", 2))
        dep.run()
        # Without refresh the view is stale: the new route is missing.
        with pytest.raises(Exception):
            qp.why(best_cost("a", "z", 2))
        epoch = qp.refresh()
        assert epoch == 1
        result = qp.why(best_cost("a", "z", 2))
        assert result.is_clean()

    def test_requery_fetches_only_the_suffix(self):
        dep, nodes = paper_network(21)
        qp = QueryProcessor(dep)
        cold = qp.why(best_cost("c", "d", 5)).stats
        nodes["a"].insert(link("a", "z", 2))
        dep.run()
        before = qp.mq.stats.copy()
        qp.refresh()
        qp.why(best_cost("c", "d", 5))
        requery = qp.mq.stats.delta_since(before)
        # A fresh querier pays the full (now longer) logs.
        cold_after = QueryProcessor(dep).why(best_cost("c", "d", 5)).stats
        assert requery.delta_fetches > 0
        assert 0 < requery.log_bytes < cold.log_bytes
        assert requery.log_bytes < cold_after.log_bytes
        assert 0 < requery.events_replayed < cold_after.events_replayed

    @pytest.mark.parametrize("family", sorted(APPLICATION_SCENARIOS))
    def test_requery_fetches_only_the_suffix_on_applications(self, family):
        """The same inequality on chord@10, bgp@24 and hadoop@300: a
        standing auditor's refresh + re-query costs strictly less than a
        cold query of the grown deployment."""
        _name, dep, query, run_further = APPLICATION_SCENARIOS[family]()
        qp = QueryProcessor(dep)
        query(qp)
        run_further()
        before = qp.mq.stats.copy()
        qp.refresh()
        query(qp)
        requery = qp.mq.stats.delta_since(before)
        cold_qp = QueryProcessor(dep)
        query(cold_qp)
        cold_after = cold_qp.mq.stats
        assert requery.delta_fetches > 0
        assert 0 < requery.log_bytes < cold_after.log_bytes
        assert 0 < requery.events_replayed < cold_after.events_replayed

    def test_refreshed_views_match_cold_views(self):
        dep, nodes = paper_network(21)
        qp = QueryProcessor(dep)
        qp.why(best_cost("c", "d", 5))
        # Deleting c's direct link reroutes the provenance through b
        # (bestCost stays 5: c→b is 2, b→d is 3).
        nodes["c"].delete(link("c", "d", 5))
        dep.run()
        qp.refresh()
        warm = qp.why(best_cost("c", "d", 5))
        cold = QueryProcessor(dep).why(best_cost("c", "d", 5))
        assert {v.key() for v in warm.vertices()} == \
            {v.key() for v in cold.vertices()}
        assert warm.is_clean() and cold.is_clean()

    def test_noop_refresh_fetches_no_bytes_and_keeps_views(self):
        dep, nodes = paper_network(21)
        qp = QueryProcessor(dep)
        qp.why(best_cost("c", "d", 5))
        view = qp.mq.view_of("c")
        before = qp.mq.stats.copy()
        qp.refresh()
        delta = qp.mq.stats.delta_since(before)
        assert delta.log_bytes == 0
        assert delta.events_replayed == 0
        assert delta.refreshes > 0
        assert qp.mq.view_of("c") is view

    def test_refresh_recovers_previously_silent_node(self):
        dep, nodes = paper_network(21, overrides={"b": SilentNode})
        qp = QueryProcessor(dep)
        assert qp.why(best_cost("c", "d", 5)).yellow_vertices()
        nodes["b"].refuse_retrieve = False
        qp.refresh()
        assert qp.why(best_cost("c", "d", 5)).is_clean()

    def test_refresh_keeps_stale_view_when_node_goes_silent(self):
        dep, nodes = paper_network(21)
        qp = QueryProcessor(dep)
        qp.why(best_cost("c", "d", 5))
        view = qp.mq.view_of("b")
        nodes["b"].retrieve = lambda *a, **k: None  # node stops answering
        refreshed = qp.mq.refresh("b")
        assert refreshed is view
        assert refreshed.status == "ok"

    def test_stale_view_miss_is_yellow_not_red(self):
        # Red means *proof*: a correct node whose cached view simply does
        # not extend to newer activity (here: kept stale through a refresh
        # while unreachable) must not be flagged for vertices that
        # postdate its verified head.
        dep, nodes = paper_network(21)
        qp = QueryProcessor(dep)
        qp.why(best_cost("c", "d", 5))
        nodes["a"].insert(link("a", "b", 1))  # new traffic toward b
        dep.run()
        nodes["b"].retrieve = lambda *a, **k: None
        qp.refresh()
        result = qp.effects(link("a", "b", 1), node="a", scope=4)
        assert not [v for v in result.red_vertices() if v.node == "b"]
        assert [v for v in result.yellow_vertices() if v.node == "b"]

    def test_refresh_does_not_recount_verified_evidence_as_skipped(self):
        dep, nodes = paper_network(21)
        qp = QueryProcessor(dep)
        qp.why(best_cost("c", "d", 5))
        qp.refresh()  # evidence from the build is memoized, not re-skipped
        before = qp.mq.stats.copy()
        qp.refresh()
        delta = qp.mq.stats.delta_since(before)
        assert delta.auth_checks_skipped == 0
        # ... and already-verified consistency evidence is not re-signed:
        # only the fresh per-node head authenticators need verification.
        assert delta.signatures_verified == len(qp.mq._views)


class TestViewHeadAgreement:
    """A view's head is the head of the last response verified
    for it, cold, across an empty refresh and across a growing one."""

    def test_head_is_the_last_verified_responses_head(self, monkeypatch):
        last_response = {}
        finalize = MicroQuerier._finalize

        def recording_finalize(mq, job):
            if job.response is not None:
                last_response[job.node] = job.response
            return finalize(mq, job)

        monkeypatch.setattr(MicroQuerier, "_finalize", recording_finalize)
        dep, nodes = paper_network(seed=23)

        def assert_heads_agree(qp):
            assert sorted(qp.mq._views) == sorted(last_response)
            for node, view in qp.mq._views.items():
                assert view.status == "ok"
                response = last_response[node]
                hashes = verify_segment_hashes(
                    response, encode_contents(response.entries))
                head = (response.head_index, hashes[-1] if response.entries
                        else response.start_hash)
                assert (view.head_index, view.head_hash) == head
            return {n: (v.head_index, v.head_hash)
                    for n, v in qp.mq._views.items()}

        qp = QueryProcessor(dep)
        qp.prefetch()
        built = assert_heads_agree(qp)
        qp.refresh()   # nothing appended: every delta is empty
        assert not any(r.entries for r in last_response.values())
        assert assert_heads_agree(qp) == built
        nodes["a"].insert(link("a", "z", 2))
        dep.run()
        qp.refresh()
        assert any(r.entries for r in last_response.values())
        advanced = assert_heads_agree(qp)
        assert advanced != built
        assert all(advanced[n][0] >= built[n][0] for n in built)


# ------------------------------------------------------------ refresh: forks


class TestRefreshForkDetection:
    def test_fork_after_cached_head_is_proven_faulty(self):
        dep, nodes = paper_network(21, overrides={"b": ForkingNode})
        qp = QueryProcessor(dep)
        qp.why(best_cost("c", "d", 5))
        head = qp.mq.view_of("b").head_index
        # b rewrites history below the verified head and keeps operating,
        # so its replacement log grows past the old head on a new chain.
        nodes["b"].fork_log(keep_upto=head - 4)
        nodes["b"].insert(link("b", "q", 4))
        dep.run()
        view = qp.mq.refresh("b")
        assert view.status == "proven-faulty"
        assert "fork" in view.verdict_reason

    def test_conviction_by_another_nodes_log_is_a_refresh_change(self):
        # a forks after the build, behind peers that withhold the
        # consistency check: only b's refreshed log, carrying a's
        # new-branch authenticators, tells. Refreshing b alone convicts a
        # against the chain its view verified, and says so.
        dep, nodes = paper_network(
            seed=77, overrides=withholding_peers(a=ForkingNode))
        qp = QueryProcessor(dep)
        qp.prefetch()
        version = qp.mq.version
        fork_then_run_on(dep, nodes)
        qp.refresh("b")
        assert qp.mq._views["a"].status == "proven-faulty"
        assert "does not match the log" in qp.mq._views["a"].verdict_reason
        assert qp.last_refresh_changed == {"a", "b"}
        assert qp.mq.version > version

    def test_fork_to_shorter_log_is_proven_faulty(self):
        dep, nodes = paper_network(21, overrides={"b": ForkingNode})
        qp = QueryProcessor(dep)
        qp.why(best_cost("c", "d", 5))
        nodes["b"].fork_log(keep_upto=3)
        view = qp.mq.refresh("b")
        assert view.status == "proven-faulty"

    def test_proven_faulty_verdict_survives_refresh(self):
        dep, nodes = paper_network(21, overrides={"b": TamperingNode})
        nodes["b"].tamper_entry(2, ("tampered",))
        qp = QueryProcessor(dep)
        view = qp.mq.view_of("b")
        assert view.status == "proven-faulty"
        assert qp.mq.refresh("b") is view

    def test_macroquery_after_fork_refresh_flags_node(self):
        dep, nodes = paper_network(21, overrides={"b": ForkingNode})
        qp = QueryProcessor(dep)
        qp.why(best_cost("c", "d", 5))
        head = qp.mq.view_of("b").head_index
        nodes["b"].fork_log(keep_upto=head - 4)
        nodes["b"].insert(link("b", "q", 4))
        dep.run()
        qp.refresh()
        result = qp.why(best_cost("c", "d", 5))
        assert "b" in result.faulty_nodes()


# ----------------------------------------------- evidence boundary (bugfix)


class TestEvidenceBoundary:
    def _segment(self, node, since):
        response = node.retrieve(since_index=since)
        return response, verify_segment_hashes(
            response, encode_contents(response.entries))

    def test_anchor_authenticator_is_checked_not_skipped(self):
        # an empty delta's last entry is its anchor: a head for it is
        # checked against the anchor hash; over entries, an anchor head
        # signs none of them, so it is refused
        dep, nodes = paper_network(21)
        node = nodes["b"]
        head = len(node.log)
        from repro.snp.evidence import sign_authenticator
        for since in (head, 5):
            response, hashes = self._segment(node, since=since)
            entry = node.log.entry(since)
            good = sign_authenticator(node.identity, since, entry.timestamp,
                                      entry.entry_hash)
            bad = sign_authenticator(node.identity, since, entry.timestamp,
                                     b"\x00" * 32)
            if since == head:
                assert response.entries == []
                check_against_authenticator(response, hashes, good)
                with pytest.raises(LogVerificationError,
                                   match="does not match the log"):
                    check_against_authenticator(response, hashes, bad)
            else:
                with pytest.raises(LogVerificationError,
                                   match=f"ends at {head} but its head "
                                         "authenticator covers 5"):
                    check_against_authenticator(response, hashes, good)

    def test_pre_anchor_evidence_is_owed_and_counted_once(self):
        dep, nodes = paper_network(21)
        node = nodes["b"]
        response, _hashes = self._segment(node, since=5)
        entry = node.log.entry(2)
        from repro.snp.evidence import sign_authenticator
        old = sign_authenticator(node.identity, 2, entry.timestamp,
                                 entry.entry_hash)
        ledger, stats = _Ledger(), QueryStats()
        for _ in range(2):
            settle("b", [old], response.hash_at, response.head_index,
                   ledger, 0, stats)
        assert stats.auth_checks_skipped == 1
        assert list(ledger.behind.values()) == [old]

    def test_checkpoint_query_reports_skipped_evidence(self):
        dep, nodes = paper_network(21)
        dep.checkpoint_all()
        nodes["a"].insert(link("a", "z", 2))
        dep.run()
        qp = QueryProcessor(dep, use_checkpoints=True)
        result = qp.why(best_cost("c", "d", 5))
        # Evidence below the checkpoint anchors cannot be compared against
        # the partial segments; the loss must be visible, not silent.
        assert result.stats.auth_checks_skipped > 0


class TestPendingSkippedAuthenticators:
    """Evidence below a partial-segment anchor is remembered, not lost:
    a later full build retroactively checks it."""

    def _checkpointed_querier(self, monkeypatch, seed=85):
        dep, nodes = paper_network(seed=seed)
        dep.checkpoint_all()
        nodes["a"].insert(link("a", "y", 4))
        dep.run()
        # The on-demand anchoring fetch (PR 6) would repay the pending
        # skips at batch end; stub it out so the registry itself — what
        # these tests pin — stays observable.
        monkeypatch.setattr(MicroQuerier, "_fetch_anchor",
                            lambda mq, node_id: None)
        qp = QueryProcessor(dep, use_checkpoints=True)
        qp.why(best_cost("c", "d", 5))
        return dep, nodes, qp

    @staticmethod
    def _indebted(qp):
        return [node for node, ledger in qp.mq._ledgers.items()
                if ledger.behind]

    def test_skips_are_recorded_with_peer_and_index(self, monkeypatch):
        _dep, _nodes, qp = self._checkpointed_querier(monkeypatch)
        assert qp.mq.stats.auth_checks_skipped > 0
        recorded = {
            node: qp.mq.pending_skipped(node)
            for node in self._indebted(qp)
        }
        assert recorded  # something below an anchor was remembered
        for node, pairs in recorded.items():
            for peer, index in pairs:
                assert peer == node  # signed by the node under audit
                assert index >= 1

    def test_full_build_recovers_pending_skips(self, monkeypatch):
        _dep, _nodes, qp = self._checkpointed_querier(monkeypatch)
        node = self._indebted(qp)[0]
        owed = len(qp.mq.pending_skipped(node))
        before = qp.mq.stats.auth_checks_recovered
        qp.mq.use_checkpoints = False  # next build covers from entry 1
        qp.mq.invalidate(node)
        view = qp.mq.view_of(node)
        assert view.status == "ok"
        assert qp.mq.stats.auth_checks_recovered >= before + owed
        assert node not in self._indebted(qp)

    def test_mismatching_pending_authenticator_convicts(self, monkeypatch):
        dep, _nodes, qp = self._checkpointed_querier(monkeypatch)
        node = "b"
        identity = dep.identity_of(node)
        forged = Authenticator(node, 1, 0.0, "f" * 64, None)
        forged.signature = identity.sign(forged.payload())
        qp.mq._ledgers[node].behind[bytes(forged.signature)] = forged
        qp.mq.use_checkpoints = False
        qp.mq.invalidate(node)
        view = qp.mq.view_of(node)
        # The node validly signed an (index, hash) that is not on its
        # chain — retroactively checking the remembered authenticator is
        # what exposes the equivocation.
        assert view.status == "proven-faulty"
        assert "authenticator" in view.verdict_reason


# ------------------------------------------- incremental consistency scan


class TestConsistencyCursor:
    def test_node_side_cursor_slices_new_evidence(self):
        dep, nodes = paper_network(seed=95)
        holder, about = "c", "b"
        full = nodes[holder].authenticators_about(about)
        assert full  # the network exchanged messages
        assert nodes[holder].authenticators_about(about, since=len(full)) \
            == []
        tail = nodes[holder].authenticators_about(about, since=1)
        assert tail == full[1:]

    def test_deployment_cursor_round_trip(self):
        dep, nodes = paper_network(seed=96)
        first, cursor = dep.collect_authenticators_about_since("b", None)
        assert first and first == [
            auth for node in dep.nodes.values() if node.node_id != "b"
            for auth in node.authenticators_about("b")]
        again, cursor2 = dep.collect_authenticators_about_since("b", cursor)
        assert again == []
        assert cursor2 == cursor
        # New traffic toward b produces new evidence — and the cursor
        # yields exactly the complement of what was already scanned.
        nodes["a"].insert(link("a", "b", 1))
        dep.run()
        fresh, cursor3 = dep.collect_authenticators_about_since("b", cursor)
        assert fresh
        everything, _ = dep.collect_authenticators_about_since("b", None)
        assert len(first) + len(fresh) == len(everything)
        sig = lambda auths: {bytes(a.signature) for a in auths}  # noqa: E731
        assert sig(first) | sig(fresh) == sig(everything)
        assert dep.collect_authenticators_about_since("b", cursor3)[0] == []

    def test_refresh_scans_only_new_evidence(self):
        dep, nodes = paper_network(seed=97)
        qp = QueryProcessor(dep)
        qp.why(best_cost("c", "d", 5))
        # The cold build committed a cursor per ok view; with no new
        # traffic, a refresh collects nothing for the consistency check.
        for node_id, view in qp.mq._views.items():
            if view.status != "ok":
                continue
            cursor = qp.mq._ledgers[node_id].cursor
            assert dep.collect_authenticators_about_since(
                node_id, cursor)[0] == []

    def test_cursor_reset_on_invalidate(self):
        dep, _nodes = paper_network(seed=98)
        qp = QueryProcessor(dep)
        qp.why(best_cost("c", "d", 5))
        assert any(ledger.cursor for ledger in qp.mq._ledgers.values())
        qp.mq.invalidate()
        assert not any(ledger.cursor for ledger in qp.mq._ledgers.values())


class TestReplayBookkeeping:
    def test_a_per_node_replay_keeps_no_bookkeeping_for_its_peers(self):
        # A node's replay drives only that node: the send vertices its
        # receipts create for peers are read by no event it replays, so
        # however often a standing audit refreshes they are filed in
        # neither the unacked table nor the no-predecessor set
        _name, dep, query, run_further = APPLICATION_SCENARIOS["chord"](
            n_nodes=8)
        qp = QueryProcessor(dep)
        qp.prefetch()
        query(qp)
        for _round in range(3):
            run_further()
            qp.refresh()
        views = qp.prefetch()
        assert all(view.status == "ok" for view in views.values())
        for node, view in views.items():
            gca = view.replay.gca
            assert set(gca.machines) == {node}
            assert set(gca._unacked) <= {node}
            assert {gca.graph.vertex(v).node for v in gca._nopreds} \
                <= {node}
