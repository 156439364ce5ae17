"""Checkpoint GC: the retention handshake keeps logs bounded while the
audit semantics survive truncation.

The invariants under test (ISSUE 5):

* an honest GC'd node stays green — standing auditors keep delta-
  refreshing across the floor, cold builds seed from the anchor
  checkpoint, and nothing turns red;
* a GC'd prefix only ever turns verdicts into honest yellow — a cold
  build below the floor resolves unreachable history as unresolved,
  never as a silent green and never as an unprovable red;
* an over-eager truncator (discards entries it signed a floor for) is
  convicted the moment a full build observes the missing coverage;
* a floor-liar (advertises a floor above a live auditor's verified
  head) is convicted at handshake time from the signed evidence alone;
* pre-GC convictions remain reproducible: signed proof does not expire;
* mirrors participate in the same floors, and a crashed origin's view
  is still served — checkpoint-anchored — from its GC'd mirror;
* post-GC, a full build and a checkpoint-mode build see the same log.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.apps.mincost import best_cost, build_paper_network, link
from repro.crypto.hashing import content_digest
from repro.snp import Deployment, QueryProcessor
from repro.snp.adversary import (
    FloorLiarNode, ForkingNode, OverTruncatingNode,
)
from repro.service import ServicePusher
from repro.service.framing import FrameDecoder, encode_frame
from repro.service.monitor import MonitorState
from repro.snp.evidence import sign_authenticator, sign_retention_floor
from repro.snp.microquery import OK, PROVEN_FAULTY, UNREACHABLE, MicroQuerier
from repro.util.errors import ConfigurationError
from repro.util.serialization import canonical_bytes

from scenarios import app_deployments, fingerprint, forged_checkpoint, \
    run_chord, withholding_peers


def _net(seed, overrides=None):
    dep = Deployment(seed=seed, key_bits=256)
    nodes = build_paper_network(dep, node_overrides=overrides or {})
    dep.run()
    return dep, nodes


def _standing_auditor(dep):
    qp = QueryProcessor(dep)
    dep.register_querier(qp)
    qp.prefetch()
    return qp


class TestHandshake:
    def test_low_water_marks_are_min_over_auditors(self):
        dep, _nodes = _net(seed=400)
        qp1 = _standing_auditor(dep)
        qp2 = QueryProcessor(dep)
        dep.register_querier(qp2)
        qp2.mq.view_of("a")
        marks = dep.collect_low_water_marks()
        assert set(qp1.low_water_marks()) == set(dep.nodes)
        assert marks["a"] == min(qp1.low_water_marks()["a"],
                                 qp2.low_water_marks()["a"])
        # qp2 holds no view of b: only qp1 constrains it.
        assert marks["b"] == qp1.low_water_marks()["b"]

    def test_register_querier_requires_low_water_marks(self):
        dep, _nodes = _net(seed=401)
        with pytest.raises(ConfigurationError):
            dep.register_querier(object())

    def test_advertisements_are_signed_and_recorded(self):
        dep, _nodes = _net(seed=402)
        dep.checkpoint_all()
        _standing_auditor(dep)   # marks cover the checkpoints
        dep.run_gc(checkpoint=False)
        from repro.snp.evidence import verify_retention_floor
        for name in dep.nodes:
            advert = dep.retention_floors[name]
            assert verify_retention_floor(dep.public_key_of(name), advert)
            assert advert.floor_index == dep.advertised_floor_of(name)

    def test_floor_never_exceeds_auditor_marks(self):
        dep, nodes = _net(seed=403)
        dep.checkpoint_all()     # eligible anchors, below the marks
        qp = _standing_auditor(dep)
        nodes["a"].insert(link("a", "z", 2))
        dep.run()
        dep.checkpoint_all()     # newer anchors, above the stale marks
        # The auditor has NOT refreshed: every floor must stay at or
        # below its (now stale) verified heads.
        marks = qp.low_water_marks()
        dep.run_gc(checkpoint=False)
        for name in dep.nodes:
            assert 0 < dep.advertised_floor_of(name) <= marks[name]
        assert not dep.maintainer.retention_faults


class TestHonestGc:
    def _grown(self, seed=410):
        dep, nodes = _net(seed=seed)
        qp = _standing_auditor(dep)
        dep.checkpoint_all()
        nodes["a"].insert(link("a", "z", 2))
        dep.run()
        qp.refresh()
        return dep, nodes, qp

    def test_gc_reclaims_bytes_and_stays_green(self):
        dep, nodes, qp = self._grown()
        before = {n: node.log.size_bytes() for n, node in dep.nodes.items()}
        reclaimed = dep.run_gc(checkpoint=False)
        assert reclaimed > 0
        assert dep.gc_meter.gc_passes == 1
        assert dep.gc_meter.log_bytes_reclaimed == reclaimed
        assert dep.gc_meter.entries_discarded > 0
        after = {n: node.log.size_bytes() for n, node in dep.nodes.items()}
        assert sum(after.values()) < sum(before.values())
        assert any(node.log.start_index > 1 for node in dep.nodes.values())
        # The standing auditor keeps working across the truncation.
        nodes["b"].insert(link("b", "y", 9))
        dep.run()
        qp.refresh()
        result = qp.why(best_cost("c", "d", 5))
        assert result.is_clean()

    def test_cold_build_after_gc_is_checkpoint_seeded_and_green(self):
        dep, _nodes, _qp = self._grown(seed=411)
        dep.run_gc(checkpoint=False)
        cold = QueryProcessor(dep)
        result = cold.why(best_cost("c", "d", 5))
        assert not result.red_vertices()
        view = cold.mq.view_of("c")
        assert view.status == OK
        assert view.base_index == dep.nodes["c"].log.start_index
        assert view.base_index > 1

    def test_absence_below_the_floor_resolves_yellow_not_red(self):
        dep, nodes, qp = self._grown(seed=412)
        # A vertex the pre-GC auditor verified below the eventual floor:
        # the *closed* exist interval of the link a→z=2 costs, or any
        # vertex from the truncated prefix that is no longer extant.
        view_before = qp.mq.view_of("a")
        pre_vertices = [
            v for v in view_before.graph.vertices() if v.t_end is not None
        ]
        assert pre_vertices
        dep.run_gc(checkpoint=False)
        floor_t = dep.retention_floors["a"].floor_time
        gone = [v for v in pre_vertices if v.t < floor_t]
        assert gone, "expected closed intervals below the retention floor"
        cold = QueryProcessor(dep)
        from repro.provgraph.graph import _clone_vertex
        for vertex in gone:
            probe = _clone_vertex(vertex)
            resolved, color = cold.mq.resolve(probe)
            assert color != "red", (
                "absence below the GC floor must never be treated as "
                f"proof: {vertex.describe()} resolved {color}"
            )

    def test_enable_gc_cadence_bounds_logs(self):
        dep, nodes = _net(seed=413)
        qp = _standing_auditor(dep)
        dep.enable_gc(2.0)
        for k in range(3):
            nodes["a"].insert(link("a", f"x{k}", 3 + k))
            dep.run_until(dep.sim.now + 2.5)
            qp.refresh()
        dep.run()
        assert dep.gc_meter.gc_passes >= 3
        assert dep.gc_meter.log_bytes_reclaimed > 0
        with pytest.raises(ConfigurationError):
            dep.enable_gc(0)
        dep.disable_gc()


class TestSteadyState:
    """The storage story at application scale: the same phased chord@10
    run (six phases of one stabilization round + one lookup, a standing
    auditor refreshing after each) with and without a per-phase
    retention handshake, at one seed."""

    @staticmethod
    def _phased_ring(gc, n_nodes=10, phases=6, seed=7):
        scen = run_chord(n_nodes=n_nodes, rounds=1, lookups=2, seed=seed)
        dep, net = scen.deployment, scen.net
        with QueryProcessor(dep) as qp:
            if gc:
                dep.register_querier(qp)
            qp.prefetch()
            for phase in range(phases):
                net.stabilize(rounds=1)
                source = net.members[phase % len(net.members)][0]
                net.lookup(source, (net.size // 3 + phase) % net.size,
                           f"gc-arm-{phase}")
                qp.refresh()
                if gc:
                    dep.run_gc(checkpoint=True)
            log_bytes = [node.log.size_bytes()
                         for node in dep.nodes.values()]
            # One more lookup, a refresh to cover it, and a query.
            source = net.members[0][0]
            target = net.lookup(source, net.size // 3, "gc-arm-final")[0]
            qp.refresh()
            return dep, log_bytes, qp.why(target, node=source, scope=4)

    def test_gc_bounds_the_logs_and_both_audits_stay_clean(self):
        _dep, plain_bytes, plain_audit = self._phased_ring(gc=False)
        dep, gc_bytes, gc_audit = self._phased_ring(gc=True)
        # A dirty baseline would void the comparison; a dirty GC arm
        # means truncation corrupted a verdict on a healthy ring.
        assert not plain_audit.red_vertices()
        assert not gc_audit.red_vertices()
        assert not dep.maintainer.retention_faults
        assert dep.gc_meter.gc_passes == 6
        # ~30.2 KB/node without GC vs ~1.9 KB/node with it (15.9×).
        assert sum(plain_bytes) >= 2 * sum(gc_bytes)


class _MirrorClaimingTruncator(OverTruncatingNode):
    """An over-truncator whose responses claim to come from a replica,
    hoping for the querier's mirror exemption from the retention check.
    A response has no such field: where it came from is the querier's
    own knowledge."""

    def retrieve(self, from_checkpoint=False, since_index=None):
        response = super().retrieve(from_checkpoint, since_index)
        try:
            response.from_mirror = True
        except AttributeError:
            pass
        return response


def _over_truncated(node_cls):
    """The over-truncation scenario: ``b`` advertises an honest floor,
    then truncates below it. Returns the deployment, its nodes and the
    standing auditor whose pre-GC views supply probes."""
    dep, nodes = _net(seed=420, overrides={"b": node_cls})
    qp = _standing_auditor(dep)
    dep.checkpoint_all()               # the floor-eligible checkpoint
    nodes["a"].insert(link("a", "z", 2))
    dep.run()
    qp.refresh()
    dep.checkpoint_all()               # newer checkpoint, above marks
    nodes["b"].insert(link("b", "y", 9))
    dep.run()
    dep.run_gc(checkpoint=False)
    return dep, nodes, qp


class TestAdversarialGc:
    def test_over_eager_truncator_convicted(self):
        dep, nodes, qp = _over_truncated(OverTruncatingNode)
        advertised = dep.advertised_floor_of("b")
        assert nodes["b"].log.start_index > advertised, \
            "the adversary must actually truncate below its advertisement"
        # Over-truncation is not a handshake-time fault (the signed
        # advertisement itself was honest) ...
        assert dep.maintainer.retention_fault_of("b") is None
        # ... but any full build observes the missing coverage: proof.
        cold = QueryProcessor(dep)
        view = cold.mq.view_of("b")
        assert view.status == PROVEN_FAULTY
        assert "retention" in view.verdict_reason
        # Every vertex hosted on the violator resolves red — proof, not
        # suspicion (the standing auditor's pre-GC view supplies probes).
        from repro.provgraph.graph import _clone_vertex
        probe = _clone_vertex(
            next(iter(qp.mq.view_of("b").graph.vertices()))
        )
        _resolved, color = cold.mq.resolve(probe)
        assert color == "red"

    def test_a_response_cannot_claim_the_mirror_exemption(self):
        dep, _nodes, _qp = _over_truncated(_MirrorClaimingTruncator)
        with QueryProcessor(dep) as cold:
            view = cold.mq.view_of("b")
        assert view.status == PROVEN_FAULTY
        assert "retention" in view.verdict_reason
        # Through the daemon: the hello and one push, framed and decoded.
        pusher = ServicePusher(dep, "127.0.0.1", 1)  # builds messages only
        push, _cursors = pusher.build_push()
        decoder = FrameDecoder()
        state = MonitorState()
        [hello] = decoder.feed(encode_frame(pusher.hello_message()))
        state.ingest_hello(hello)
        [push] = decoder.feed(encode_frame(push))
        state.ingest_push(push)
        with QueryProcessor(state) as cold:
            view = cold.mq.view_of("b")
        assert view.status == PROVEN_FAULTY
        assert "retention" in view.verdict_reason

    def test_floor_liar_convicted_at_handshake(self):
        dep, nodes = _net(seed=421, overrides={"b": FloorLiarNode})
        qp = _standing_auditor(dep)
        dep.checkpoint_all()
        nodes["a"].insert(link("a", "z", 2))
        dep.run()                       # b's newest checkpoint > marks
        dep.run_gc(checkpoint=True)
        faults = dep.maintainer.retention_faults
        assert any(f["node"] == "b" for f in faults)
        fault = next(f for f in faults if f["node"] == "b")
        assert fault["advert"].floor_index > fault["mark"]
        # The conviction reaches every querier without trusting b again.
        qp.refresh()
        assert qp.mq.view_of("b").status == PROVEN_FAULTY
        cold = QueryProcessor(dep)
        assert cold.mq.view_of("b").status == PROVEN_FAULTY
        result = cold.why(best_cost("c", "d", 5))
        assert "b" in result.faulty_nodes()

    def test_honest_nodes_unaffected_by_a_convicted_liar(self):
        dep, nodes = _net(seed=422, overrides={"b": FloorLiarNode})
        _standing_auditor(dep)
        dep.checkpoint_all()
        nodes["a"].insert(link("a", "z", 2))
        dep.run()
        dep.run_gc()
        cold = QueryProcessor(dep)
        for name in dep.nodes:
            expected = PROVEN_FAULTY if name == "b" else OK
            assert cold.mq.view_of(name).status == expected

    def test_pre_gc_conviction_remains_reproducible(self):
        dep, nodes = _net(seed=423, overrides={"b": ForkingNode})
        qp = _standing_auditor(dep)
        assert qp.mq.view_of("b").status == OK
        nodes["b"].fork_log(keep_upto=3)
        nodes["b"].insert(link("b", "w", 8))
        dep.run()
        qp.refresh()
        assert qp.mq.view_of("b").status == PROVEN_FAULTY
        reason = qp.mq.view_of("b").verdict_reason
        # GC the honest nodes; the forker's conviction must survive both
        # the pass and later refreshes (signed proof does not expire).
        dep.run_gc()
        qp.refresh()
        view = qp.mq.view_of("b")
        assert view.status == PROVEN_FAULTY
        assert view.verdict_reason == reason

    def test_crashed_origin_served_from_gcd_mirror(self):
        dep, nodes = _net(seed=424)
        dep.enable_replication(2.0)
        qp = _standing_auditor(dep)
        dep.checkpoint_all()
        nodes["a"].insert(link("a", "z", 2))
        dep.run()                       # replication ships the checkpoints
        qp.refresh()
        dep.run_gc(checkpoint=False)
        assert dep.gc_meter.mirror_bytes_reclaimed > 0
        mirror = dep.find_mirror("a")
        assert mirror.seed is not None
        assert mirror.start_index == mirror.seed.index \
            == dep.advertised_floor_of("a")

        # Crash the origin: retrieve goes dark, wires are dropped.
        dep.drop_wires_to("a")
        dep.nodes["a"].retrieve = lambda **kwargs: None
        cold = QueryProcessor(dep)
        view = cold.mq.view_of("a")
        assert view.status == OK
        assert view.base_index == mirror.seed.index
        result = cold.why(best_cost("c", "d", 5))
        assert not result.red_vertices()
        del dep.nodes["a"].retrieve

    def test_a_mirror_serving_a_forged_checkpoint_is_a_bad_mirror(self):
        """The replica row of ``TestServedCheckpointBinding``: a GC'd
        mirror of ``c`` serves its floor ``chk`` with a forged base tuple
        in its snapshot, recommitted, while ``c`` is silent. The chain
        check catches the content, and a corrupt mirror is no evidence
        against the origin: ``c`` is unreachable (yellow), never red, and
        nothing is seeded."""
        dep, nodes = _net(seed=8)
        dep.enable_replication(2.0)
        qp = _standing_auditor(dep)
        dep.checkpoint_all()
        nodes["a"].insert(link("a", "z", 2))
        dep.run()
        qp.refresh()
        dep.run_gc(checkpoint=False)
        floor = dep.advertised_floor_of("c")
        copies = [n.mirror_of("c") for n in dep.nodes.values()
                  if n.mirror_of("c") is not None]
        assert copies and all(c.start_index == floor for c in copies)
        forged = link("c", "evil", 1)
        for copy in copies:
            copy.entries[0] = forged_checkpoint(copy.entries[0], {forged: 1})
        from repro.provgraph.graph import _clone_vertex
        probe = _clone_vertex(
            next(iter(qp.mq.view_of("c").graph.vertices())))
        dep.nodes["c"].retrieve = lambda **kwargs: None
        try:
            with QueryProcessor(dep) as cold:
                view = cold.mq.view_of("c")
                _resolved, color = cold.mq.resolve(probe)
        finally:
            del dep.nodes["c"].retrieve
        assert color == "yellow"
        assert view.status == UNREACHABLE
        assert view.verdict_reason.startswith("bad mirror: ")
        assert "content does not match its digest" in view.verdict_reason
        assert view.graph is None


class TestRetentionHardening:
    """Adversarial edge paths around the floor machinery: a stale
    checkpoint cannot be paired with a deeper suffix, a self-truncated
    origin cannot shrink a replica's evidence, checkable pending
    evidence is never tombstoned, and the GC cadence is honored."""

    def test_stale_checkpoint_with_deeper_suffix_is_proof(self):
        """A stale ``chk`` spliced onto the suffix after a newer one: the
        chain folded from the stale checkpoint's anchor does not reach
        the suffix."""
        dep, nodes = _net(seed=440)
        dep.checkpoint_all()
        nodes["a"].insert(link("a", "z", 2))
        dep.run()
        dep.checkpoint_all()
        nodes["a"].insert(link("a", "y", 3))
        dep.run()
        node = dep.nodes["a"]
        chk1 = next(e for e in node.log.entries if e.entry_type == "chk")
        honest = node.retrieve(from_checkpoint=True)
        assert honest.seed.index > chk1.index + 1
        assert len(honest.entries) > 1
        from repro.snp.snoopy import RetrieveResponse
        forged = RetrieveResponse(
            node="a", entries=[chk1] + honest.entries[1:],
            start_index=chk1.index,
            start_hash=node.log.hash_at(chk1.index - 1),
            head_auth=honest.head_auth,
        )
        node.retrieve = lambda **kwargs: forged
        try:
            qp = QueryProcessor(dep, use_checkpoints=True)
            view = qp.mq.view_of("a")
        finally:
            del node.retrieve
        assert view.status == PROVEN_FAULTY
        assert "hash does not recompute" in view.verdict_reason

    def test_truncated_push_cannot_shrink_a_fuller_mirror(self):
        dep, nodes = _net(seed=441)
        node = dep.nodes["a"]
        full_copy = node.retrieve()
        # Entries between the copy's head and the checkpoint: the pushed
        # segment cannot continue the copy, only replace it.
        nodes["a"].insert(link("a", "y", 3))
        dep.run()
        dep.checkpoint_all()
        nodes["a"].insert(link("a", "z", 2))
        dep.run()
        chk = node.log.last_checkpoint_before(len(node.log))
        node.log.trim(chk.index)
        pushed = node.retrieve()        # checkpoint-anchored, newer head
        assert pushed.seed is not None and pushed.start_index == chk.index
        assert pushed.head_auth.index > full_copy.head_auth.index
        from repro.snp.snoopy import LogCopy
        copy = LogCopy("a")
        assert copy.store(full_copy)
        assert not copy.store(pushed)
        assert (copy.start_index, copy.head_auth) \
            == (1, full_copy.head_auth)
        # A replica holding nothing still accepts it (it can seed).
        assert LogCopy("a").store(pushed)

    @staticmethod
    def _owing(dep, node_id, auth, floor):
        """A cold querier that owes a check of *auth*, behind an earlier
        chain's base, against *node_id*'s chain, with *node_id* advertising
        the signed retention floor *floor* (its peers withhold consistency
        evidence, which would muddy the counts)."""
        entry = dep.nodes[node_id].log.entry(floor)
        dep.retention_floors[node_id] = sign_retention_floor(
            dep.identity_of(node_id), floor, entry.timestamp)
        mq = MicroQuerier(dep)
        mq._ledgers[node_id].behind[bytes(auth.signature)] = auth
        return mq

    @staticmethod
    def _held(mq, node_id, auth):
        ledger = mq._ledgers[node_id]
        return bytes(auth.signature) in {**ledger.owed, **ledger.behind}

    def test_checkable_pending_evidence_is_checked_not_tombstoned(self):
        dep, _nodes = _net(seed=442, overrides=withholding_peers())
        node = dep.nodes["a"]
        entry = node.log.entry(2)
        good = sign_authenticator(node.identity, 2, entry.timestamp,
                                  entry.entry_hash)
        # The advertised floor is far above entry 2, but the segment in
        # hand starts at entry 1: the evidence is checkable NOW, so it
        # must be checked (and recovered), never drained unexamined.
        mq = self._owing(dep, "a", good, floor=len(node.log))
        assert mq.view_of("a").status == OK
        assert not mq.pending_skipped("a")
        assert not self._held(mq, "a", good)    # compared, then dropped
        assert mq.stats.auth_checks_tombstoned == 0
        assert mq.stats.auth_checks_recovered == 1
        # An equivocating authenticator in the same position is proof —
        # the conviction a premature tombstone would have discarded.
        bad = sign_authenticator(node.identity, 2, entry.timestamp,
                                 "f" * 64)
        mq = self._owing(dep, "a", bad, floor=len(node.log))
        assert mq.view_of("a").status == PROVEN_FAULTY

    def test_pending_below_anchor_and_floor_is_tombstoned(self):
        dep, nodes = _net(seed=443, overrides=withholding_peers())
        node = dep.nodes["a"]
        entry = node.log.entry(2)
        old = sign_authenticator(node.identity, 2, entry.timestamp,
                                 entry.entry_hash)
        dep.checkpoint_all()
        chk = node.log.last_checkpoint_before(len(node.log))
        node.log.trim(chk.index)
        assert node.retrieve().start_index > 2
        mq = self._owing(dep, "a", old, floor=chk.index)
        assert mq.view_of("a").status == OK
        assert not mq.pending_skipped("a")
        assert not self._held(mq, "a", old)
        assert mq.stats.auth_checks_recovered == 0
        assert mq.stats.auth_checks_tombstoned == 1

    def test_lagging_mirror_reseeds_at_a_sanctioned_floor(self):
        dep, nodes = _net(seed=445)
        dep.replicate_deltas()     # replicas hold full (pre-GC) copies
        # Activity the replicas never hear about: the eventual floors
        # land strictly above the stored heads plus their tombstones.
        nodes["a"].insert(link("a", "w", 4))
        dep.run()
        qp = _standing_auditor(dep)
        dep.checkpoint_all()
        nodes["a"].insert(link("a", "z", 2))
        dep.run()
        qp.refresh()
        dep.run_gc(checkpoint=False)   # floors pass the stale mirror heads
        origin = dep.nodes["a"]
        assert origin.log.start_index > 1
        floor = dep.advertised_floor_of("a")
        holders = [n for n in dep.nodes.values()
                   if n.node_id != "a" and n.mirror_of("a") is not None]
        stale = [h for h in holders
                 if h.mirror_of("a").head_auth.index < len(origin.log)]
        assert stale, "expected replicas lagging behind the GC'd origin"
        # The next delta pass must not freeze: the sanctioned
        # checkpoint-anchored fallback re-seeds the stale copies.
        before_bytes = dep.traffic.totals()["replication"]
        pushes = dep.replicate_deltas()
        assert pushes > 0
        for holder in stale:
            mirror = holder.mirror_of("a")
            assert mirror.head_auth.index == len(origin.log)
            assert mirror.start_index == floor
        assert dep.traffic.totals()["replication"] > before_bytes
        # And a now-quiescent pass stores nothing — so it charges nothing.
        before_bytes = dep.traffic.totals()["replication"]
        assert dep.replicate_deltas() == 0
        assert dep.traffic.totals()["replication"] == before_bytes

    def test_unsanctioned_truncation_does_not_reseed_mirrors(self):
        dep, nodes = _net(seed=446, overrides={"b": FloorLiarNode})
        dep.replicate_deltas()
        qp = _standing_auditor(dep)
        dep.checkpoint_all()
        nodes["a"].insert(link("a", "z", 2))
        dep.run()
        dep.run_gc(checkpoint=True)    # convicts b, which self-truncates
        assert dep.maintainer.retention_fault_of("b") is not None
        assert nodes["b"].log.start_index > 1
        stored_heads = {
            n.node_id: n.mirror_of("b").head_auth.index
            for n in dep.nodes.values()
            if n.node_id != "b" and n.mirror_of("b") is not None
        }
        assert stored_heads
        dep.replicate_deltas()
        for holder in dep.nodes.values():
            mirror = holder.mirror_of("b")
            if mirror is None or holder.node_id == "b":
                continue
            # The fuller pre-truncation evidence is kept, not replaced
            # by the convicted liar's shallower re-push.
            assert mirror.start_index == 1
            assert mirror.head_auth.index \
                == stored_heads[holder.node_id]

    def test_mirror_reclaim_counts_only_dropped_entries(self):
        dep, nodes = _net(seed=447)
        dep.enable_replication(2.0)
        qp = _standing_auditor(dep)
        dep.checkpoint_all()
        nodes["a"].insert(link("a", "z", 2))
        dep.run()
        qp.refresh()
        stored_before = {
            (holder.node_id, origin):
                [e.size_bytes() for e in resp.entries]
            for holder in dep.nodes.values()
            for origin, resp in holder.mirror_store.items()
        }
        floors_stored = {
            (holder.node_id, origin): resp.start_index
            for holder in dep.nodes.values()
            for origin, resp in holder.mirror_store.items()
        }
        dep.run_gc(checkpoint=False)
        expected = 0
        for holder in dep.nodes.values():
            for origin, resp in holder.mirror_store.items():
                key = (holder.node_id, origin)
                dropped = resp.start_index - floors_stored[key]
                expected += sum(stored_before[key][:dropped])
        assert dep.gc_meter.mirror_bytes_reclaimed == expected
        assert expected > 0

    def test_run_honors_the_gc_cadence(self):
        dep, nodes = _net(seed=444)
        _standing_auditor(dep)
        head_lens = {n: len(node.log) for n, node in dep.nodes.items()}
        dep.enable_gc(100.0)
        for _ in range(3):
            dep.run()
        # Not yet due: no pass ran, no checkpoint entries were appended.
        assert dep.gc_meter.gc_passes == 0
        assert {n: len(node.log) for n, node in dep.nodes.items()} \
            == head_lens
        dep.run_until(dep.sim.now + 101.0)
        assert dep.gc_meter.gc_passes == 1


class TestPostGcColdBuild:
    def test_full_and_checkpoint_mode_builds_agree_post_gc(self):
        """After GC the untruncated log no longer exists: a full build
        anchors on the retained checkpoint, exactly where a
        checkpoint-mode build anchors, and the two agree vertex by
        vertex."""
        dep, nodes = _net(seed=430)
        auditor = _standing_auditor(dep)
        dep.checkpoint_all()
        nodes["a"].insert(link("a", "z", 2))
        dep.run()
        auditor.refresh()
        dep.run_gc(checkpoint=False)
        dep.unregister_querier(auditor)
        outcomes = []
        for use_checkpoints in (False, True):
            with QueryProcessor(dep, use_checkpoints=use_checkpoints) as qp:
                qp.prefetch()
                result = qp.why(best_cost("c", "d", 5), scope=5)
                outcomes.append((fingerprint(result), {
                    str(n): (v.status, v.base_index, v.head_index)
                    for n, v in qp.mq._views.items()}))
        full, checkpointed = outcomes
        assert all(status == OK and base > 1
                   for status, base, _head in full[1].values())
        assert full == checkpointed


#: Every node's newest ``chk`` content, one line per node, after each of
#: the five applications checkpoints.
_CHK_CONTENTS = (
    "from scenarios import app_deployments\n"
    "for name, dep in app_deployments().items():\n"
    "    dep.checkpoint_all()\n"
    "    for node_id in sorted(dep.nodes, key=str):\n"
    "        chk = dep.nodes[node_id].log.entries[-1]\n"
    "        print(name, node_id, chk.content)\n")


class TestSnapshotIsTheCheckpoint:
    """A ``chk`` entry commits to the snapshot it carries and holds
    nothing else: on every application the snapshot encodes canonically,
    restores to the machine it was taken of — the extant and believed
    tuples replay seeds are read off it — and commits to the same bytes
    in every process."""

    @pytest.fixture(scope="class")
    def deployments(self):
        deployments = app_deployments()
        for dep in deployments.values():
            dep.checkpoint_all()
        return deployments

    def test_a_restored_snapshot_is_the_machine_it_was_taken_of(
            self, deployments):
        for name, dep in deployments.items():
            for node_id, node in dep.nodes.items():
                chk = node.log.entries[-1]
                snapshot = chk.aux["snapshot"]
                assert chk.content == (
                    "checkpoint", content_digest(canonical_bytes(snapshot)))
                fresh = dep.app_factories[node_id](node_id)
                fresh.restore(snapshot)
                assert list(fresh.extant_tuples()) \
                    == list(node.app.extant_tuples()), (name, node_id)
                assert list(fresh.believed_tuples()) \
                    == list(node.app.believed_tuples()), (name, node_id)

    def test_the_commitment_does_not_depend_on_the_hash_seed(
            self, deployments):
        root = Path(__file__).parents[2]
        path = os.pathsep.join([str(root / "src"), str(root / "tests")])
        runs = {
            subprocess.run(
                [sys.executable, "-c", _CHK_CONTENTS],
                env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hs),
                check=True, capture_output=True, text=True, timeout=120,
            ).stdout
            for hs in ("1", "2")
        }
        here = "".join(
            f"{name} {n} {dep.nodes[n].log.entries[-1].content}\n"
            for name, dep in deployments.items()
            for n in sorted(dep.nodes, key=str))
        assert runs == {here}
        assert here.count("\n") == 31
