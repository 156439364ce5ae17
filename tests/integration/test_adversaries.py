"""Fault-injection matrix: every adversary behavior vs. detection outcome.

The paper's completeness property (Theorem 6): every *detectably* faulty
node yields at least one red or yellow vertex when queried. Its accuracy
property (Theorem 5): correct nodes stay black no matter what the
adversary does. The known limitation (Section 4.2): lies about local
inputs are not automatically detectable.
"""

import pytest

from repro.apps.mincost import best_cost, build_paper_network, cost, link
from repro.crypto.hashing import chain_hash
from repro.model import Msg, Tup
from repro.service.framing import FrameDecoder, encode_frame
from repro.snp import Deployment, QueryProcessor
from repro.snp.adversary import (
    FabricatorNode, ForkingNode, InputLiarNode, MisexecutingNode,
    MisreceivingNode, SilentNode, SuppressorNode, TamperingNode,
)
from repro.snp.commitment import (
    WireAck, WireBatch, ack_entry_content, rcv_entry_content,
)
from repro.snp.evidence import Authenticator, sign_authenticator
from repro.snp.log import ACK, CHK, INS, RCV, SND, LogEntry
from repro.snp.snoopy import RetrieveResponse, SNooPyNode

from scenarios import forged_checkpoint, withholding_peers


def _deploy(adversary_cls=None, victim="b", seed=77, withheld=False):
    """The paper network; with *withheld*, the victim's peers refuse the
    consistency check."""
    dep = Deployment(seed=seed, key_bits=256)
    overrides = withholding_peers() if withheld else {}
    if adversary_cls:
        overrides[victim] = adversary_cls
    nodes = build_paper_network(dep, node_overrides=overrides)
    dep.run()
    return dep, nodes


class TestFabrication:
    def test_fabricated_tuple_traced_to_red_send(self):
        dep, nodes = _deploy(FabricatorNode)
        nodes["b"].fabricate("+", cost("c", "d", "b", 1), "c")
        dep.run()
        qp = QueryProcessor(dep)
        result = qp.why(best_cost("c", "d", 1))
        assert "b" in result.faulty_nodes()

    def test_correct_nodes_stay_black_under_fabrication(self):
        dep, nodes = _deploy(FabricatorNode)
        nodes["b"].fabricate("+", cost("c", "d", "b", 1), "c")
        dep.run()
        qp = QueryProcessor(dep)
        result = qp.why(best_cost("c", "d", 1))
        for vertex in result.red_vertices():
            assert vertex.node == "b"

    def test_fabricated_negative_update_detected(self):
        dep, nodes = _deploy(FabricatorNode)
        # b withdraws a tuple it legitimately sent earlier — without the
        # derivation actually having ceased.
        nodes["b"].fabricate("-", cost("c", "d", "b", 5), "c")
        dep.run()
        qp = QueryProcessor(dep)
        result = qp.why_disappear(cost("c", "d", "b", 5), node="c")
        assert "b" in result.faulty_nodes()

    def test_victim_state_is_polluted_but_attributable(self):
        dep, nodes = _deploy(FabricatorNode)
        nodes["b"].fabricate("+", cost("c", "d", "b", 1), "c")
        dep.run()
        # The lie propagated into c's aggregate:
        assert nodes["c"].app.has_tuple(best_cost("c", "d", 1))
        # ... and the effects query from the fabricated belief finds it.
        qp = QueryProcessor(dep)
        fwd = qp.effects(cost("c", "d", "b", 1), node="c", scope=6)
        tups = {v.tup for v in fwd.vertices() if v.tup is not None}
        assert best_cost("c", "d", 1) in tups


def _rewrite_first_insert(node):
    """Rewrite *node*'s first ``ins`` entry to a costlier tuple and
    rebuild its chain: a lie every check but the consistency check
    accepts."""
    entry = next(e for e in node.log.entries if e.entry_type == INS)
    tup = entry.aux["tup"]
    node.tamper_entry(entry.index, Tup(tup.relation, tup.loc,
                                       *tup.args[:-1], tup.args[-1] + 1),
                      recompute_chain=True)


class TestTampering:
    def test_broken_chain_proves_fault(self):
        dep, nodes = _deploy(TamperingNode)
        nodes["b"].tamper_entry(2, ("rewritten-history",))
        result = QueryProcessor(dep).why(best_cost("c", "d", 5))
        assert "b" in result.faulty_nodes()

    def test_recomputed_chain_caught_by_consistency_check(self):
        dep, nodes = _deploy(TamperingNode)
        _rewrite_first_insert(nodes["b"])
        qp = QueryProcessor(dep)
        assert "b" in qp.why(best_cost("c", "d", 5)).faulty_nodes()
        view = qp.mq.view_of("b")
        assert view.status == "proven-faulty"
        assert "does not match the log" in view.verdict_reason

    def test_withheld_consistency_check_misses_recomputed_chain(self):
        # Ablation: when the peers refuse the consistency check, a
        # self-consistent rewrite of an input entry — content and parsed
        # form agree, the chain is rebuilt — is NOT caught by an audit of
        # the node alone: the reason the paper's consistency check exists
        # (the test above is the same rewrite, caught).
        dep, nodes = _deploy(TamperingNode, withheld=True)
        _rewrite_first_insert(nodes["b"])
        qp = QueryProcessor(dep)
        assert qp.mq.view_of("b").status == "ok"
        # An audit of the peers too compares the authenticators their
        # logs carry with the rewritten chain, whichever comes first.
        assert qp.prefetch()["b"].status == "proven-faulty"


class TestEquivocation:
    def test_forked_log_detected(self):
        dep, nodes = _deploy(ForkingNode)
        nodes["b"].fork_log(keep_upto=3)
        result = QueryProcessor(dep).why(best_cost("c", "d", 5))
        assert "b" in result.faulty_nodes()

    def test_fork_detected_even_with_new_activity(self):
        dep, nodes = _deploy(ForkingNode)
        nodes["b"].fork_log(keep_upto=3)
        # The forked node keeps operating on its new branch.
        nodes["b"].insert(link("b", "e", 9))
        dep.run()
        result = QueryProcessor(dep).why(best_cost("c", "d", 5))
        assert "b" in result.faulty_nodes()


class TestSilence:
    def test_unresponsive_node_yields_yellow(self):
        dep, nodes = _deploy(SilentNode)
        result = QueryProcessor(dep).why(best_cost("c", "d", 5))
        yellow_nodes = {v.node for v in result.yellow_vertices()}
        assert "b" in yellow_nodes
        assert "b" in result.suspect_nodes()
        assert "b" not in result.faulty_nodes()  # not *proven* faulty

    def test_recovery_after_node_starts_answering(self):
        dep, nodes = _deploy(SilentNode)
        qp = QueryProcessor(dep)
        first = qp.why(best_cost("c", "d", 5))
        assert first.yellow_vertices()
        nodes["b"].refuse_retrieve = False
        qp.mq.invalidate("b")
        second = qp.why(best_cost("c", "d", 5))
        assert not second.yellow_vertices()
        assert second.is_clean()


class TestSuppression:
    def test_suppressed_update_leaves_stale_belief(self):
        dep, nodes = _deploy(SuppressorNode)
        nodes["b"].suppress_to.add("c")
        # b's link to d gets worse; the resulting -cost/+cost updates to c
        # are silently dropped, so c's table goes stale.
        nodes["b"].delete(link("b", "d", 3))
        dep.run()
        assert nodes["c"].app.has_tuple(cost("c", "d", "b", 5))  # stale
        qp = QueryProcessor(dep)
        # Step 1 (the paper's workflow): why does c still have the route?
        # The backward chain is legitimately black — c's belief was
        # correctly derived when it was established.
        backward = qp.why(best_cost("c", "d", 5))
        assert backward.is_clean()
        # Step 2: damage assessment on the believed tuple at its host —
        # the suppressed −τ notification shows up as a red send vertex
        # (b's machine produced it, b never sent it).
        forward = qp.effects(cost("c", "d", "b", 5), node="b", scope=4)
        assert "b" in forward.faulty_nodes()


class TestMisexecution:
    def test_runtime_program_divergence_detected(self):
        dep = Deployment(seed=99, key_bits=256)
        nodes = build_paper_network(
            dep, node_overrides={"b": MisexecutingNode})
        dep.run()
        from repro.apps.mincost import mincost_factory

        # The corrupt program suppresses route propagation (max_cost=1
        # blocks every R2 derivation), so b silently stops advertising.
        corrupt = mincost_factory(max_cost=1)("b")
        corrupt.restore(nodes["b"].app.snapshot())
        nodes["b"].install_corrupt_app(corrupt)
        # A brand-new link: the honest program would advertise routes over
        # it; the corrupt one silently doesn't.
        nodes["b"].insert(link("b", "e", 1))
        dep.run()
        # A later input commits b to having produced no output for the
        # previous one (the GCA flags unsent pending outputs there).
        nodes["b"].insert(link("b", "e", 2))
        dep.run()
        result = QueryProcessor(dep).effects(link("b", "e", 1), scope=6)
        assert "b" in result.faulty_nodes()


class _ZeroDatedSender(SNooPyNode):
    """Logs its first snd entry at exactly 0.0, where its clock still
    reads below zero (so its log stays strictly increasing)."""

    _zero = False

    def _queue_send(self, msg, t):
        self._zero = not any(e.entry_type == SND for e in self.log.entries)
        super()._queue_send(msg, t)

    def _next_time(self):
        t = super()._next_time()
        if self._zero:
            assert t < 0.0
            self._zero = False
            t = self._last_entry_t = 0.0
        return t


class TestMisreception:
    def test_the_sender_refuses_an_ack_of_what_it_did_not_send(self):
        # c logs, processes and acks b's first message with the cost
        # raised by 50: b rebuilds the acked rcv entry from its own
        # message, refuses the ack, and raises the missing-ack alarm
        dep, nodes = _deploy(MisreceivingNode, victim="c", seed=7)
        sent, logged = nodes["c"].misreceived
        assert sent.src == "b" and logged != sent
        assert [(w["receiver"], w["sender"])
                for w in dep.maintainer.rejected_wires] == [("b", "c")]
        acked = [m for e in nodes["b"].log.entries if e.entry_type == ACK
                 for m in e.aux["wire_ack"].msgs]
        assert sent not in acked and logged not in acked
        assert [a["msg_ids"] for a in dep.maintainer.missing_ack_alarms] \
            == [[sent.msg_id()]]

    def test_a_misdated_authenticator_cannot_frame_its_receiver(
            self, monkeypatch):
        # b signs its first batch's genuine (index, hash) 1 ms off the snd
        # entry's timestamp, inside the plausibility window: its receiver
        # refuses the batch, so no rcv entry re-chains at the signed time
        # and the receiver's view stays ok
        dep = Deployment(seed=7, key_bits=256)
        transmit, misdated = dep.transmit_batch, []

        def misdate(sender, batch):
            if sender.node_id == "b" and not misdated:
                auth = batch.auth
                batch.auth = sign_authenticator(
                    sender.identity, auth.index, auth.timestamp + 0.001,
                    auth.entry_hash)
                misdated.append(batch)
            transmit(sender, batch)

        monkeypatch.setattr(dep, "transmit_batch", misdate)
        build_paper_network(dep)
        [batch] = misdated
        assert len(batch.msgs) == 1
        [rejected] = dep.maintainer.rejected_wires
        assert (rejected["receiver"], rejected["sender"]) == (batch.dst, "b")
        assert not any(e.aux["batch_auth"] is batch.auth
                       for e in dep.nodes[batch.dst].log.entries
                       if e.entry_type == RCV)
        with QueryProcessor(dep) as qp:
            assert qp.mq.view_of(batch.dst).status == "ok"

    @pytest.mark.parametrize("signed", [0, -0.0], ids=["int", "negative-zero"])
    def test_a_time_equal_to_its_entrys_but_not_its_bits_is_refused(
            self, monkeypatch, signed):
        # a signs the batch of its snd entry logged at 0.0 at a time
        # equal to it (the int 0, or -0.0) that is not the float the
        # chain step hashed: its receiver refuses the batch — taken, it
        # would hold an authenticator no audit re-chains and no frame
        # carries — so its view stays ok and its log still pushes
        dep = Deployment(seed=7, key_bits=256)
        transmit, resigned = dep.transmit_batch, []

        def resign(sender, batch):
            auth = batch.auth
            if sender.node_id == "a" and not resigned:
                assert auth.timestamp == 0.0 and len(batch.msgs) == 1
                batch.auth = sign_authenticator(
                    sender.identity, auth.index, signed, auth.entry_hash)
                resigned.append(batch)
            transmit(sender, batch)

        monkeypatch.setattr(dep, "transmit_batch", resign)
        build_paper_network(dep, node_overrides={"a": _ZeroDatedSender})
        [batch] = resigned
        [rejected] = dep.maintainer.rejected_wires
        assert (rejected["receiver"], rejected["sender"]) == (batch.dst, "a")
        receiver = dep.nodes[batch.dst]
        assert not any(e.aux["batch_auth"] is batch.auth
                       for e in receiver.log.entries if e.entry_type == RCV)
        with QueryProcessor(dep) as qp:
            assert qp.mq.view_of(batch.dst).status == "ok"
        decoder = FrameDecoder()
        [pushed] = decoder.feed(
            encode_frame({"response": receiver.retrieve()}))
        assert decoder.corrupt_frames == 0
        assert len(pushed["response"].entries) == len(receiver.log)

    def test_an_acker_cannot_plant_its_echo_in_the_senders_log(
            self, monkeypatch):
        # c echoes b's batch authenticator with its signature bytes but an
        # int timestamp no frame carries: b logs the ack with its own
        # authenticator, so b's log still pushes and b's view stays ok
        dep = Deployment(seed=7, key_bits=256)
        transmit, echoed = dep.transmit_ack, []

        def misecho(sender, wire_ack):
            auth = wire_ack.batch_auth
            if sender.node_id == "c" and not echoed:
                wire_ack.batch_auth = Authenticator(
                    auth.node, auth.index, int(auth.timestamp),
                    auth.entry_hash, auth.signature)
                echoed.append(auth)
            transmit(sender, wire_ack)

        monkeypatch.setattr(dep, "transmit_ack", misecho)
        build_paper_network(dep)
        [sent] = echoed
        sender = dep.nodes[sent.node]
        [kept] = [e.aux["wire_ack"].batch_auth for e in sender.log.entries
                  if e.entry_type == ACK
                  and e.aux["wire_ack"].batch_auth.signature
                  == sent.signature]
        assert kept is sent
        decoder = FrameDecoder()
        [pushed] = decoder.feed(
            encode_frame({"response": sender.retrieve()}))
        assert decoder.corrupt_frames == 0
        assert len(pushed["response"].entries) == len(sender.log)
        with QueryProcessor(dep) as qp:
            assert qp.mq.view_of(sent.node).status == "ok"


class TestInputLying:
    def test_input_lie_is_black_but_visible(self):
        # Section 4.2's first limitation: lying about local inputs cannot
        # be detected automatically. The provenance is accurate — it shows
        # the lying insert as the root cause, for the human to judge.
        dep = Deployment(seed=55, key_bits=256)
        nodes = build_paper_network(
            dep, node_overrides={"b": InputLiarNode})
        dep.run()
        nodes["b"].lie_insert(link("b", "d", 1))  # phantom cheap link
        dep.run()
        qp = QueryProcessor(dep)
        result = qp.why(best_cost("c", "d", 3))  # c now believes cost 3
        assert result.is_clean()  # NOT automatically detected
        lying_inserts = [v for v in result.vertices()
                         if v.vtype == "insert"
                         and v.tup == link("b", "d", 1)]
        assert lying_inserts  # but the root cause is in plain sight


class TestMultipleAdversaries:
    def test_two_byzantine_nodes_both_identified(self):
        dep = Deployment(seed=101, key_bits=256)
        nodes = build_paper_network(dep, node_overrides={
            "b": FabricatorNode, "e": TamperingNode,
        })
        dep.run()
        nodes["b"].fabricate("+", cost("c", "d", "b", 1), "c")
        dep.run()
        nodes["e"].tamper_entry(1, ("gone",))
        qp = QueryProcessor(dep)
        r1 = qp.why(best_cost("c", "d", 1))
        assert "b" in r1.faulty_nodes()
        # c's best route to a runs through e (1 + 3), so this query's
        # provenance chain visits the tampered node.
        r2 = qp.why(best_cost("c", "a", 4))
        assert "e" in r2.faulty_nodes()


# ------------------------------------------------------ conviction gallery


class _TwoFacedNode(SNooPyNode):
    """Serves its real log to a checkpoint-mode audit and a fork of it —
    the head entry re-timed, everything below intact, the new head duly
    signed — to the anchoring fetch that follows in the same batch."""

    def retrieve(self, from_checkpoint=False, since_index=None):
        response = super().retrieve(from_checkpoint, since_index)
        if from_checkpoint or since_index is not None:
            return response
        *kept, head = response.entries
        timestamp = head.timestamp + 1e-7
        forked = chain_hash(kept[-1].entry_hash, timestamp, head.entry_type,
                            head.content_hash)
        head = LogEntry(head.index, timestamp, head.entry_type, head.content,
                        head.content_hash, forked, aux=head.aux)
        return RetrieveResponse(
            response.node, kept + [head], response.start_index,
            response.start_hash,
            sign_authenticator(self.identity, head.index, timestamp, forked))


class _ForkThenCrashNode(ForkingNode, SilentNode):
    """Forks its log, lets the replicas mirror the fork, then crashes."""


class TestConvictionGallery:
    """One case per conviction check no other test reaches: each is the
    smallest edit a Byzantine ``b`` could make to its *own* log of an
    honest run — appended at the head, so every authenticator ``b`` ever
    issued still lies on its chain and no *other* check fires first. With
    the check a case names deleted, the case fails (CHANGES.md, PR 19,
    has the table)."""

    def _view_of_b(self, dep, **qp_kwargs):
        with QueryProcessor(dep, **qp_kwargs) as qp:
            return qp.mq.view_of("b")

    def test_rcv_commits_to_an_authenticator_nobody_signed(self):
        # check: the embedded-authenticator signature loop
        dep, nodes = _deploy()
        b = nodes["b"]
        t = b._next_time()
        unsigned = Authenticator("a", 99, t, b"\xab" * 32, b"\x01" * 32)
        msg = Msg("+", cost("b", "d", "a", 1), "a", "b", 999, t)
        batch = WireBatch("a", "b", [], [], 99, b"\xcd" * 32, unsigned)
        b.log.append(t, RCV, rcv_entry_content(msg, batch),
                     aux={"msg": msg, "batch_auth": unsigned})
        view = self._view_of_b(dep)
        assert view.status == "proven-faulty"
        assert "authenticator from 'a' has an invalid signature" \
            in view.verdict_reason

    def test_rcv_commits_to_an_authenticator_of_an_unregistered_node(self):
        # check: the embedded-authenticator loop's registered-key guard
        dep, nodes = _deploy()
        b = nodes["b"]
        t = b._next_time()
        stranger = Authenticator("z", 1, t, b"\xab" * 32, b"\x01" * 32)
        msg = Msg("+", cost("b", "d", "z", 1), "z", "b", 999, t)
        batch = WireBatch("z", "b", [], [], 1, b"\xcd" * 32, stranger)
        b.log.append(t, RCV, rcv_entry_content(msg, batch),
                     aux={"msg": msg, "batch_auth": stranger})
        view = self._view_of_b(dep)
        assert view.status == "proven-faulty"
        assert "authenticator from unregistered node 'z'" \
            in view.verdict_reason

    def test_rcv_logs_a_message_its_sender_did_not_sign(self):
        # check: check_receipts — a genuine authenticator of a one-entry
        # batch, over another message than the one it signs
        dep, nodes = _deploy()
        b = nodes["b"]
        genuine = next(e for e in b.log.entries if e.entry_type == RCV)
        msg, auth = genuine.aux["msg"], genuine.aux["batch_auth"]
        tup = msg.tup
        lie = Msg(msg.polarity, Tup(tup.relation, tup.loc, *tup.args[:-1],
                                    tup.args[-1] + 50),
                  msg.src, msg.dst, msg.seq, msg.t_sent)
        h_start, start_index = genuine.content[2:4]
        batch = WireBatch(msg.src, "b", [], [], start_index, h_start, auth)
        b.log.append(b._next_time(), RCV, rcv_entry_content(lie, batch),
                     aux={"msg": lie, "batch_auth": auth})
        view = self._view_of_b(dep)
        assert view.status == "proven-faulty"
        assert f"logs a message {msg.src!r} did not sign" \
            in view.verdict_reason

    @pytest.mark.parametrize("anchor", ["in hex", "short"])
    def test_rcv_commits_to_an_anchor_no_chain_step_takes(self, anchor):
        # check: check_receipts, through reaches — the genuine message
        # and authenticator of a one-entry batch, but an h_start that is
        # not a 32-byte digest: it re-chains to nothing, a verdict on b
        # and no exception out of the audit
        dep, nodes = _deploy()
        b = nodes["b"]
        genuine = next(e for e in b.log.entries if e.entry_type == RCV)
        msg, auth = genuine.aux["msg"], genuine.aux["batch_auth"]
        h_start, start_index = genuine.content[2:4]
        h_start = h_start.hex() if anchor == "in hex" else h_start[:31]
        batch = WireBatch(msg.src, "b", [], [], start_index, h_start, auth)
        b.log.append(b._next_time(), RCV, rcv_entry_content(msg, batch),
                     aux={"msg": msg, "batch_auth": auth})
        with QueryProcessor(dep) as qp:
            result = qp.why(best_cost("c", "d", 5))
            views = {node: qp.mq.view_of(node) for node in dep.nodes}
        view = views.pop("b")
        assert view.status == "proven-faulty"
        assert f"logs a message {msg.src!r} did not sign" \
            in view.verdict_reason
        # the honest peers stay green, the sender of the batch included
        assert {peer.status for peer in views.values()} == {"ok"}
        assert set(result.faulty_nodes()) <= {"b"}

    @pytest.mark.parametrize("lie", ["re-dated", "dropped", "missing"])
    def test_checkpoint_seed_disagrees_with_its_commitment(self, lie):
        # check: check_parsed_forms on the replay seed — the snapshot an
        # origin serves must hash to the digest its chk entry commits to
        dep, nodes = _deploy()
        b = nodes["b"]
        b.checkpoint()
        chk = b.log.entries[-1]
        snapshot = chk.aux["snapshot"]
        tup = next(iter(snapshot["store"]["base"]))
        if lie == "re-dated":
            appeared = dict(snapshot["store"]["appeared"])
            appeared[tup] += 1.0
            chk.aux = dict(chk.aux, snapshot=dict(snapshot, store=dict(
                snapshot["store"], appeared=appeared)))
        elif lie == "dropped":
            b.log.entries[-1] = forged_checkpoint(chk, {tup: 0},
                                                  recommit=False)
        else:
            chk.aux = {key: value for key, value in chk.aux.items()
                       if key != "snapshot"}
        view = self._view_of_b(dep, use_checkpoints=True)
        assert view.status == "proven-faulty"
        assert f"chk entry {chk.index}'s parsed form does not re-derive " \
            "its committed content" in view.verdict_reason

    def test_committed_snapshot_crashes_the_expected_machine(self):
        # check: the REPLAY_FAILED verdict, for a seed — b commits to a
        # snapshot its machine cannot restore
        dep, nodes = _deploy()
        b = nodes["b"]
        b.log.append_checkpoint(b._next_time(), {"seq": {}})
        view = self._view_of_b(dep, use_checkpoints=True)
        assert view.status == "proven-faulty"
        assert "replay of node 'b' diverged: KeyError('store')" \
            in view.verdict_reason

    def test_a_replicas_doctored_snapshot_cannot_turn_the_origin_red(self):
        # check: check_parsed_forms on a mirror's replay seed. c
        # checkpoints, then deletes a link and honestly retracts what it
        # had derived from it; c's GC'd mirrors serve c's chk with the
        # link dropped from the snapshot, then c crashes. Seeded from
        # that snapshot, c's retractions would be sends its machine
        # never produced.
        dep, nodes = _deploy(SilentNode, victim="c", seed=8)
        c, gone = nodes["c"], link("c", "b", 2)
        c.refuse_retrieve = c.refuse_consistency = False
        dep.enable_replication(2.0)
        with QueryProcessor(dep) as auditor:
            dep.register_querier(auditor)
            auditor.prefetch()
            c.checkpoint()
            c.delete(gone)
            dep.run()
            auditor.refresh()
            dep.run_gc(checkpoint=False)
            dep.unregister_querier(auditor)
        copies = [n.mirror_of("c") for n in dep.nodes.values()
                  if n.mirror_of("c") is not None]
        assert copies and all(copy.entries[0].entry_type == CHK
                              for copy in copies)
        for copy in copies:
            copy.entries[0] = forged_checkpoint(
                copy.entries[0], {gone: 0}, recommit=False)
        c.refuse_retrieve = True
        with QueryProcessor(dep, use_checkpoints=True) as qp:
            view = qp.mq.view_of("c")
            result = qp.prefetch()
        assert view.status == "unreachable"
        assert view.verdict_reason.startswith("bad mirror: ")
        assert "parsed form does not re-derive" in view.verdict_reason
        assert view.graph is None
        assert {n for n, v in result.items() if v.status != "ok"} == {"c"}

    def test_logged_insert_crashes_the_expected_machine(self):
        # check: the REPLAY_FAILED verdict
        dep, nodes = _deploy()
        b = nodes["b"]
        bomb = link("b", "q", "not-a-number")
        b.log.append(b._next_time(), INS, bomb.canonical(),
                     aux={"tup": bomb})
        view = self._view_of_b(dep)
        assert view.status == "proven-faulty"
        assert "replay of node 'b' diverged: TypeError" \
            in view.verdict_reason
        # the failed replay is kept on the view, as evidence
        assert view.replay is not None and not view.replay.ok
        assert view.graph is view.replay.graph

    def test_anchoring_segment_forks_off_the_audited_head(self):
        # check: verify_anchor_segment's trusted-head comparison
        dep, nodes = _deploy(_TwoFacedNode, seed=85)
        dep.checkpoint_all()
        nodes["a"].insert(link("a", "y", 4))
        dep.run()
        with QueryProcessor(dep, use_checkpoints=True) as qp:
            view = qp.mq.view_of("b")
            assert qp.mq.stats.anchor_fetches == 1
            # every owed authenticator lies on the fork too: only the
            # audited head tells the two histories apart
            assert qp.mq.pending_skipped("b")
        assert view.status == "proven-faulty"
        assert "anchoring segment does not pass through the audited head" \
            in view.verdict_reason

    def _forked_b(self, node_cls):
        """``b`` forks at entry 3 and runs on; its peers refuse the
        consistency check, so only the authenticators their logs carry
        can expose the fork."""
        dep, nodes = _deploy(node_cls, withheld=True)
        b = nodes["b"]
        b.refuse_retrieve = b.refuse_consistency = False
        b.fork_log(keep_upto=3)
        b.insert(link("b", "q", 4))
        dep.run()
        return dep, b

    def test_fork_visible_only_in_evidence_other_logs_carry(self):
        # check: settle, over the authenticators the batch's other
        # members' logs carry
        dep, _b = self._forked_b(ForkingNode)
        with QueryProcessor(dep) as alone:
            # nothing held, nobody answers: the fork's chain is consistent
            assert alone.mq.view_of("b").status == "ok"
        with QueryProcessor(dep) as qp:
            views = qp.prefetch()  # a commits, and its log is held, before b
        assert views["b"].status == "proven-faulty"
        assert "does not match the log (equivocation or tampering)" \
            in views["b"].verdict_reason
        assert {views[n].status for n in "acde"} == {"ok"}

    def test_same_fork_served_by_a_mirror_on_a_cold_build(self):
        # check: the same check — a mirror's contradiction is not proof
        dep, b = self._forked_b(_ForkThenCrashNode)
        dep.replicate_deltas(replication_factor=2)
        b.refuse_retrieve = True
        with QueryProcessor(dep) as qp:
            view = qp.prefetch()["b"]
        assert view.status == "unreachable"
        assert view.verdict_reason.startswith("bad mirror: ")
        assert "does not match the log" in view.verdict_reason

    @pytest.mark.parametrize("harvested", ["earlier-batch", "same-batch"])
    def test_same_fork_served_by_a_mirror_on_an_extend(
            self, harvested):
        # check: the mirror policy's extend branch — whichever batch
        # harvested the contradicting evidence, verification fails before
        # replay and the stale view stays
        dep, nodes = _deploy(_ForkThenCrashNode, withheld=True)
        b = nodes["b"]
        b.refuse_retrieve = b.refuse_consistency = False
        with QueryProcessor(dep) as qp:
            view = qp.prefetch()["b"]
            head, replayed = view.head_index, view.replay.events_replayed
            b.insert(link("b", "q", 4))   # a logs b's newer authenticators
            dep.run()
            if harvested == "earlier-batch":
                qp.refresh("a")
            b.fork_log(keep_upto=head)    # forks *above* the audited head,
            b.insert(link("b", "r", 9))   # runs on, is mirrored, crashes
            dep.run()
            dep.replicate_deltas(replication_factor=2)
            b.refuse_retrieve = True
            qp.refresh()
            after = qp.mq.view_of("b")
            # the stale verified view is kept, still extendable: its
            # replay never left the committed head
            assert after is view and after.status == "ok"
            assert after.head_index == head
            assert after.replay.events_replayed == replayed
            assert {qp.mq.view_of(n).status for n in "acde"} == {"ok"}

    @staticmethod
    def _log_rcv(b, auth, seq):
        """b logs, at its head, a message from a under *auth*."""
        t = b._next_time()
        msg = Msg("+", cost("b", "d", "a", 1), "a", "b", seq, t)
        batch = WireBatch("a", "b", [], [], auth.index, "cd" * 32, auth)
        b.log.append(t, RCV, rcv_entry_content(msg, batch),
                     aux={"msg": msg, "batch_auth": auth})

    @pytest.mark.parametrize("doctor", [
        "index", "hash", "timestamp", "int-timestamp", "signer",
    ])
    def test_embedded_copy_reusing_a_verified_signature(self, doctor):
        # check: the batch's signature memo (build.verify_auth) is keyed on
        # the payload bytes, the signature bytes and the verifying key
        dep, nodes = _deploy()
        b = nodes["b"]
        a_head = nodes["a"].log.entry(len(nodes["a"].log))
        genuine = sign_authenticator(dep.identity_of("a"), a_head.index, 5.0,
                                     a_head.entry_hash)
        self._log_rcv(b, genuine, 998)  # verified first, and memoized
        sig = genuine.signature
        if doctor == "signer":
            # the same signed bytes, now claimed as c's acknowledgment
            wire_ack = WireAck("c", "b", None, [], [], 1, "cd" * 32, genuine,
                               [])
            b.log.append(b._next_time(), ACK, ack_entry_content(wire_ack),
                         aux={"wire_ack": wire_ack})
        else:
            index, timestamp, entry_hash = {
                "index": (a_head.index + 1, 5.0, a_head.entry_hash),
                "hash": (a_head.index, 5.0, "ab" * 32),
                "timestamp": (a_head.index, 6.0, a_head.entry_hash),
                # equal to 5.0 in Python, a different payload in bytes
                "int-timestamp": (a_head.index, 5, a_head.entry_hash),
            }[doctor]
            self._log_rcv(b, Authenticator("a", index, timestamp, entry_hash,
                                           sig), 999)
        view = self._view_of_b(dep)
        assert view.status == "proven-faulty"
        assert "authenticator from 'a' has an invalid signature" \
            in view.verdict_reason


class _ForgedCheckpointNode(SNooPyNode):
    """Serves a checkpoint-mode audit its real checkpoint with one base
    tuple added to the snapshot and the content's snapshot digest
    recomputed to match (:func:`scenarios.forged_checkpoint`); the
    entry's digests, and the log itself, are untouched."""

    FORGED = link("c", "evil", 1)

    def retrieve(self, from_checkpoint=False, since_index=None):
        response = super().retrieve(from_checkpoint, since_index)
        if response.seed is not None:
            response.entries[0] = forged_checkpoint(response.seed,
                                                    {self.FORGED: 1})
        return response


class TestServedCheckpointBinding:
    """A checkpoint-mode response starts at its ``chk`` entry, anchored
    on ``h_{chk-1}``, so the chain check re-hashes the checkpoint's
    content like any entry's. A server that swaps the snapshot and
    recomputes the snapshot digest in the content serves content that no
    longer matches its digest: proof."""

    def test_a_forged_extant_tuple_is_not_seeded(self):
        dep, _nodes = _deploy(_ForgedCheckpointNode, victim="c", seed=8)
        dep.checkpoint_all()
        with QueryProcessor(dep, use_checkpoints=True) as qp:
            view = qp.mq.view_of("c")
        assert view.status == "proven-faulty"
        assert "content does not match its digest" in view.verdict_reason
        assert view.graph is None  # convicted before replay seeded it
