"""Adversary behaviour beyond a verdict.

The verdict of every lie the tests stage — which views are not ``ok``
and why, whom the query convicts or suspects, that red lands only on
the adversaries — is a row of ``scenarios.CORPUS``, and
``test_audit_contract.py`` checks it with every other promise of the
audit. What stays here is what a verdict does not show: the
maintainer's alarms, what a frame carries, an ablation, a recovery, a
stale view kept, and the provenance a lie leaves on display.
"""

import pytest

from repro.apps.mincost import best_cost, build_paper_network, cost, link
from repro.metrics import ServiceMeter
from repro.service.framing import FrameDecoder, encode_frame
from repro.snp import Deployment, QueryProcessor
from repro.snp.adversary import ForkingNode
from repro.snp.evidence import Authenticator, sign_authenticator
from repro.snp.log import ACK, RCV, SND
from repro.snp.snoopy import SNooPyNode

from scenarios import (
    CORPUS, ForkThenCrashNode, SplitStrippingNode, hadoop_mapper_serving,
    mincost, withholding_peers,
)


def _build(name):
    """A fresh build of corpus row *name*: ``(deployment, query)``."""
    dep, query, _run_further = CORPUS[name].build()
    return dep, query


class TestFabrication:
    def test_victim_state_is_polluted_but_attributable(self):
        dep, _query = _build("fabricating")
        # The lie propagated into c's aggregate:
        assert dep.nodes["c"].app.has_tuple(best_cost("c", "d", 1))
        # ... and the effects query from the fabricated belief finds it.
        fwd = QueryProcessor(dep).effects(cost("c", "d", "b", 1), node="c",
                                          scope=6)
        tups = {v.tup for v in fwd.vertices() if v.tup is not None}
        assert best_cost("c", "d", 1) in tups


class TestSuppression:
    def test_suppressed_update_leaves_stale_belief(self):
        # b's -cost/+cost updates to c were dropped, so c's table is stale
        # — and the backward chain is legitimately black: c's belief was
        # correctly derived when it was established. Damage assessment at
        # b is the row's verdict.
        dep, _query = _build("suppressing")
        assert dep.nodes["c"].app.has_tuple(cost("c", "d", "b", 5))
        assert QueryProcessor(dep).why(best_cost("c", "d", 5)).is_clean()


class TestWithheldConsistencyCheck:
    @pytest.mark.parametrize("name", [
        "rewritten-insert-behind-withholders",
        "fork-visible-only-in-evidence",
    ])
    def test_an_audit_of_the_liar_alone_misses_it(self, name):
        # Ablation: when the peers refuse the consistency check, a
        # self-consistent lie — an input entry rewritten with its chain
        # rebuilt, or a fork — is NOT caught by an audit of the liar
        # alone (nothing held, nobody answers): the reason the paper's
        # consistency check exists. The row's prefetch, which holds the
        # peers' logs, convicts.
        dep, _query = _build(name)
        assert QueryProcessor(dep).mq.view_of("b").status == "ok"


class TestSilence:
    def test_recovery_after_node_starts_answering(self):
        dep, _query = _build("silent")
        qp = QueryProcessor(dep)
        first = qp.why(best_cost("c", "d", 5))
        assert first.yellow_vertices()
        dep.nodes["b"].refuse_retrieve = False
        qp.mq.invalidate("b")
        second = qp.why(best_cost("c", "d", 5))
        assert not second.yellow_vertices()
        assert second.is_clean()


class _SplitStrippingForker(ForkingNode, SplitStrippingNode):
    """Forks its log below what its reducer holds, and strips its split."""


class TestWithheldInput:
    def test_the_next_refresh_rebuilds_the_view(self):
        # A withheld split leaves the mapper unresolved, not convicted:
        # once it serves its text, a refresh rebuilds its view.
        dep, query, _run_further = hadoop_mapper_serving(
            SplitStrippingNode)()
        qp = QueryProcessor(dep)
        assert query(qp).verdict() == "yellow"
        assert qp.mq.view_of("map1").status == "unreachable"
        dep.nodes["map1"].__class__ = SNooPyNode
        qp.refresh()
        assert qp.mq.view_of("map1").status == "ok"
        assert query(qp).is_clean()

    def test_withholding_its_split_hides_no_fork(self):
        # Replay stops at the withheld split, yet the chain the mapper
        # served is still checked against the evidence its reducer holds.
        dep, _query, _run_further = hadoop_mapper_serving(
            _SplitStrippingForker)()
        dep.nodes["map1"].fork_log(keep_upto=1)
        view = QueryProcessor(dep).prefetch()["map1"]
        assert view.status == "proven-faulty"
        assert "returned log ends at 1 but evidence covers 2" \
            in view.verdict_reason


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
        dep, _query = _build("misreceiving-acked")
        sent, logged = dep.nodes["c"].misreceived
        assert sent.src == "b" and logged != sent
        assert [(w["receiver"], w["sender"])
                for w in dep.maintainer.rejected_wires] == [("b", "c")]
        acked = [m for e in dep.nodes["b"].log.entries if e.entry_type == ACK
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
        assert not any(e.content[7] == batch.auth.signature
                       for e in dep.nodes[batch.dst].log.entries
                       if e.entry_type == RCV)
        assert QueryProcessor(dep).mq.view_of(batch.dst).status == "ok"

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
        assert not any(e.content[7] == batch.auth.signature
                       for e in receiver.log.entries if e.entry_type == RCV)
        assert QueryProcessor(dep).mq.view_of(batch.dst).status == "ok"
        decoder = FrameDecoder(ServiceMeter())
        [pushed] = decoder.feed(
            encode_frame({"response": receiver.retrieve()}))
        assert decoder.meter.corrupt_frames == 0
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
        decoder = FrameDecoder(ServiceMeter())
        [pushed] = decoder.feed(
            encode_frame({"response": sender.retrieve()}))
        assert decoder.meter.corrupt_frames == 0
        assert len(pushed["response"].entries) == len(sender.log)
        assert QueryProcessor(dep).mq.view_of(sent.node).status == "ok"


class TestInputLying:
    def test_the_lie_is_the_visible_root_cause(self):
        # Section 4.2's first limitation: lying about local inputs cannot
        # be detected automatically (the row's verdict is clean). The
        # provenance is accurate — it shows the lying insert as the root
        # cause, for the human to judge.
        dep, query = _build("input-liar")
        result = query(QueryProcessor(dep))
        assert [v for v in result.vertices()
                if v.vtype == "insert" and v.tup == link("b", "d", 1)]


class TestAnchoring:
    def test_only_the_audited_head_tells_the_two_histories_apart(self):
        # the row's conviction comes from the anchoring fetch, and every
        # owed authenticator lies on the fork too
        dep, _query = _build("two-faced-anchor")
        qp = QueryProcessor(dep, use_checkpoints=True)
        assert qp.mq.view_of("b").status == "proven-faulty"
        assert qp.mq.stats.anchor_fetches == 1
        assert qp.mq.pending_skipped("b")


class TestMirroredFork:
    @pytest.mark.parametrize("harvested", ["earlier-batch", "same-batch"])
    def test_same_fork_served_by_a_mirror_on_an_extend(self, harvested):
        # check: the mirror policy's extend branch — whichever batch
        # harvested the contradicting evidence, verification fails before
        # replay and the stale view stays
        dep, _query, _run_further = mincost(
            overrides=withholding_peers(b=ForkThenCrashNode))()
        b = dep.nodes["b"]
        b.refuse_retrieve = b.refuse_consistency = False
        qp = QueryProcessor(dep)
        view = qp.prefetch()["b"]
        head, replayed = view.head_index, view.replay.events_replayed
        b.insert(link("b", "q", 4))   # a logs b's newer authenticators
        dep.run()
        if harvested == "earlier-batch":
            qp.refresh("a")
        b.fork_log(keep_upto=head)    # forks *above* the audited head,
        b.insert(link("b", "r", 9))   # runs on, is mirrored, crashes
        dep.run()
        dep.replicate_deltas()
        b.refuse_retrieve = True
        qp.refresh()
        after = qp.mq.view_of("b")
        # the stale verified view is kept, still extendable: its replay
        # never left the committed head
        assert after is view and after.status == "ok"
        assert after.head_index == head
        assert after.replay.events_replayed == replayed
        assert {qp.mq.view_of(n).status for n in "acde"} == {"ok"}
