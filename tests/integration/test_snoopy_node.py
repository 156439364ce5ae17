"""SNooPyNode machinery: commitment protocol, checkpoints, batching,
missing-ack alarms, retrieve semantics."""

import pytest

from repro.apps.mincost import best_cost, build_paper_network, link
from repro.snp import Deployment, QueryProcessor
from repro.snp.log import SND, RCV, ACK, INS, CHK


class TestCommitmentProtocol:
    def test_every_send_gets_ack_entry(self, mincost_net):
        dep, nodes = mincost_net
        for node in nodes.values():
            snd_count = sum(1 for e in node.log.entries
                            if e.entry_type == SND)
            ack_count = sum(len(e.aux["wire_ack"].msgs)
                            for e in node.log.entries
                            if e.entry_type == ACK)
            assert ack_count == snd_count

    def test_no_missing_ack_alarms_in_healthy_run(self, mincost_net):
        dep, nodes = mincost_net
        assert dep.maintainer.missing_ack_alarms == []
        assert dep.maintainer.rejected_wires == []

    def test_authenticators_accumulate(self, mincost_net):
        dep, nodes = mincost_net
        # Every node that received traffic holds evidence about its peers.
        c = nodes["c"]
        assert c.received_auths  # at least one peer
        for peer, auths in c.received_auths.items():
            assert auths

    def test_crashed_receiver_raises_alarm(self):
        dep = Deployment(seed=3, key_bits=256)
        nodes = build_paper_network(dep)
        dep.run()
        dep.drop_wires_to("c")  # c crashes (stops receiving)
        nodes["b"].insert(link("b", "z", 9))  # triggers updates toward c
        dep.run()
        alarms = dep.maintainer.missing_ack_alarms
        assert any(a["node"] == "b" and a["dst"] == "c" for a in alarms)

    def test_alarmed_sends_not_red(self):
        dep = Deployment(seed=3, key_bits=256)
        nodes = build_paper_network(dep)
        dep.run()
        dep.drop_wires_to("c")
        nodes["b"].insert(link("b", "z", 9))
        dep.run()
        nodes["b"].insert(link("b", "z2", 9))  # later event would flag
        dep.run()
        qp = QueryProcessor(dep)
        view = qp.mq.view_of("b")
        assert view.status == "ok"
        assert not view.graph.red_vertices()


class TestCheckpoints:
    def test_checkpoint_entry_recorded(self, mincost_net):
        dep, nodes = mincost_net
        nodes["c"].checkpoint()
        assert any(e.entry_type == CHK for e in nodes["c"].log.entries)

    def test_retrieve_from_checkpoint_shortens_segment(self, mincost_net):
        dep, nodes = mincost_net
        full = nodes["c"].retrieve()
        nodes["c"].checkpoint()
        seg = nodes["c"].retrieve(from_checkpoint=True)
        assert len(seg.entries) < len(full.entries) + 2
        assert seg.seed is seg.entries[0]
        assert seg.seed.entry_type == CHK and seg.seeds_rebuild
        assert seg.start_hash == nodes["c"].log.hash_at(seg.start_index - 1)

    def test_checkpointed_query_still_correct(self):
        dep = Deployment(seed=8, key_bits=256)
        nodes = build_paper_network(dep)
        dep.run()
        dep.checkpoint_all()
        # Cause more activity after the checkpoint.
        nodes["b"].insert(link("b", "z", 4))
        dep.run()
        qp = QueryProcessor(dep, use_checkpoints=True)
        result = qp.why(best_cost("c", "d", 5))
        assert result.root is not None
        # All vertices resolved from checkpoint-seeded replays are sound:
        # nothing is red on this healthy network.
        assert not result.red_vertices()

    def test_checkpoint_download_smaller(self):
        dep = Deployment(seed=8, key_bits=256)
        nodes = build_paper_network(dep)
        dep.run()
        dep.checkpoint_all()
        nodes["b"].insert(link("b", "z", 4))
        dep.run()
        full_qp = QueryProcessor(dep, use_checkpoints=False)
        r_full = full_qp.why(best_cost("c", "d", 5))
        chk_qp = QueryProcessor(dep, use_checkpoints=True)
        r_chk = chk_qp.why(best_cost("c", "d", 5))
        assert r_chk.stats.log_bytes < r_full.stats.log_bytes


class TestBatching:
    def _traffic(self, t_batch):
        dep = Deployment(seed=5, key_bits=256, t_batch=t_batch)
        build_paper_network(dep)
        dep.run()
        return dep

    def test_batching_reduces_signatures(self):
        plain = self._traffic(0.0)
        batched = self._traffic(0.1)
        assert batched.crypto_counter_totals().signatures < \
            plain.crypto_counter_totals().signatures

    def test_batching_reduces_wire_overhead(self):
        plain = self._traffic(0.0)
        batched = self._traffic(0.1)
        assert batched.traffic.overhead_factor() < \
            plain.traffic.overhead_factor()

    def test_batching_preserves_correctness(self):
        dep = self._traffic(0.1)
        qp = QueryProcessor(dep)
        result = qp.why(best_cost("c", "d", 5))
        assert result.is_clean()

    def test_batches_carry_multiple_messages(self):
        dep = self._traffic(0.1)
        assert dep.traffic.messages_sent > dep.traffic.batches_sent


class TestRetrieve:
    def test_empty_log_returns_none(self, deployment):
        from repro.apps.mincost import mincost_factory
        node = deployment.add_node("lonely", mincost_factory())
        assert node.retrieve() is None
        assert node.head_authenticator() is None

    def test_head_authenticator_matches_log(self, mincost_net):
        dep, nodes = mincost_net
        auth = nodes["c"].head_authenticator()
        assert auth.index == len(nodes["c"].log)
        assert auth.entry_hash == nodes["c"].log.head_hash()

    def test_retrieve_covers_whole_log(self, mincost_net):
        dep, nodes = mincost_net
        response = nodes["c"].retrieve()
        assert response.start_index == 1
        assert len(response.entries) == len(nodes["c"].log)
