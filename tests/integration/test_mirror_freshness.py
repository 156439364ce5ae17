"""Mirror freshness: delta replication keeps replica sets current.

``Deployment.replicate_deltas`` re-pushes each log's *suffix* to the
replica set (spliced by ``LogCopy.store``); ``enable_replication``
installs a standing cadence so a running deployment keeps its replicas
fresh without anyone calling replicate by hand — which is what lets
``find_mirror(since_index=)`` serve view *refreshes* for origins that
have since crashed.
"""

import pytest

from repro.apps.mincost import best_cost, build_paper_network, link
from repro.snp import Deployment, QueryProcessor
from repro.snp.snoopy import LogCopy
from repro.util.errors import ConfigurationError


def _net(seed=55):
    dep = Deployment(seed=seed, key_bits=256)
    nodes = build_paper_network(dep)
    dep.run()
    return dep, nodes


def _mirror_holders(dep, origin):
    return [n for n in dep.nodes.values()
            if n.node_id != origin and n.mirror_of(origin) is not None]


class TestReplicateDeltas:
    def test_first_pass_pushes_full_copies(self):
        dep, _nodes = _net()
        pushes = dep.replicate_deltas(replication_factor=2)
        assert pushes > 0
        holders = _mirror_holders(dep, "a")
        assert len(holders) == 2
        origin_log = dep.node("a").log
        for holder in holders:
            mirror = holder.mirror_of("a")
            assert mirror.start_index == 1
            assert len(mirror.entries) == len(origin_log)
            assert mirror.head_auth.index == len(origin_log)

    def test_second_pass_splices_only_the_suffix(self):
        dep, nodes = _net()
        dep.replicate_deltas()
        holder = _mirror_holders(dep, "a")[0]
        first_entry = holder.mirror_of("a").entries[0]
        old_head = holder.mirror_of("a").head_auth.index

        nodes["a"].insert(link("a", "z", 2))
        dep.run()
        dep.replicate_deltas()

        mirror = holder.mirror_of("a")
        origin_log = dep.node("a").log
        assert mirror.head_auth.index == len(origin_log) > old_head
        assert len(mirror.entries) == len(origin_log)
        # The stored prefix was kept, not re-shipped: same entry objects.
        assert mirror.entries[0] is first_entry

    def test_quiescent_pass_pushes_nothing(self):
        dep, _nodes = _net()
        dep.replicate_deltas()
        assert dep.replicate_deltas() == 0


class TestLogCopy:
    def test_bare_suffix_without_base_is_rejected(self):
        dep, _nodes = _net()
        suffix = dep.node("a").retrieve(since_index=2)
        assert suffix.start_index == 3
        copy = LogCopy("a")
        assert not copy.store(suffix)
        assert not copy and copy.serve() is None

    def test_non_contiguous_suffix_is_rejected(self):
        dep, _nodes = _net()
        full = dep.node("a").retrieve()
        # A stored copy holding only entries 1..2 cannot splice a suffix
        # that starts at entry 4 — the gap would be unverifiable.
        short = full.__class__(
            node=full.node, entries=full.entries[:2], start_index=1,
            start_hash=full.start_hash, head_auth=full.head_auth,
        )
        gapped = dep.node("a").retrieve(since_index=3)
        assert gapped.start_index == 4
        copy = LogCopy("a")
        assert copy.store(short)
        assert not copy.store(gapped)
        assert copy.head_index == 2

    def test_longer_full_copy_replaces_shorter(self):
        dep, nodes = _net()
        old_full = dep.node("a").retrieve()
        nodes["a"].insert(link("a", "z", 2))
        dep.run()
        new_full = dep.node("a").retrieve()
        copy = LogCopy("a")
        assert copy.store(old_full)
        assert copy.store(new_full)
        assert copy.entries == new_full.entries
        assert copy.head_auth is new_full.head_auth
        assert not copy.store(old_full)
        assert copy.head_auth is new_full.head_auth

    def test_a_served_response_is_a_snapshot(self):
        dep, nodes = _net()
        origin = dep.node("a")
        copy = LogCopy("a")
        assert copy.store(origin.retrieve())
        head = copy.head_index
        served = copy.serve()
        nodes["a"].insert(link("a", "z", 2))
        dep.run()
        assert copy.store(origin.retrieve(since_index=head))
        assert copy.head_index == len(origin.log) > head
        # The splice grew the stored copy, not what was served before it.
        assert served.head_index == head
        assert len(served.entries) == head


class TestReplicationCadence:
    def test_enable_replication_validates_interval(self):
        dep, _nodes = _net()
        with pytest.raises(ConfigurationError):
            dep.enable_replication(0)

    def test_run_until_ticks_the_cadence(self):
        dep, nodes = _net()
        dep.enable_replication(1.0, replication_factor=2)
        nodes["a"].insert(link("a", "z", 2))
        dep.run_until(dep.sim.now + 5.0)
        holders = _mirror_holders(dep, "a")
        assert holders
        assert holders[0].mirror_of("a").head_auth.index \
            == len(dep.node("a").log)

    def test_run_performs_a_quiescence_pass(self):
        dep, nodes = _net()
        dep.enable_replication(10.0)
        nodes["a"].insert(link("a", "z", 2))
        dep.run()
        holders = _mirror_holders(dep, "a")
        assert holders
        assert holders[0].mirror_of("a").head_auth.index \
            == len(dep.node("a").log)


class TestCrashThenRefresh:
    def test_refresh_of_crashed_origin_served_from_fresh_mirror(self):
        dep, nodes = _net(seed=61)
        dep.enable_replication(5.0)
        qp = QueryProcessor(dep)
        qp.why(best_cost("c", "d", 5))
        view = qp.mq.view_of("a")
        old_head = view.head_index

        # The origin runs further; the cadence keeps its replicas fresh.
        nodes["a"].insert(link("a", "z", 2))
        dep.run()
        new_head = len(dep.node("a").log)
        assert new_head > old_head

        # Crash the origin *after* replication: retrieve goes dark.
        dep.nodes["a"].retrieve = lambda **kwargs: None
        before = qp.mq.stats.copy()
        qp.refresh()
        delta = qp.mq.stats.delta_since(before)

        refreshed = qp.mq.view_of("a")
        assert refreshed.status == "ok"
        assert refreshed.head_index == new_head
        assert delta.delta_fetches >= 1  # the mirror served a suffix
        del dep.nodes["a"].retrieve

    def test_without_replication_the_crashed_origin_stays_stale(self):
        dep, nodes = _net(seed=62)
        qp = QueryProcessor(dep)
        qp.why(best_cost("c", "d", 5))
        old_head = qp.mq.view_of("a").head_index
        nodes["a"].insert(link("a", "z", 2))
        dep.run()
        dep.nodes["a"].retrieve = lambda **kwargs: None
        qp.refresh()
        view = qp.mq.view_of("a")
        assert view.status == "ok"
        assert view.head_index == old_head  # stale but verified
        del dep.nodes["a"].retrieve
