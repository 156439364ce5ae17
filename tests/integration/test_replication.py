"""Log replication extension (paper Section 5.8).

The paper notes SNooPy has no built-in redundancy: an adversary that
destroys a node's provenance state disconnects parts of the graph (yellow
vertices), and suggests replicating each log as mitigation. This extension
implements that: replicas hold verifiable mirror copies (hash chain +
origin-signed head), and the microquery module falls back to them when
retrieve goes unanswered.
"""

from repro.apps.mincost import best_cost, build_paper_network, cost, link
from repro.model import Tup
from repro.snp import Deployment, QueryProcessor
from repro.snp.adversary import SilentNode, TamperingNode
from repro.snp.evidence import AUTHENTICATOR_BYTES
from repro.snp.log import INS, LogEntry


def _silent_b_network(seed=300, replicate=True):
    dep = Deployment(seed=seed, key_bits=256)
    nodes = build_paper_network(dep, node_overrides={"b": SilentNode})
    dep.run()
    nodes["b"].refuse_retrieve = False   # cooperative during replication
    if replicate:
        dep.replicate_deltas(replication_factor=2)
    nodes["b"].refuse_retrieve = True    # then destroyed / silent
    return dep, nodes


class TestReplicationRecovery:
    def test_without_replication_query_is_yellow(self):
        dep, nodes = _silent_b_network(replicate=False)
        result = QueryProcessor(dep).why(best_cost("c", "d", 5))
        assert any(v.node == "b" for v in result.yellow_vertices())

    def test_mirror_resolves_silent_node(self):
        dep, nodes = _silent_b_network(replicate=True)
        result = QueryProcessor(dep).why(best_cost("c", "d", 5))
        assert result.is_clean()
        assert not result.yellow_vertices()

    def test_mirror_view_matches_direct_view(self):
        dep, nodes = _silent_b_network(replicate=True)
        qp_mirror = QueryProcessor(dep)
        view_mirror = qp_mirror.mq.view_of("b")
        nodes["b"].refuse_retrieve = False
        qp_direct = QueryProcessor(dep)
        view_direct = qp_direct.mq.view_of("b")
        assert view_mirror.status == view_direct.status == "ok"
        assert {v.key() for v in view_mirror.graph.vertices()} == \
            {v.key() for v in view_direct.graph.vertices()}

    def test_mirrors_are_distributed(self):
        dep, nodes = _silent_b_network(replicate=True)
        holders = [n for n in dep.nodes.values()
                   if n.mirror_of("b") is not None]
        assert len(holders) >= 2

    def test_longest_mirror_wins(self):
        dep = Deployment(seed=301, key_bits=256)
        nodes = build_paper_network(dep)
        dep.run()
        dep.replicate_deltas()
        # More activity, then re-replicate: mirrors must advance.
        before = dep.find_mirror("b").head_auth.index
        nodes["b"].insert(link("b", "z", 7))
        dep.run()
        dep.replicate_deltas()
        after = dep.find_mirror("b").head_auth.index
        assert after > before


class TestReplicationTraffic:
    """Replication is real wire traffic: every pushed log segment is
    charged to the origin under the ``replication`` category (plus one
    head authenticator per push), so the Figure-5-style overhead story
    includes what keeping replicas fresh costs."""

    def test_full_replication_charges_exact_bytes(self):
        dep = Deployment(seed=310, key_bits=256)
        build_paper_network(dep)
        dep.run()
        assert dep.traffic.totals()["replication"] == 0
        dep.replicate_deltas(replication_factor=2)
        expected = 0
        for node in dep.nodes.values():
            segment = sum(e.size_bytes() for e in node.log.entries)
            expected += 2 * (segment + AUTHENTICATOR_BYTES)
        assert dep.traffic.totals()["replication"] == expected
        assert dep.traffic.replication_pushes == 2 * len(dep.nodes)

    def test_delta_replication_charges_only_the_suffix(self):
        dep = Deployment(seed=311, key_bits=256)
        nodes = build_paper_network(dep)
        dep.run()
        dep.replicate_deltas(replication_factor=2)
        after_full = dep.traffic.totals()["replication"]
        assert after_full > 0

        # Quiescent pass ships nothing, so it charges nothing.
        assert dep.replicate_deltas(replication_factor=2) == 0
        assert dep.traffic.totals()["replication"] == after_full

        # New activity: the next pass charges the suffixes, not the logs.
        heads = {name: len(node.log) for name, node in dep.nodes.items()}
        nodes["a"].insert(link("a", "z", 2))
        dep.run()
        pushes = dep.replicate_deltas(replication_factor=2)
        assert pushes > 0
        delta = dep.traffic.totals()["replication"] - after_full
        expected = 0
        for name, node in dep.nodes.items():
            suffix, _start, _anchor = node.log.after(heads[name])
            if suffix:
                expected += 2 * (
                    sum(e.size_bytes() for e in suffix)
                    + AUTHENTICATOR_BYTES
                )
        assert delta == expected
        full_log_bytes = 2 * sum(
            sum(e.size_bytes() for e in node.log.entries)
            for node in dep.nodes.values()
        )
        assert delta < full_log_bytes / 4

    def test_per_node_attribution(self):
        dep = Deployment(seed=312, key_bits=256)
        build_paper_network(dep)
        dep.run()
        dep.replicate_deltas(replication_factor=1)
        for name, node in dep.nodes.items():
            segment = sum(e.size_bytes() for e in node.log.entries)
            assert dep.traffic.node_totals(name)["replication"] == \
                segment + AUTHENTICATOR_BYTES


class TestReplicationCannotFrame:
    def test_tampered_mirror_is_rejected_not_blamed(self):
        """A malicious replica that rewrites its mirror cannot make the
        origin look faulty: the chain no longer verifies, so the mirror is
        simply unusable evidence (the origin stays yellow, never red)."""
        dep, nodes = _silent_b_network(seed=302, replicate=True)
        for node in dep.nodes.values():
            mirror = node.mirror_of("b")
            if mirror is not None:
                # Corrupt every mirror copy in place.
                mirror.entries[0].content = ("forged",)
        result = QueryProcessor(dep).why(best_cost("c", "d", 5))
        # b cannot be *proven* faulty from forged mirrors: its vertices
        # stay yellow (suspect), never red.
        assert "b" not in {v.node for v in result.red_vertices()}
        assert any(v.node == "b" for v in result.yellow_vertices())
        qp = QueryProcessor(dep)
        view = qp.mq.view_of("b")
        assert view.status == "unreachable"
        assert "bad mirror" in view.verdict_reason

    def test_lying_replica_cannot_convict_a_crashed_node(self):
        """Replay reads an entry's *parsed* form, the hash chain commits
        to its *content*, and whoever serves a segment chooses both. The
        replicas of an honest, merely crashed ``b`` swap the tuple its
        first insert logged for a costlier one — committed content,
        content hashes, chain hashes and ``b``'s signed head stay
        byte-identical. Unchecked, replay diverges from ``b``'s logged
        sends and convicts ``b`` red (22 red vertices); the build step
        now holds every parsed form to its commitment, so this is a bad
        mirror and ``b`` stays what it is: unreachable, yellow."""
        dep, _nodes = _silent_b_network(seed=300)
        # each replica holds its own copy of b's log
        mirrors = {id(m): m for m in (node.mirror_of("b")
                                      for node in dep.nodes.values())
                   if m is not None}
        for mirror in mirrors.values():
            at = next(i for i, e in enumerate(mirror.entries)
                      if e.entry_type == INS)
            e = mirror.entries[at]
            tup = e.aux["tup"]
            lie = Tup(tup.relation, tup.loc, *tup.args[:-1],
                      tup.args[-1] + 1)
            mirror.entries = list(mirror.entries)
            mirror.entries[at] = LogEntry(
                e.index, e.timestamp, e.entry_type, e.content,
                e.content_hash, e.entry_hash, aux={"tup": lie})
        with QueryProcessor(dep) as qp:
            view = qp.mq.view_of("b")
            assert view.status == "unreachable"
            assert view.verdict_reason.startswith("bad mirror: ")
            assert "parsed form does not re-derive its committed content" \
                in view.verdict_reason
            result = qp.why(cost("a", "c", "b", 8))
            assert result.verdict() == "yellow"
            assert result.faulty_nodes() == []
