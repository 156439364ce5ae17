"""Application-level integration: path-vector, Chord, BGP, MapReduce.

These are the paper's Section 6/7 scenarios at test scale: Chord lookups
with an Eclipse attacker, the Quagga-Disappear and Quagga-BadGadget
queries, and the Hadoop-Squirrel corrupt mapper.
"""

import pytest

from repro.apps import pathvector
from repro.apps.bgp import (
    announce, build_bad_gadget, build_disappear_scenario, route,
    trigger_disappear,
)
from repro.apps.chord import ChordNetwork, lookup_result
from repro.apps.mapreduce import WordCountJob, OFFSETS, COMBINED
from repro.model import Tup
from repro.snp import Deployment, QueryProcessor
from repro.snp.adversary import FabricatorNode
from repro.workloads import ZipfCorpus


class TestPathVector:
    @pytest.fixture(scope="class")
    def net(self):
        dep = Deployment(seed=61, key_bits=256)
        edges = [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]
        nodes = pathvector.build_network(dep, edges)
        dep.run()
        return dep, nodes

    def test_shortest_paths_selected(self, net):
        dep, nodes = net
        best = nodes["a"].app.tuples_of("bestRoute")
        by_dest = {t.args[0]: t.args[1] for t in best}
        assert by_dest["b"] == ("a", "b")
        assert by_dest["c"] in (("a", "b", "c"), ("a", "d", "c"))
        assert len(by_dest["c"]) == 3

    def test_no_loops_in_any_route(self, net):
        dep, nodes = net
        for node in nodes.values():
            for tup in node.app.tuples_of("route"):
                path = tup.args[1]
                assert len(path) == len(set(path))

    def test_link_failure_reroutes(self, net):
        dep, nodes = net
        nodes["a"].delete(pathvector.link("a", "b"))
        nodes["b"].delete(pathvector.link("b", "a"))
        dep.run()
        best = {t.args[0]: t.args[1]
                for t in nodes["a"].app.tuples_of("bestRoute")}
        assert best["b"] == ("a", "d", "c", "b")

    def test_route_provenance_clean(self, net):
        dep, nodes = net
        qp = QueryProcessor(dep)
        best = {t.args[0]: t.args[1]
                for t in nodes["a"].app.tuples_of("bestRoute")}
        result = qp.why(pathvector.best_route("a", "b", best["b"]))
        assert result.is_clean()


class TestChord:
    @pytest.fixture(scope="class")
    def ring(self):
        dep = Deployment(seed=62, key_bits=256)
        net = ChordNetwork(dep, n_nodes=8, ring_bits=10, seed=5)
        net.bootstrap(neighbors=2)
        net.stabilize(rounds=2)
        return dep, net

    def test_successors_follow_ring_order(self, ring):
        dep, net = ring
        members = net.members
        for index, (name, _rid) in enumerate(members):
            succs = dep.node(name).app.tuples_of("succ")
            assert len(succs) == 1
            expected = members[(index + 1) % len(members)][0]
            assert succs[0].args[0] == expected

    def test_fingers_populated(self, ring):
        dep, net = ring
        for name, _rid in net.members:
            assert dep.node(name).app.tuples_of("finger")

    def test_lookup_resolves_to_true_owner(self, ring):
        dep, net = ring
        for key in (100, 400, 900):
            results = net.lookup("n0", key, f"req-{key}")
            assert results, f"lookup {key} unresolved"
            owner, owner_id = net.owner_of(key)
            assert results[0].args[2] == owner

    def test_lookup_provenance_spans_hops_and_is_clean(self, ring):
        dep, net = ring
        results = net.lookup("n1", 700, "req-prov")
        qp = QueryProcessor(dep)
        res = qp.why(results[0], node="n1")
        assert res.is_clean()
        hops = {str(v.node) for v in res.vertices()}
        assert len(hops) >= 2

    def test_eclipse_by_fabricated_result_detected(self):
        dep = Deployment(seed=63, key_bits=256)
        net = ChordNetwork(dep, n_nodes=8, ring_bits=10, seed=5,
                           node_overrides={"n3": FabricatorNode})
        net.bootstrap(neighbors=2)
        net.stabilize(rounds=2)
        attacker = dep.node("n3")
        bogus = lookup_result("n0", "req-X", 700, "n3",
                              net.ring_id("n3"))
        attacker.fabricate("+", bogus, "n0")
        dep.run()
        qp = QueryProcessor(dep)
        res = qp.why(bogus, node="n0")
        assert "n3" in res.faulty_nodes()

    def test_eclipse_by_input_lie_visible_in_provenance(self):
        # Chord-Finger query: the poisoned finger's provenance bottoms out
        # at the attacker's knownNode insert (black, but attributable).
        dep = Deployment(seed=64, key_bits=256)
        net = ChordNetwork(dep, n_nodes=8, ring_bits=10, seed=5)
        net.bootstrap(neighbors=2)
        claimed = net.poison_known_nodes("n2")
        net.stabilize(rounds=3)
        qp = QueryProcessor(dep)
        # Find a finger somewhere that now points at the attacker's
        # claimed id and trace it.
        for name, _rid in net.members:
            for f in dep.node(name).app.tuples_of("finger"):
                if f.args[2] == claimed:
                    res = qp.why(f, node=name, scope=30)
                    inserts = [v for v in res.vertices()
                               if v.vtype == "insert"
                               and v.tup.relation == "knownNode"
                               and v.tup.args[1] == claimed]
                    assert inserts
                    assert all(v.node == "n2" for v in inserts)
                    return
        pytest.fail("poisoned finger never propagated")


class TestBgpDisappear:
    @pytest.fixture(scope="class")
    def scenario(self):
        dep = Deployment(seed=65, key_bits=256)
        net, prefix = build_disappear_scenario(dep)
        net.converge()
        return dep, net, prefix

    def test_alice_initially_has_route(self, scenario):
        dep, net, prefix = scenario
        assert dep.node("alice").app.tuples_of("route")

    def test_route_disappears_after_trigger(self, scenario):
        dep, net, prefix = scenario
        trigger_disappear(net, prefix)
        assert not dep.node("alice").app.tuples_of("route")

    def test_disappear_query_reaches_j_policy_decision(self, scenario):
        dep, net, prefix = scenario
        qp = QueryProcessor(dep)
        res = qp.why_disappear(
            route("alice", prefix, ("alice", "j", "c1", "mid", "origin")))
        assert res.is_clean()
        # The chain passes j's withdrawn export (its M2 choice token).
        deletes = [v for v in res.vertices()
                   if v.vtype == "delete" and v.node == "j"]
        assert any(v.tup.relation.startswith("__choice__M2")
                   for v in deletes)

    def test_replacement_edge_links_new_route(self, scenario):
        dep, net, prefix = scenario
        qp = QueryProcessor(dep)
        # Section 3.4 constraint: the new route's appearance is causally
        # tied to the old route's disappearance via a replacement edge, so
        # asking why the c2 route appeared explains the c1 route's demise.
        res = qp.why_appear(route("j", prefix, ("j", "c2", "origin")),
                            node="j", scope=6)
        old = route("j", prefix, ("j", "c1", "mid", "origin"))
        disappears = [v for v in res.vertices()
                      if v.vtype == "disappear" and v.tup == old]
        assert disappears


class TestBadGadget:
    def test_oscillation_never_converges(self):
        dep = Deployment(seed=66, key_bits=256)
        net, prefix = build_bad_gadget(dep)
        rounds = net.converge(max_rounds=12)
        assert rounds == 12  # hit the cap: no fixpoint
        flutter = [c for c in net.route_changes if c[0] >= 4]
        assert flutter  # still changing late in the run

    def test_fluttering_route_provenance_is_clean_and_cyclic(self):
        dep = Deployment(seed=67, key_bits=256)
        net, prefix = build_bad_gadget(dep)
        net.converge(max_rounds=10)
        qp = QueryProcessor(dep)
        selection = net.routing_table("as1").get(prefix)
        assert selection is not None
        res = qp.why(route("as1", prefix, selection[0]), scope=30)
        assert res.is_clean()  # a misconfiguration, not an attack
        # The flutter is visible as (dis)appearances of the same prefix's
        # routes in as1's history.
        intervals = qp.history_of(route("as1", prefix, ("as1", "as0")))
        assert len(intervals) >= 2  # appeared and re-appeared


class TestMapReduce:
    def _run_job(self, corrupt=False, granularity=COMBINED, seed=68):
        dep = Deployment(seed=seed, key_bits=256)
        corrupt_spec = (
            {"map1": {"target_word": "squirrel", "extra_count": 25}}
            if corrupt else None
        )
        job = WordCountJob(dep, n_mappers=3, n_reducers=2,
                           granularity=granularity,
                           corrupt_mappers=corrupt_spec)
        corpus = ZipfCorpus(n_words=120, vocabulary=30, seed=3,
                            planted={"squirrel": 5})
        results = job.run(corpus.splits(3))
        return dep, job, corpus, results

    def test_honest_counts_match_ground_truth(self):
        dep, job, corpus, results = self._run_job()
        truth = {}
        for word in corpus.words():
            truth[word] = truth.get(word, 0) + 1
        assert results == truth

    def test_honest_provenance_clean(self):
        dep, job, corpus, results = self._run_job()
        out = job.output_tuple_for("squirrel")
        res = QueryProcessor(dep).why(out)
        assert res.is_clean()
        mappers = {str(v.node) for v in res.vertices()
                   if str(v.node).startswith("map")}
        assert mappers  # provenance reaches the map side

    def test_corrupt_mapper_inflates_count(self):
        dep, job, corpus, results = self._run_job(corrupt=True)
        assert results["squirrel"] == 5 + 25

    def test_squirrel_query_identifies_corrupt_mapper(self):
        dep, job, corpus, results = self._run_job(corrupt=True)
        out = job.output_tuple_for("squirrel")
        res = QueryProcessor(dep).why(out, scope=8)
        assert res.faulty_nodes() == ["map1"]

    def test_offsets_granularity_shows_per_occurrence_vertices(self):
        dep, job, corpus, results = self._run_job(granularity=OFFSETS)
        out = job.output_tuple_for("squirrel")
        # The map-side per-occurrence layer sits ~10 edges below the
        # output (Figure 4's full depth).
        res = QueryProcessor(dep).why(out, scope=14)
        map_outs = [v for v in res.vertices()
                    if v.tup is not None and v.tup.relation == "mapOut"]
        assert len(map_outs) >= results["squirrel"]

    def test_effects_query_bounds_damage(self):
        dep, job, corpus, results = self._run_job(corrupt=True)
        # Which outputs did the corrupt mapper's shuffle data influence?
        from repro.apps.mapreduce import partition_for
        reducer = job.reducers[partition_for("squirrel", 2)]
        node = dep.node(reducer)
        sh = next(t for t in node.app.tuples_of("shuffle")
                  if t.args[1] == "map1" and t.args[2] == "squirrel")
        qp = QueryProcessor(dep)
        res = qp.effects(sh, node=reducer, scope=4)
        touched = {v.tup for v in res.vertices()
                   if v.tup is not None and v.tup.relation == "output"}
        assert any(t.args[1] == "squirrel" for t in touched)
