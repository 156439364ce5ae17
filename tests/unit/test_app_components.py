"""Unit tests for application components: BGP policy logic, Chord ring
math, MapReduce partitioning — the deterministic kernels the integration
scenarios depend on."""

import pytest

from repro.apps.bgp import (
    BgpDaemon, CUSTOMER, PEER, PROVIDER, RELATIONSHIP_PREF,
)
from repro.apps.chord import in_halfopen_arc, ring_distance
from repro.apps.mapreduce import (
    MapReduceApp, CorruptWordCountApp, content_hash, partition_for,
)


class TestBgpDaemonSelection:
    def _daemon(self, **kwargs):
        return BgpDaemon(
            "me", {"cust": CUSTOMER, "peer": PEER, "prov": PROVIDER},
            **kwargs,
        )

    def test_customer_routes_preferred(self):
        daemon = self._daemon()
        best = daemon.select("p", [
            (("prov", "o"), "prov"),
            (("cust", "x", "o"), "cust"),   # longer but customer
        ])
        assert best == (("me", "cust", "x", "o"), "cust")

    def test_shorter_path_breaks_pref_ties(self):
        daemon = BgpDaemon("me", {"c1": CUSTOMER, "c2": CUSTOMER})
        best = daemon.select("p", [
            (("c1", "x", "o"), "c1"),
            (("c2", "o"), "c2"),
        ])
        assert best == (("me", "c2", "o"), "c2")

    def test_loopy_paths_rejected(self):
        daemon = self._daemon()
        assert daemon.select("p", [(("cust", "me", "o"), "cust")]) is None

    def test_origination_wins(self):
        daemon = self._daemon(originated=["p"])
        best = daemon.select("p", [(("cust", "o"), "cust")])
        assert best == (("me",), None)

    def test_pref_override(self):
        daemon = self._daemon(pref_override={("p", "prov"): 999})
        best = daemon.select("p", [
            (("prov", "o"), "prov"),
            (("cust", "o"), "cust"),
        ])
        assert best[1] == "prov"


class TestBgpExportPolicy:
    def _daemon(self, export_filter=None):
        return BgpDaemon(
            "me", {"cust": CUSTOMER, "peer": PEER, "prov": PROVIDER},
            export_filter=export_filter,
        )

    def test_customer_routes_export_everywhere(self):
        daemon = self._daemon()
        path = ("me", "cust", "o")
        for nbr in ("peer", "prov"):
            assert daemon.should_export(nbr, "p", path, "cust")

    def test_peer_routes_only_to_customers(self):
        daemon = self._daemon()
        path = ("me", "peer", "o")
        assert daemon.should_export("cust", "p", path, "peer")
        assert not daemon.should_export("prov", "p", path, "peer")

    def test_provider_routes_only_to_customers(self):
        daemon = self._daemon()
        path = ("me", "prov", "o")
        assert daemon.should_export("cust", "p", path, "prov")
        assert not daemon.should_export("peer", "p", path, "prov")

    def test_never_export_back(self):
        daemon = self._daemon()
        assert not daemon.should_export("cust", "p", ("me", "cust", "o"),
                                        "cust")

    def test_originated_routes_export_everywhere(self):
        daemon = self._daemon()
        for nbr in ("cust", "peer", "prov"):
            assert daemon.should_export(nbr, "p", ("me",), None)

    def test_custom_filter_vetoes(self):
        daemon = self._daemon(
            export_filter=lambda nbr, pfx, path: "bad" not in path)
        assert not daemon.should_export("cust", "p",
                                        ("me", "cust", "bad", "o"), "cust")

    def test_relationship_pref_ladder(self):
        assert RELATIONSHIP_PREF[CUSTOMER] > RELATIONSHIP_PREF[PEER] \
            > RELATIONSHIP_PREF[PROVIDER]


class TestChordRingMath:
    def test_ring_distance_wraps(self):
        assert ring_distance(10, 3, 4) == 9   # (3-10) mod 16
        assert ring_distance(3, 10, 4) == 7
        assert ring_distance(5, 5, 4) == 0

    def test_halfopen_arc_basic(self):
        assert in_halfopen_arc(5, 3, 8, 4)
        assert in_halfopen_arc(8, 3, 8, 4)    # right end inclusive
        assert not in_halfopen_arc(3, 3, 8, 4)  # left end exclusive
        assert not in_halfopen_arc(9, 3, 8, 4)

    def test_halfopen_arc_wrapping(self):
        assert in_halfopen_arc(1, 14, 3, 4)   # arc wraps through 0
        assert in_halfopen_arc(15, 14, 3, 4)
        assert not in_halfopen_arc(10, 14, 3, 4)

    def test_degenerate_single_node_arc(self):
        assert in_halfopen_arc(7, 5, 5, 4)    # single node owns everything


class TestMapReduceKernels:
    def test_partition_deterministic_and_balanced(self):
        words = [f"word{i}" for i in range(200)]
        parts = [partition_for(w, 4) for w in words]
        assert parts == [partition_for(w, 4) for w in words]
        for bucket in range(4):
            assert parts.count(bucket) > 10  # roughly balanced

    def test_content_hash_stability(self):
        assert content_hash("abc") == content_hash("abc")
        assert content_hash("abc") != content_hash("abd")

    def test_map_function_offsets(self):
        app = MapReduceApp("m")
        out = app.map_function("a bb ccc")
        assert out == [("a", 0), ("bb", 2), ("ccc", 5)]

    def test_corrupt_mapper_injects_exact_count(self):
        honest = MapReduceApp("m")
        corrupt = CorruptWordCountApp("m", target_word="x", extra_count=7)
        text = "x y z"
        assert len(corrupt.map_function(text)) == \
            len(honest.map_function(text)) + 7

    def test_reduce_waits_for_all_mappers(self):
        from repro.apps.mapreduce import reduce_task, shuffle_block
        from repro.model import Msg, PLUS
        app = MapReduceApp("r")
        app.handle_insert(reduce_task("r", "j", ("m0", "m1")), 0.0)
        block0 = shuffle_block("r", "j", "m0", (("w", 2),))
        outs = app.handle_receive(
            Msg(PLUS, block0, "m0", "r", 0, 0.5), 0.6)
        assert not [o for o in outs
                    if getattr(o, "tup", None) is not None
                    and o.tup.relation == "output"]
        block1 = shuffle_block("r", "j", "m1", (("w", 3),))
        outs = app.handle_receive(
            Msg(PLUS, block1, "m1", "r", 0, 0.7), 0.8)
        outputs = [o.tup for o in outs
                   if getattr(o, "tup", None) is not None
                   and o.tup.relation == "output"]
        assert outputs == [
            __import__("repro.apps.mapreduce",
                       fromlist=["output_tuple"]).output_tuple(
                "r", "j", "w", 5)
        ]

    def test_outputs_emitted_once(self):
        from repro.apps.mapreduce import reduce_task, shuffle_block
        from repro.model import Msg, PLUS
        app = MapReduceApp("r")
        app.handle_insert(reduce_task("r", "j", ("m0",)), 0.0)
        block = shuffle_block("r", "j", "m0", (("w", 2),))
        first = app.handle_receive(Msg(PLUS, block, "m0", "r", 0, 0.5), 0.6)
        dup = shuffle_block("r", "j", "m0", ())
        second = app.handle_receive(Msg(PLUS, dup, "m0", "r", 1, 0.7), 0.8)
        assert any(getattr(o, "tup", None) is not None
                   and o.tup.relation == "output" for o in first)
        assert not any(getattr(o, "tup", None) is not None
                       and o.tup.relation == "output" for o in second)
