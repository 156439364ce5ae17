"""Metrics accounting and synthetic workload generators."""

from repro.metrics import TrafficMeter, StorageReport, QueryStats
from repro.model import Msg, Tup, PLUS
from repro.snp.evidence import (
    TIMESTAMP_OVERHEAD_BYTES, AUTHENTICATOR_BYTES, ACK_BYTES,
)
from repro.snp.log import NodeLog, INS, SND
from repro.workloads import (
    RouteViewsTrace, UpdateEvent, ZipfCorpus,
    tiered_as_topology, ring_edges, random_graph_edges,
)


def _msg(i=0):
    return Msg(PLUS, Tup("r", "b", i), "a", "b", i, 1.0)


class TestTrafficMeter:
    def test_batch_accounting(self):
        meter = TrafficMeter()
        meter.record_batch("a", [_msg(0), _msg(1)])
        totals = meter.totals()
        assert totals["authenticators"] == AUTHENTICATOR_BYTES
        assert totals["provenance"] >= 2 * TIMESTAMP_OVERHEAD_BYTES
        assert totals["baseline"] == sum(m.payload_size()
                                         for m in (_msg(0), _msg(1)))
        assert meter.messages_sent == 2 and meter.batches_sent == 1

    def test_ack_accounting(self):
        meter = TrafficMeter()
        meter.record_ack("b")
        assert meter.totals()["acknowledgments"] == ACK_BYTES

    def test_native_sizer_splits_overhead(self):
        meter = TrafficMeter()
        msg = _msg()
        meter.record_batch("a", [msg],
                           native_sizer=lambda m: (10, "proxy"))
        totals = meter.totals()
        assert totals["baseline"] == 10
        assert totals["proxy"] == msg.payload_size() - 10

    def test_overhead_factor(self):
        meter = TrafficMeter()
        meter.record_batch("a", [_msg()])
        meter.record_ack("b")
        assert meter.overhead_factor() > 1.0

    def test_per_node_isolation(self):
        meter = TrafficMeter()
        meter.record_batch("a", [_msg()])
        assert meter.node_totals("zzz")["baseline"] == 0


class TestStorageReport:
    def test_from_log_breakdown(self):
        log = NodeLog("n")
        log.append(1.0, INS, ("x",))
        msg = _msg()
        log.append(2.0, SND, (msg.canonical(), "b"), aux={"msg": msg})
        report = StorageReport.from_log(log, duration_seconds=60.0)
        assert report.entries == 2
        assert report.message_bytes > 0
        assert report.growth_mb_per_minute() > 0

    def test_zero_duration(self):
        log = NodeLog("n")
        report = StorageReport.from_log(log, duration_seconds=0.0)
        assert report.growth_mb_per_minute() == 0.0


class TestQueryStats:
    def test_turnaround_includes_download(self):
        stats = QueryStats()
        stats.log_bytes = int(QueryStats.DOWNLOAD_BANDWIDTH_BPS)  # 1 second
        assert abs(stats.download_seconds() - 1.0) < 1e-9
        stats.replay_seconds = 0.5
        assert stats.turnaround_seconds() >= 1.5

    def test_merge(self):
        a, b = QueryStats(), QueryStats()
        a.log_bytes, b.log_bytes = 10, 20
        a.merge(b)
        assert a.log_bytes == 30

    def test_merge_covers_every_field(self):
        a, b = QueryStats(), QueryStats()
        for offset, field in enumerate(sorted(vars(b))):
            setattr(b, field, offset + 1)
        a.merge(b)
        for offset, field in enumerate(sorted(vars(b))):
            assert getattr(a, field) == offset + 1, field

    def test_diff_covers_every_field(self):
        # Regression: per-query deltas must be derived from the instance
        # field set, so a newly added counter can never be silently
        # dropped from delta_since (what a QueryResult's stats are).
        before, after = QueryStats(), QueryStats()
        for offset, field in enumerate(sorted(vars(after))):
            setattr(before, field, 1)
            setattr(after, field, offset + 3)
        delta = after.delta_since(before)
        assert set(vars(delta)) == set(vars(after))
        for offset, field in enumerate(sorted(vars(after))):
            assert getattr(delta, field) == offset + 2, field

    def test_copy_is_independent(self):
        a = QueryStats()
        a.log_bytes = 7
        b = a.copy()
        b.log_bytes += 1
        assert a.log_bytes == 7 and b.log_bytes == 8


class TestRouteViews:
    def test_event_count(self):
        trace = RouteViewsTrace(n_updates=100, n_prefixes=10, seed=1)
        events = list(trace.events())
        assert len(events) == 100

    def test_withdraw_only_after_announce(self):
        trace = RouteViewsTrace(n_updates=300, n_prefixes=10, seed=2)
        announced = set()
        for event in trace.events():
            if event.kind == UpdateEvent.WITHDRAW:
                assert event.prefix in announced
                announced.discard(event.prefix)
            else:
                assert event.prefix not in announced
                announced.add(event.prefix)

    def test_deterministic(self):
        a = [(e.kind, e.prefix) for e in
             RouteViewsTrace(n_updates=50, seed=3).events()]
        b = [(e.kind, e.prefix) for e in
             RouteViewsTrace(n_updates=50, seed=3).events()]
        assert a == b

    def test_skew_concentrates_updates(self):
        trace = RouteViewsTrace(n_updates=2000, n_prefixes=50, skew=1.5,
                                seed=4)
        counts = {}
        for event in trace.events():
            counts[event.prefix] = counts.get(event.prefix, 0) + 1
        ranked = sorted(counts.values(), reverse=True)
        assert ranked[0] > ranked[-1]


class TestZipfCorpus:
    def test_word_count(self):
        corpus = ZipfCorpus(n_words=500, seed=1)
        assert len(corpus.words()) == 500

    def test_planted_counts_exact(self):
        corpus = ZipfCorpus(n_words=500, seed=1,
                            planted={"squirrel": 7})
        assert corpus.true_count("squirrel") == 7

    def test_splits_cover_everything(self):
        corpus = ZipfCorpus(n_words=100, seed=2)
        splits = corpus.splits(4)
        assert len(splits) == 4
        total = sum(len(s.split()) for s in splits)
        assert total == 100

    def test_deterministic(self):
        assert ZipfCorpus(n_words=50, seed=9).words() == \
            ZipfCorpus(n_words=50, seed=9).words()


class TestTopologies:
    def test_tiered_as_topology_shape(self):
        daemons, prefixes = tiered_as_topology(n_tier1=3, n_mid=4, n_stub=8,
                                               seed=0)
        assert len(daemons) == 15
        assert len(prefixes) == 8
        by_name = {d.asn: d for d in daemons}
        # Relationships are symmetric-consistent.
        for daemon in daemons:
            for nbr, rel in daemon.neighbors.items():
                back = by_name[nbr].neighbors[daemon.asn]
                if rel == "peer":
                    assert back == "peer"
                elif rel == "customer":
                    assert back == "provider"
                else:
                    assert back == "customer"

    def test_ring_edges(self):
        edges = ring_edges(["a", "b", "c"])
        assert len(edges) == 3

    def test_random_graph_connected_ring_base(self):
        names = [f"n{i}" for i in range(10)]
        edges = random_graph_edges(names, degree=4, seed=1)
        for a, b in ring_edges(names):
            assert (a, b) in edges or (b, a) in edges
