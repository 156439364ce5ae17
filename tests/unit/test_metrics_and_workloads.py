"""Metrics accounting and synthetic workload generators."""

import time

import pytest

from repro.crypto.keys import CryptoCounter
from repro.metrics import (
    Counters, QueryStats, RetentionMeter, ServiceMeter, StorageReport,
    TrafficMeter,
)
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
        log.append(2.0, SND, (msg, "b"))
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


#: Every counter record, built the way its owner builds it.
RECORDS = {
    "TrafficMeter": TrafficMeter,
    "RetentionMeter": RetentionMeter,
    "StorageReport": lambda: StorageReport("n", 60.0),
    "QueryStats": QueryStats,
    "ServiceMeter": ServiceMeter,
    "CryptoCounter": CryptoCounter,
}


def _filled(make, base=1):
    record = make()
    for offset, field in enumerate(record.FIELDS):
        setattr(record, field, base + offset)
    return record


@pytest.mark.parametrize("name", sorted(RECORDS))
class TestCounterRecords:
    def test_init_zeroes_every_field(self, name):
        record = RECORDS[name]()
        assert record.FIELDS and set(record.TIMING_FIELDS) <= \
            set(record.FIELDS)
        assert record.as_dict() == dict.fromkeys(record.FIELDS, 0)
        assert all(isinstance(getattr(record, f), float)
                   for f in record.TIMING_FIELDS)

    def test_copy_is_independent(self, name):
        record = _filled(RECORDS[name])
        snap = record.copy()
        assert type(snap) is type(record)
        assert snap.as_dict() == record.as_dict()
        for field in record.FIELDS:
            setattr(snap, field, getattr(snap, field) + 1)
        assert record.as_dict() == _filled(RECORDS[name]).as_dict()

    def test_merge_and_delta_cover_every_field(self, name):
        make = RECORDS[name]
        merged = _filled(make, base=1)
        merged.merge(_filled(make, base=10))
        delta = merged.delta_since(_filled(make, base=1))
        for offset, field in enumerate(merged.FIELDS):
            assert getattr(merged, field) == 11 + 2 * offset, field
            assert getattr(delta, field) == 10 + offset, field

    def test_counters_leave_out_timing_fields(self, name):
        record = _filled(RECORDS[name])
        expected = {field: value for field, value in record.as_dict().items()
                    if field not in record.TIMING_FIELDS}
        assert record.counters() == expected
        assert list(record.as_dict()) == list(record.FIELDS)

    def test_reset_zeroes(self, name):
        record = _filled(RECORDS[name])
        record.reset()
        assert record.as_dict() == dict.fromkeys(record.FIELDS, 0)

    def test_timing_adds_on_an_exception_too(self, name):
        record = RECORDS[name]()
        field = (record.TIMING_FIELDS or record.FIELDS)[0]
        with pytest.raises(RuntimeError):
            with record.timing(field):
                time.sleep(0.001)
                raise RuntimeError("body failed")
        assert getattr(record, field) >= 0.001


class TestCounterContracts:
    """Field lists readers outside this package depend on, as literals."""

    def test_every_record_is_in_the_table(self):
        assert {cls.__name__ for cls in Counters.__subclasses__()} \
            == set(RECORDS)

    def test_status_meter_keys_in_order(self):
        assert ServiceMeter.FIELDS == (
            "frames_sent", "frames_received", "bytes_sent", "bytes_received",
            "garbage_bytes", "corrupt_frames", "oversized_frames",
            "refused_globals", "pushes_sent", "pushes_accepted",
            "pushes_shed", "push_retries", "push_failures", "poll_fallbacks",
            "refresh_batches", "requests_batched", "queries_served",
            "answers_reused", "refreshes_served", "subscriptions_opened",
            "watch_evaluations", "watch_evaluations_skipped",
            "alerts_emitted", "alerts_dropped", "http_connections",
            "http_requests", "http_timeouts",
        )

    def test_query_counter_keys(self):
        assert set(QueryStats().counters()) == {
            "log_bytes", "authenticator_bytes", "checkpoint_bytes",
            "logs_fetched", "delta_fetches", "cache_hits", "refreshes",
            "events_replayed", "signatures_verified", "graphs_built",
            "auth_checks_skipped",
            "auth_checks_recovered", "auth_checks_tombstoned",
            "microqueries", "anchor_fetches",
            "delta_tuples_in", "delta_tuples_out", "retractions_applied",
            "support_rederivations",
        }

    def test_traffic_reset_clears_the_buckets(self):
        meter = TrafficMeter()
        meter.record_batch("a", [_msg()])
        meter.reset()
        assert meter.total_bytes() == 0 and meter.messages_sent == 0


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
