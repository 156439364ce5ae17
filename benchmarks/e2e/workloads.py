"""The four workloads of the end-to-end benchmark.

Each workload is a class with ``setup`` (everything before the first
timed sample), ``run`` (a fixed number of samples or epochs, each timed
region opened through :class:`Bench`) and ``teardown``. Inputs — ring ids,
lookup keys, AS topology, churn schedule — come from the workload seed
alone; the program only ever sees the generated inputs.

Every operation is checked outside the clock and counted in
``bench.attempted`` / ``bench.failed``: an exception, a verdict other
than green, a REST ``ok: false``, or a summary that differs from the
reference is a failed operation.
"""

import gc
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from refprobe import Series
from tracer import QUERY_STAT_FIELDS

from repro.apps.bgp import BgpNetwork, originate, route
from repro.apps.chord import ChordNetwork, node_tuple
from repro.service import (
    MonitorClient, ServicePusher, start_monitor_thread, tup_spec,
)
from repro.snp import Deployment, QueryProcessor
from repro.workloads import tiered_as_topology

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

RING_BITS = 12
KEY_BITS = 256


class Bench:
    """What a workload's loop talks to: the probe series, timed regions,
    per-sample values, and the attempted/failed count."""

    def __init__(self, probe, tracer=None):
        self.series = Series(probe)
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.values = {}             # name -> [per-sample value]
        self.stats = dict.fromkeys(QUERY_STAT_FIELDS, 0)

    def probe(self):
        self.series.probe()

    @contextmanager
    def timed(self, kind, sample):
        """Time one region as a sample of op *kind*; the tracer, when
        there is one, records only while the region is open."""
        tracer = self.tracer
        if tracer is not None:
            tracer.begin(kind, sample)
        started = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - started
            if tracer is not None:
                tracer.end(seconds)
        self.series.add(kind, seconds)

    def op(self, ok, why):
        """Count one operation; *why* says what was expected."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(why)
        return ok

    def note(self, name, value):
        self.values.setdefault(name, []).append(value)

    def add_stats(self, stats):
        for field in QUERY_STAT_FIELDS:
            self.stats[field] += getattr(stats, field)


# ------------------------------------------------------------------ helpers

def total_entries(dep):
    return sum(len(node.log) for node in dep.nodes.values())


def log_bytes_per_event(dep):
    return (sum(node.log.size_bytes() for node in dep.nodes.values())
            / total_entries(dep))


def head_state(dep):
    """Per-node (entries, head hash): equal for equal recordings."""
    return {name: (len(node.log), node.log.head_hash())
            for name, node in dep.nodes.items()}


def peak_rss_mb(who=resource.RUSAGE_SELF):
    return resource.getrusage(who).ru_maxrss / 1024.0


def new_ring(seed, n_nodes):
    """A deployment and an unformed ring: key generation happens here."""
    dep = Deployment(seed=seed, key_bits=KEY_BITS)
    net = ChordNetwork(dep, n_nodes=n_nodes, ring_bits=RING_BITS, seed=seed)
    return dep, net


class LookupStream:
    """Seeded (source, key, request id) triples of one fixed shape.

    The seed picks the source and the key; the key's owner is always the
    member ``HOPS[i]`` ring positions clockwise of the source. On a ring
    whose members all know each other that is source -> owner's
    predecessor -> result, so every lookup records, and every audit of
    one fetches, the same amount whatever the seed. A key never equals a
    member's ring id, which no chord rule resolves.
    """

    HOPS = (3, 7, 11, 5, 9, 13, 4, 8)

    def __init__(self, seed, net):
        self._rng = random.Random(f"e2e-lookups-{seed}")
        self._net = net
        self._issued = 0

    def next(self):
        members = self._net.members
        count = len(members)
        source = self._rng.randrange(count)
        hops = 2 + self.HOPS[self._issued % len(self.HOPS)] % (count - 3)
        while True:
            low = members[(source + hops - 1) % count][1]
            high = members[(source + hops) % count][1]
            room = (high - low) % self._net.size - 1
            if room > 0:
                break
            hops = 2 + (hops - 1) % (count - 3)
        key = (low + 1 + self._rng.randrange(room)) % self._net.size
        self._issued += 1
        return members[source][0], key, f"q{self._issued}"


def do_lookup(net, stream):
    source, key, req_id = stream.next()
    results = net.lookup(source, key, req_id)
    return results[0] if results else None


def audit_ok(bench, result, reference, what):
    """Count one audit op: green, and the same summary as *reference*
    when there is one. Returns the summary."""
    summary = result.summary()
    ok = summary["verdict"] == "green"
    if ok and reference is not None:
        ok = summary == reference
    bench.op(ok, f"{what}: green verdict and the reference summary")
    return summary


class Workload:
    name = None
    #: Percentile reported as ``audit_tail_ms``. The same on every
    #: workload: three of them have too few audit ops for more than p80
    #: (ten samples beyond it), and on service-mixed, which has enough for
    #: p99, anything above p80 moves by 15-50 % between runs of the same
    #: code on this sandbox (thread and process wake-ups, not CPU speed).
    tail = 80
    #: Samples or epochs per second of ``--seconds`` (at reference speed).
    per_second = 1.0
    smoke_count = 2
    #: Audit ops timed in one sample or epoch.
    audits_per_sample = 1
    #: Op kind whose traced/untraced medians give ``trace.overhead_ratio``.
    primary = "audit"

    def __init__(self, seed, smoke=False, in_process=False):
        self.seed = seed
        self.smoke = smoke
        self.in_process = in_process
        self.n_nodes = 5 if smoke else 16
        self.dep = None

    def count(self, seconds):
        if self.smoke:
            return self.smoke_count
        return max(5, round(seconds * self.per_second))

    def setup(self, bench):
        raise NotImplementedError

    def run(self, bench, count):
        raise NotImplementedError

    def teardown(self):
        pass

    def peak_rss_mb(self):
        return peak_rss_mb()

    def exact(self):
        return {
            "log_bytes_per_event": log_bytes_per_event(self.dep),
            "traffic_overhead_factor": self.dep.traffic.overhead_factor(),
        }


# ------------------------------------------------------------- record-chord

class RecordChord(Workload):
    """Write-only: each sample forms a fresh ring from the same inputs."""

    name = "record-chord"
    per_second = 1.25
    audits_per_sample = 2
    primary = "record"

    def _form(self, net):
        net.bootstrap(neighbors=2)
        net.stabilize(rounds=2)
        stream = LookupStream(self.seed, net)
        return [do_lookup(net, stream) for _ in range(4)]

    def setup(self, bench):
        # One untimed ring warms what every later sample shares: the
        # compiled chord program, its join plans, the interpreter's caches.
        self.dep, net = new_ring(self.seed, self.n_nodes)
        results = self._form(net)
        self._reference_heads = head_state(self.dep)
        self._references = []
        for target in results[-self.audits_per_sample:]:
            with QueryProcessor(self.dep) as qp:
                self._references.append(qp.why(target, scope=6).summary())

    def run(self, bench, count):
        for sample in range(count):
            self.dep, net = new_ring(self.seed, self.n_nodes)
            gc.collect()
            bench.probe()
            bench.probe()
            with bench.timed("record", sample):
                results = self._form(net)
            bench.probe()
            bench.probe()
            bench.note("record_events", total_entries(self.dep))
            bench.op(all(r is not None for r in results)
                     and head_state(self.dep) == self._reference_heads,
                     "record sample: four lookups resolved and every node "
                     "ends with the reference head hash and entry count")
            # The verdict on what was just recorded: lazy audits of the
            # last two lookups, each fetching only the logs it reaches.
            for target, reference in zip(results[-self.audits_per_sample:],
                                         self._references):
                if target is None:
                    continue
                with bench.timed("audit", sample):
                    qp = QueryProcessor(self.dep)
                    result = qp.why(target, scope=6)
                bench.probe()
                bench.probe()
                audit_ok(bench, result, reference, "lazy audit")
                bench.note("audit_fetch_bytes", qp.mq.stats.log_bytes)
                bench.add_stats(qp.mq.stats)
                qp.close()


# --------------------------------------------------------- cold-audit-chord

class ColdAuditChord(Workload):
    """Read-only: every sample is a cold audit of one recorded ring."""

    name = "cold-audit-chord"
    per_second = 1.3

    def setup(self, bench):
        self.dep, net = new_ring(self.seed, self.n_nodes)
        entries_before = total_entries(self.dep)
        bench.probe()
        # The only recording this workload does, so it is where its
        # record_events_per_s comes from: one sample per set-up.
        with bench.timed("record", None):
            net.bootstrap(neighbors=2)
            net.stabilize(rounds=4)
            stream = LookupStream(self.seed, net)
            results = [do_lookup(net, stream) for _ in range(8)]
        bench.probe()
        bench.note("record_events", total_entries(self.dep) - entries_before)
        bench.op(all(r is not None for r in results),
                 "set-up recording: eight lookups resolved")
        self._target = results[-1]

    def _audit(self):
        qp = QueryProcessor(self.dep)
        qp.prefetch()
        return qp.why(self._target, scope=6), qp

    def run(self, bench, count):
        # One discarded audit: it memoises canonical keys on the log's own
        # tuples, which every later audit of this deployment shares.
        self._reference = self._audit()[0].summary()
        bench.op(self._reference["verdict"] == "green",
                 "warm-up audit: green verdict")
        for sample in range(count):
            gc.collect()
            bench.probe()
            bench.probe()
            with bench.timed("audit", sample):
                result, qp = self._audit()
            bench.probe()
            bench.probe()
            audit_ok(bench, result, self._reference, "cold audit")
            stats = qp.mq.stats
            bench.op(stats.delta_fetches == 0
                     and stats.logs_fetched == len(self.dep.nodes),
                     "cold audit: every log fetched whole, none as a delta")
            bench.note("audit_fetch_bytes", stats.log_bytes)
            bench.add_stats(stats)
            qp.close()


# -------------------------------------------------------- churn-refresh-bgp

class ChurnRefreshBgp(Workload):
    """Writes beside reads: prefix churn, then a standing auditor's
    refresh and query, on a log that keeps growing."""

    name = "churn-refresh-bgp"
    per_second = 5.0
    #: Timed epoch after which the standing auditor is compared with a
    #: cold serial audit. Early, because a cold audit replays the whole
    #: log and the log grows by ~700 entries an epoch.
    gate_epoch = 1
    churn = 4

    def setup(self, bench):
        self.dep = Deployment(seed=self.seed, key_bits=KEY_BITS)
        n_mid, n_stub = (2, 2) if self.smoke else (3, 5)
        daemons, prefixes = tiered_as_topology(
            n_tier1=2, n_mid=n_mid, n_stub=n_stub, seed=self.seed)
        self.net = BgpNetwork(self.dep)
        for daemon in daemons:
            self.net.add_as(daemon)
        self.net.converge(max_rounds=20)
        rng = random.Random(f"e2e-churn-{self.seed}")
        self._stubs = sorted(prefixes)
        self._offset = rng.randrange(len(self._stubs))
        self._rng = rng
        self._previous = []
        self._epoch = 0
        self.qp = QueryProcessor(self.dep)
        self.qp.prefetch()
        # Two untimed epochs: the first has nothing to withdraw, and both
        # warm the refresh path.
        for _ in range(2):
            self._record()
            self._audit()

    def _record(self):
        """Withdraw last epoch's churn prefixes, announce new ones, let
        BGP converge. Returns the route to audit."""
        epoch = self._epoch
        self._epoch += 1
        stubs = self._stubs
        announced = [
            (stubs[(self._offset + epoch + i) % len(stubs)],
             f"172.{epoch // 250}.{epoch % 250}.{i * 16}/28")
            for i in range(self.churn)
        ]
        for asn, prefix in self._previous:
            self.net.daemons[asn].originated.discard(prefix)
            self.dep.node(asn).delete(originate(asn, prefix))
        for asn, prefix in announced:
            self.net.daemons[asn].originated.add(prefix)
            self.dep.node(asn).insert(originate(asn, prefix))
        self.net.converge()
        self._previous = announced
        vantage = f"t1-{self._rng.randrange(2)}"
        prefix = announced[0][1]
        selection = self.net.selected[vantage].get(prefix)
        if selection is None:
            return None
        return route(vantage, prefix, selection[0])

    def _audit(self, target=None):
        self.qp.refresh()
        if target is not None:
            return self.qp.why(target, scope=12)
        return None

    def run(self, bench, count):
        bench.probe()
        for sample in range(count):
            entries_before = total_entries(self.dep)
            with bench.timed("record", sample):
                target = self._record()
            bench.probe()
            bench.note("record_events",
                       total_entries(self.dep) - entries_before)
            if not bench.op(target is not None,
                            "churn epoch: the vantage AS selected a route"):
                continue
            before = self.qp.mq.stats.copy()
            with bench.timed("audit", sample):
                result = self._audit(target)
            bench.probe()
            summary = audit_ok(bench, result, None, "refresh + why")
            delta = self.qp.mq.stats.delta_since(before)
            bench.op(delta.delta_fetches == delta.logs_fetched > 0,
                     "refresh: every fetch is a delta")
            bench.note("audit_fetch_bytes", delta.log_bytes)
            bench.add_stats(delta)
            if sample == self.gate_epoch:
                with QueryProcessor(self.dep) as cold:
                    reference = cold.why(target, scope=12).summary()
                bench.op(summary == reference,
                         "standing auditor equals a cold serial audit")

    def teardown(self):
        self.qp.close()


# ------------------------------------------------------------ service-mixed

class ServiceMixed(Workload):
    """Warm reads interleaved with writes at the monitor daemon."""

    name = "service-mixed"
    per_second = 7.0
    audits_per_sample = 20
    gate_epoch = 1

    def __init__(self, seed, smoke=False, in_process=False):
        super().__init__(seed, smoke, in_process)
        self._child = None
        self._handle = None
        self._pusher = None
        self._child_rss_mb = None

    def _start_daemon(self):
        """The daemon as users run it — ``python -m repro.service`` as a
        child process — or, for a traced run, on a thread of this process
        where the tracer can reach it."""
        if self.in_process:
            self._handle = start_monitor_thread(
                host="127.0.0.1", push_port=0, http_port=0)
            daemon = self._handle.daemon
            return daemon.push_port, daemon.http_port
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        self._child = subprocess.Popen(
            [sys.executable, "-m", "repro.service"], env=env,
            stdout=subprocess.PIPE, text=True)
        ports = json.loads(self._child.stdout.readline())
        return ports["push_port"], ports["http_port"]

    def setup(self, bench):
        push_port, http_port = self._start_daemon()
        self.dep, self.net = new_ring(self.seed, self.n_nodes)
        self.net.bootstrap(neighbors=2)
        self.net.stabilize(rounds=2)
        self._stream = LookupStream(self.seed, self.net)
        self._pusher = ServicePusher(self.dep, "127.0.0.1", push_port)
        self._client = MonitorClient("127.0.0.1", http_port, timeout=60)
        # Untimed: the first push carries whole logs, one query per node
        # builds every view cold (a timed epoch only ever extends views),
        # and two whole epochs warm the rest of the path.
        self._pusher.push_once()
        for name, ring_id in self.net.members:
            self._client.query(tup_spec(node_tuple(name, ring_id), scope=1))
        for _ in range(2):
            target = self._record()
            self._fresh(target)

    def _record(self):
        self.net.stabilize(rounds=1)
        return do_lookup(self.net, self._stream)

    def _fresh(self, target):
        ack = self._pusher.push_once()
        if ack is None or ack.get("shed"):
            return None
        return self._client.query(tup_spec(target, scope=6, fresh=True))

    def run(self, bench, count):
        bench.probe()
        for sample in range(count):
            entries_before = total_entries(self.dep)
            sent_before = self._pusher.meter.bytes_sent
            with bench.timed("record", sample):
                target = self._record()
            bench.probe()
            bench.note("record_events",
                       total_entries(self.dep) - entries_before)
            if not bench.op(target is not None,
                            "service epoch: the lookup resolved"):
                continue
            with bench.timed("fresh", sample):
                fresh = self._fresh(target)
            bench.probe()
            ok = bool(fresh) and fresh.get("ok") \
                and fresh["result"]["verdict"] == "green"
            bench.note("audit_fetch_bytes",
                       self._pusher.meter.bytes_sent - sent_before)
            if not bench.op(ok, "push + fresh query: accepted, ok, green"):
                continue
            spec = tup_spec(target, scope=6)
            for _ in range(self.audits_per_sample):
                with bench.timed("audit", sample):
                    out = self._client.query(spec)
                bench.op(bool(out.get("ok"))
                         and out["result"] == fresh["result"],
                         "plain query: ok and equal to the fresh result")
            bench.probe()
            if sample == self.gate_epoch:
                with QueryProcessor(self.dep) as direct:
                    reference = direct.why(target, scope=6).summary()
                bench.op(fresh["result"] == reference,
                         "REST result equals a direct in-process audit")
        if self._handle is not None:
            daemon = self._handle.daemon
            bench.add_stats(daemon.qp.mq.stats)
            bench.note("refresh_batches", daemon.meter.refresh_batches)

    def teardown(self):
        if self._pusher is not None:
            self._pusher.close()
        if self._handle is not None:
            self._handle.stop()
            self._handle = None
        child, self._child = self._child, None
        if child is not None:
            child.send_signal(signal.SIGTERM)
            try:
                child.wait(timeout=20)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
            child.stdout.close()
            # The daemons of earlier set-up repetitions were small and
            # short-lived; the largest child is the one that was measured.
            self._child_rss_mb = peak_rss_mb(resource.RUSAGE_CHILDREN)

    def peak_rss_mb(self):
        """The process holding the audited state: the daemon child once it
        has been stopped, this process when the daemon is a thread."""
        if self._child_rss_mb is not None:
            return self._child_rss_mb
        return peak_rss_mb()


WORKLOADS = {cls.name: cls for cls in
             (RecordChord, ColdAuditChord, ChurnRefreshBgp, ServiceMixed)}
