"""The paper's evaluation (§7, Figures 5–9), as shape assertions.

Every figure in §7 is counts and bytes, so each is reproduced by
accounting and asserted here on every push; ``pytest -s`` on this file
prints the five tables. Paper §7.1 configurations → what runs here:

=============  ===============================  =============================
Configuration  Paper                            Here
=============  ===============================  =============================
Quagga         35 daemons / 10 ASes, ~15,000    10 ASes (2 tier-1, 3 mid,
               RouteViews updates over 15 min   5 stubs), 120 synthetic
                                                updates
Chord-Small    50 nodes, 15 simulated minutes   16 nodes, 3 stabilization
                                                rounds, 8 lookups
Chord-Large    250 nodes                        40 nodes
Hadoop-Small   1.2 GB corpus, 20 mappers /      ~1,200-word Zipf corpus,
               10 reducers                      4 mappers / 2 reducers
Hadoop-Large   10.3 GB corpus, 165 mappers      ~4,800-word corpus,
                                                8 mappers / 4 reducers
=============  ===============================  =============================

Figure 9's sweep is an 8-node ring plus the two Chord configurations
(N = 8, 16, 40; paper: 10..500). Two places where this scale cannot show
what the paper shows, and what is asserted instead:

* **Figure 7.** Crypto CPU is operation counts at the paper's per-op
  costs (1.3 ms sign, 66 µs verify, 5 ms per MB hashed). Hashed bytes are
  derived, not metered: every committed log entry is hashed once, plus
  the input splits a mapper hashes by reference. Signing dominates for
  Quagga and Chord as in the paper; "Hadoop is dominated by hashing its
  large data" needs gigabytes — with kilobyte splits hashing is ~0.6 %
  of Hadoop's crypto time, against ~0.15 % for the others — so the
  assertion is that hashing's *share* is largest for Hadoop.
* **Figure 8.** The paper's Hadoop-Squirrel query downloads the most
  (20.8 MB vs 133 kB for Quagga-BadGadget) because it replays whole map
  tasks over a multi-gigabyte corpus. Here the corpus is ~10 kB and the
  BadGadget log holds 590 events of oscillation, so the ordering inverts
  (14 kB vs 97 kB). What the reproduction does show is the mechanism: the
  query fetches the whole log of every node on the provenance path — all
  four mappers and the owning reducer, not the other reducer.

Measured times (``auth_check_seconds``, ``replay_seconds``) are neither
printed nor asserted: the only clock that judges anything is
``benchmarks/e2e/``. The download column is the paper's own arithmetic
(§7.7: bytes over a 10 Mbps link).
"""

import math
import statistics

import pytest

from repro.apps.bgp import (
    build_bad_gadget, build_disappear_scenario, route, trigger_disappear,
)
from repro.apps.mapreduce import OFFSETS
from repro.metrics import TRAFFIC_CATEGORIES, CpuReport, StorageReport
from repro.snp import Deployment, QueryProcessor
from repro.snp.log import INS
from repro.util.serialization import canonical_size

from scenarios import (
    HADOOP_LARGE_RUNTIME_S, run_chord, run_hadoop, run_quagga,
)

# Per-operation costs for 1024-bit RSA on the paper's hardware (§7.6).
PAPER_SIGN_SECONDS = 1.3e-3
PAPER_VERIFY_SECONDS = 66e-6
PAPER_HASH_SECONDS_PER_MB = 5e-3


@pytest.fixture(scope="module")
def configurations():
    """The five §7.1 configurations, built once."""
    return {
        "Quagga": run_quagga(n_updates=120),
        "Chord-Small": run_chord(n_nodes=16),
        "Chord-Large": run_chord(n_nodes=40),
        "Hadoop-Small": run_hadoop(n_words=1200),
        "Hadoop-Large": run_hadoop(n_words=4800, n_mappers=8, n_reducers=4,
                                   runtime_s=HADOOP_LARGE_RUNTIME_S),
    }


@pytest.fixture(scope="module")
def batched_quagga():
    """The Quagga configuration again, with Tbatch = 100 ms (§7.6)."""
    return run_quagga(n_updates=120, t_batch=0.1)


def print_table(title, headers, rows):
    rows = [[str(cell) for cell in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in rows))
              for i, h in enumerate(headers)]
    print(f"\n{title}")
    for line in [headers, ["-" * w for w in widths]] + rows:
        print("  " + "  ".join(c.ljust(w) for c, w in zip(line, widths)))


# ------------------------------------------------------- Figure 5: traffic

class TestFigure5Traffic:
    """Paper: overhead from 16.1× (Quagga — 68-byte messages, so the
    fixed per-message additions dominate) down to 0.2 % (Hadoop —
    megabyte messages amortize them), Chord in between."""

    def test_overhead_ordering_matches_paper(self, configurations):
        factor = {name: s.traffic.overhead_factor()
                  for name, s in configurations.items()}
        assert factor["Quagga"] > factor["Chord-Small"] \
            > factor["Hadoop-Small"]
        assert factor["Chord-Large"] > factor["Hadoop-Large"]
        assert factor["Quagga"] > 4.0
        # Our Hadoop messages are far smaller than the paper's; the
        # factor still stays below 2.
        assert factor["Hadoop-Small"] < 2.0
        assert factor["Hadoop-Large"] < 2.0

    def test_only_quagga_pays_proxy_overhead(self, configurations):
        assert configurations["Quagga"].traffic.totals()["proxy"] > 0
        assert configurations["Hadoop-Small"].traffic.totals()["proxy"] == 0
        assert configurations["Chord-Small"].traffic.totals()["proxy"] == 0

    def test_authenticators_and_acks_present_everywhere(self,
                                                        configurations):
        for name, scenario in configurations.items():
            totals = scenario.traffic.totals()
            assert totals["authenticators"] > 0, name
            assert totals["acknowledgments"] > 0, name

    def test_batching_reduces_quagga_overhead(self, configurations,
                                              batched_quagga):
        """§7.4: Tbatch = 100 ms drops Quagga's factor 16.1 → 4.8."""
        unbatched = configurations["Quagga"].traffic.overhead_factor()
        batched = batched_quagga.traffic.overhead_factor()
        print(f"\nQuagga overhead: unbatched {unbatched:.2f}x, "
              f"Tbatch=100ms {batched:.2f}x (paper: 16.1x -> 4.8x)")
        assert batched < unbatched * 0.75

    def test_print_figure5(self, configurations):
        rows = []
        for name, scenario in configurations.items():
            totals = scenario.traffic.totals()
            baseline = totals["baseline"] or 1
            rows.append(
                [name, f"{scenario.traffic.overhead_factor():.2f}x"]
                + [f"{totals[c] / baseline:.3f}" for c in TRAFFIC_CATEGORIES])
        print_table(
            "Figure 5 — traffic normalized to baseline "
            "(paper: Quagga 16.1x ... Hadoop 1.002x)",
            ["config", "total"] + [f"{c}/base" for c in TRAFFIC_CATEGORIES],
            rows)


# ---------------------------------------------------- Figure 6: log growth

def _storage_reports(scenario):
    return [StorageReport.from_log(node.log, scenario.nominal_duration_s)
            for node in scenario.deployment.nodes.values()]


def _mean_growth(scenario):
    return statistics.mean(r.growth_mb_per_minute()
                           for r in _storage_reports(scenario))


class TestFigure6LogGrowth:
    """Paper: 0.066 MB/min (Chord-Small) to 0.74 MB/min (Quagga), per
    node, excluding checkpoints; Hadoop's is tiny because input files are
    logged by reference (hash)."""

    def test_quagga_grows_fastest_and_all_rates_are_practical(
            self, configurations):
        growth = {name: _mean_growth(s)
                  for name, s in configurations.items()}
        assert growth["Quagga"] == max(growth.values())
        for name, rate in growth.items():
            # Paper rates are < 1 MB/min per node; ours are scaled down
            # but must stay within an order of magnitude of that.
            assert 0 < rate < 10.0, name

    def test_breakdown_components_present(self, configurations):
        for name, scenario in configurations.items():
            reports = _storage_reports(scenario)
            assert sum(r.message_bytes for r in reports) > 0, name
            assert sum(r.authenticator_bytes for r in reports) > 0, name
            assert sum(r.index_bytes for r in reports) > 0, name

    def test_checkpoints_excluded_from_growth(self):
        scenario = run_chord(n_nodes=8, rounds=1, lookups=0)
        scenario.deployment.checkpoint_all()
        for report in _storage_reports(scenario):
            assert report.checkpoint_bytes > 0
            assert report.total_bytes(include_checkpoints=True) == \
                report.total_bytes() + report.checkpoint_bytes

    def test_hadoop_logs_reference_files_not_contents(self, configurations):
        # The mapTask entries carry a hash, not the split text: what a
        # mapper logs as input is much smaller than the corpus.
        scenario = configurations["Hadoop-Large"]
        corpus_bytes = sum(len(text) for text in scenario.corpus.splits(8))
        for name, node in scenario.deployment.nodes.items():
            if name.startswith("map"):
                ins_bytes = sum(canonical_size(e.content)
                                for e in node.log.entries
                                if e.entry_type == "ins")
                assert ins_bytes < corpus_bytes / 4

    def test_print_figure6(self, configurations):
        rows = []
        for name, scenario in configurations.items():
            reports = _storage_reports(scenario)
            rows.append([name, f"{_mean_growth(scenario):.4f}"] + [
                f"{statistics.mean(getattr(r, field) for r in reports):.0f}"
                for field in ("message_bytes", "signature_bytes",
                              "authenticator_bytes", "index_bytes")])
        print_table(
            "Figure 6 — per-node log growth "
            "(paper: 0.066 [Chord-S] ... 0.74 [Quagga] MB/min)",
            ["config", "MB/min", "msg B", "sig B", "auth B", "index B"],
            rows)


# ---------------------------------------------------- Figure 7: crypto CPU

def _hashed_bytes(scenario):
    """Each committed entry is hashed once into the chain; a mapper also
    hashes the input split its mapTask names by reference."""
    total = 0
    for node in scenario.deployment.nodes.values():
        total += node.log.size_bytes()
        total += sum(len(entry.content.args[2].text.encode())
                     for entry in node.log.entries
                     if entry.entry_type == INS
                     and entry.content.relation == "mapTask")
    return total


def _cpu_report(scenario):
    dep = scenario.deployment
    return CpuReport(
        dep.crypto_counter_totals(),
        scenario.nominal_duration_s * max(1, len(dep.nodes)),
        hashed_bytes=_hashed_bytes(scenario),
        sign_cost=PAPER_SIGN_SECONDS, verify_cost=PAPER_VERIFY_SECONDS,
        hash_cost_per_mb=PAPER_HASH_SECONDS_PER_MB)


def _crypto_seconds(report):
    """(signing, verifying, hashing) seconds at the paper's costs."""
    return (report.counter.signatures * PAPER_SIGN_SECONDS,
            report.counter.verifications * PAPER_VERIFY_SECONDS,
            report.hashed_bytes / 1e6 * PAPER_HASH_SECONDS_PER_MB)


class TestFigure7CryptoCpu:
    """Paper: below 4 % of one core for all three applications; Quagga
    and Chord dominated by the two signatures per message (authenticator
    + ack), Hadoop by hashing its large data."""

    def test_all_loads_below_paper_bound(self, configurations):
        # Our workload rates are the paper's, so its bound (with slack
        # for scale-down artifacts) must hold.
        for name, scenario in configurations.items():
            load = _cpu_report(scenario).load_percent()
            assert load < 15.0, (name, load)

    def test_signature_counts_track_messages(self, configurations):
        # Two signatures per message batch: authenticator + ack.
        for name, scenario in configurations.items():
            meter = scenario.traffic
            counter = scenario.deployment.crypto_counter_totals()
            assert counter.signatures >= \
                meter.batches_sent + meter.acks_sent, name

    def test_signing_dominates_quagga_and_chord(self, configurations):
        for name in ("Quagga", "Chord-Small", "Chord-Large"):
            sign, verify, hashing = _crypto_seconds(
                _cpu_report(configurations[name]))
            assert hashing > 0
            assert sign > verify and sign > hashing, name

    def test_hashing_share_is_largest_for_hadoop(self, configurations):
        share = {}
        for name, scenario in configurations.items():
            sign, verify, hashing = _crypto_seconds(_cpu_report(scenario))
            share[name] = hashing / (sign + verify + hashing)
        assert min(share["Hadoop-Small"], share["Hadoop-Large"]) > \
            max(share["Quagga"], share["Chord-Small"], share["Chord-Large"])

    def test_batching_cuts_signatures(self, configurations, batched_quagga):
        """§7.6: batching cuts Quagga's signature count ~6×."""
        plain = configurations["Quagga"].deployment \
            .crypto_counter_totals().signatures
        batched = batched_quagga.deployment \
            .crypto_counter_totals().signatures
        print(f"\nQuagga signatures: unbatched {plain}, "
              f"Tbatch=100ms {batched} (paper: ~6x reduction)")
        assert batched < plain * 0.6

    def test_print_figure7(self, configurations):
        rows = []
        for name, scenario in configurations.items():
            report = _cpu_report(scenario)
            sign, verify, hashing = _crypto_seconds(report)
            rows.append([
                name, f"{report.load_percent():.2f}%",
                report.counter.signatures, report.counter.verifications,
                f"{report.hashed_bytes / 1e6:.3f}",
                f"{100 * hashing / (sign + verify + hashing):.2f}%"])
        print_table(
            "Figure 7 — additional CPU load from crypto "
            "(paper: < 4% of one core everywhere)",
            ["config", "load/core", "RSA sign", "RSA verify", "MB hashed",
             "hash share"],
            rows)


# ------------------------------------------------- Figure 8: query costs

@pytest.fixture(scope="module")
def figure8_queries():
    """The paper's §7.7 example queries: ``{name: result}``, plus the
    Squirrel scenario its test inspects."""
    out = {}

    # Quagga-Disappear (dynamic query).
    dep = Deployment(seed=80, key_bits=256)
    net, prefix = build_disappear_scenario(dep)
    net.converge()
    trigger_disappear(net, prefix)
    dep.checkpoint_all()
    gone = route("alice", prefix, ("alice", "j", "c1", "mid", "origin"))
    out["Quagga-Disappear"] = QueryProcessor(dep).why_disappear(gone)

    # Quagga-BadGadget (provenance of a fluttering route).
    dep = Deployment(seed=81, key_bits=256)
    net, prefix = build_bad_gadget(dep)
    net.converge(max_rounds=10)
    selection = net.routing_table("as1")[prefix]
    out["Quagga-BadGadget"] = QueryProcessor(dep).why(
        route("as1", prefix, selection[0]), scope=25)

    # Chord-Lookup, small and large rings.
    for label, n_nodes in (("Chord-Lookup (S)", 12),
                           ("Chord-Lookup (L)", 24)):
        scen = run_chord(n_nodes=n_nodes, rounds=2, lookups=1, seed=82)
        source = scen.net.members[0][0]
        found = scen.net.lookup(source, scen.net.size // 2, "fig8")[0]
        out[label] = QueryProcessor(scen.deployment).why(found, node=source)

    # Hadoop-Squirrel (corrupt mapper, per-offset provenance).
    scen = run_hadoop(n_words=1500, corrupt=True, granularity=OFFSETS,
                      seed=83)
    out["Hadoop-Squirrel"] = QueryProcessor(scen.deployment).why(
        scen.job.output_tuple_for("squirrel"), scope=10)
    return out, scen


class TestFigure8QueryCosts:
    """Paper §7.7: downloads from 133 kB (Quagga-BadGadget) to 20.8 MB
    (Hadoop-Squirrel); turnaround = estimated download at 10 Mbps +
    authenticator check + replay. See the module docstring for why the
    Squirrel ordering is not asserted."""

    def test_chord_large_downloads_at_least_small(self, figure8_queries):
        results, _squirrel = figure8_queries
        small = results["Chord-Lookup (S)"].stats
        large = results["Chord-Lookup (L)"].stats
        assert large.downloaded_bytes() >= small.downloaded_bytes() * 0.5

    def test_squirrel_fetches_the_whole_log_of_every_node_on_the_path(
            self, figure8_queries):
        results, scen = figure8_queries
        result = results["Hadoop-Squirrel"]
        job, dep = scen.job, scen.deployment
        owner = job.output_tuple_for("squirrel").loc
        on_path = {str(v.node) for v in result.graph.vertices()}
        assert on_path == set(job.mappers) | {owner}
        assert on_path < {str(name) for name in dep.nodes}
        # Whole map tasks are replayed: one fetch per node on the path,
        # each the node's entire log, nothing sliced to the queried word.
        assert result.stats.logs_fetched == len(on_path)
        assert result.stats.log_bytes == sum(
            dep.node(name).log.size_bytes() for name in on_path)

    def test_print_figure8(self, figure8_queries):
        rows = []
        for name, result in figure8_queries[0].items():
            stats = result.stats
            rows.append([name, f"{stats.downloaded_bytes() / 1024:.1f}",
                         f"{stats.download_seconds():.3f}s",
                         stats.logs_fetched, stats.events_replayed])
        print_table(
            "Figure 8 — data downloaded per example query "
            "(paper: 133kB [BadGadget] .. 20.8MB [Squirrel])",
            ["query", "kB", "download @10Mbps", "logs", "events"], rows)


# ----------------------------------------------- Figure 9: scalability

@pytest.fixture(scope="module")
def sweep(configurations):
    """N -> per-node traffic (B/s), baseline traffic (B/s) and
    steady-state log growth (kB/min) of a stabilized ring."""
    rings = [run_chord(n_nodes=8), configurations["Chord-Small"],
             configurations["Chord-Large"]]
    out = {}
    for scenario in rings:
        dep = scenario.deployment
        per_node_second = len(dep.nodes) * scenario.nominal_duration_s
        log_bytes = sum(
            node.log.size_bytes() - scenario.log_baseline.get(name, 0)
            for name, node in dep.nodes.items())
        out[len(dep.nodes)] = {
            "traffic_Bps": dep.traffic.total_bytes() / per_node_second,
            "baseline_Bps": dep.traffic.baseline_bytes() / per_node_second,
            "log_kB_min": log_bytes / per_node_second * 60 / 1e3,
        }
    return out


class TestFigure9Scalability:
    """Paper: per-node traffic and log growth grow only slowly with N —
    they follow Chord's O(log N) message growth, unlike PeerReview, whose
    witness sets make the *overhead itself* grow with N."""

    @pytest.mark.parametrize("metric", ["traffic_Bps", "log_kB_min"])
    def test_per_node_cost_grows_sublinearly(self, sweep, metric):
        smallest, largest = min(sweep), max(sweep)
        growth = sweep[largest][metric] / sweep[smallest][metric]
        assert growth < (largest / smallest) / 1.5

    def test_overhead_tracks_baseline(self, sweep):
        # SNP's overhead is a function of message count, so total over
        # baseline traffic stays roughly constant across N.
        ratios = [row["traffic_Bps"] / row["baseline_Bps"]
                  for row in sweep.values()]
        assert max(ratios) / min(ratios) < 1.8

    def test_print_figure9(self, sweep):
        print_table(
            "Figure 9 — Chord scalability (paper: per-node cost follows "
            "O(log N), N = 10..500)",
            ["N", "traffic B/s", "baseline B/s", "log kB/min", "log2 N"],
            [[n, f"{row['traffic_Bps']:.1f}", f"{row['baseline_Bps']:.1f}",
              f"{row['log_kB_min']:.2f}", f"{math.log2(n):.1f}"]
             for n, row in sorted(sweep.items())])
