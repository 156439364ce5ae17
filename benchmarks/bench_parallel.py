"""Parallel view-build benchmark: worker pools and process pools vs. serial.

The per-node retrieve→verify→replay pipeline is independent per queried
node (the views share only the querier's evidence store), so
``MicroQuerier`` schedules it onto a configurable executor. This
benchmark measures what that buys a *remote* auditor on the paper's three
application families, at 1/2/4/8 threads and on 2/4-worker process pools:

* **cold build** — ``QueryProcessor.prefetch()`` (build every node's
  verified view as one executor batch) followed by the scenario's
  macroquery;
* **refresh** — the deployment runs further, then ``refresh()`` advances
  every cached view by its log suffix (one delta fetch per node);
* **warm refresh** — transport zeroed and pools pre-warmed, the refresh
  is timed on the serial arm and on the resident pool (``process:4``,
  which ships verified heads + deltas into worker-resident replays) —
  every run enforces the resident arm actually hit its cache and
  rebuilt nothing cold;
* **concurrent** — several queriers share one resident executor; the
  gate is correctness (every querier ≡ a serial oracle), since
  head-keyed cache entries make cross-querier reuse miss, not corrupt.

Downloads are modeled with ``Deployment.set_query_transport``: each
fetched segment sleeps RTT + bytes/bandwidth on the worker thread that
fetched it (the paper's Figure 8 query model assumes a 10 Mbps download;
the RTT here places the auditor across a WAN). On the thread arms, replay
and signature checks execute under the GIL, so wall-clock converges
toward the pure-compute floor as workers are added. The ``process:N``
arms break that floor: the verify+replay step crosses the wire layer
(repro/snp/wire.py) into a warm spawn-based pool, fetch threads keep the
downloads overlapped, and worker-built views stay resident in the worker
that built them — the full run enforces that ``process:4`` beats the 4-thread arm
on the compute-bound chord@50 cold build.

Every run also enforces the determinism contract: vertex/color
fingerprints, proven-faulty verdicts and merged QueryStats counters must
be identical across all worker counts (``results_match``), or the run
fails. ``--smoke`` uses tiny sizes + a short RTT (used by CI, which then
compares the output against ``baselines/`` via check_regression.py);
the full run additionally enforces the ≥2x cold speedup at 4 workers on
chord@50. Writes ``BENCH_parallel.json`` next to this file.
"""

import argparse
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_audit import (  # noqa: E402
    bgp_scenario, chord_scenario, hadoop_scenario,
)

from repro.snp import QueryProcessor  # noqa: E402
from repro.snp.executor import ProcessExecutor  # noqa: E402

OUT_PATH = Path(__file__).parent / "BENCH_parallel.json"

ARMS = (1, 2, 4, 8, "process:2", "process:4")
BASE_ARM = ARMS[0]

#: The warm-refresh phase isolates the resident cache: transport is
#: zeroed and pools/caches pre-warmed, so the timed refresh measures
#: verify+replay+*serialization* only — the resident arm ships heads and
#: deltas into replays that never leave their workers.
WARM_ARMS = (1, "process:4")
RESIDENT_FIELDS = ("view_cache_hits", "view_cache_misses",
                   "view_cache_evictions", "shm_bytes")

# The paper's assumed 10 Mbps query download link; the RTT places the
# auditor across a WAN (full) or a regional link (smoke — CI machines
# should not spend minutes sleeping).
BANDWIDTH_BYTES_PER_S = 10e6 / 8
FULL_RTT_S = 0.25
SMOKE_RTT_S = 0.1


def _fingerprint(result):
    """Order-independent digest of a query result's observable output."""
    return {
        "vertices": sorted(
            (str(vertex.key()), vertex.color)
            for vertex in result.graph.vertices()
        ),
        "faulty_nodes": [str(n) for n in result.faulty_nodes()],
    }


def _round_speedups(walls):
    base = walls[BASE_ARM]
    return {
        str(a): round(base / walls[a], 3) if walls[a] > 0 else float("inf")
        for a in ARMS[1:]
    }


def run_scenario(name, dep, query, run_further, rtt_seconds):
    dep.set_query_transport(rtt_seconds=rtt_seconds,
                            bandwidth_bytes_per_s=BANDWIDTH_BYTES_PER_S)
    processors = {}
    cold = {}
    cold_walls = {}
    cold_prints = {}
    for arm in ARMS:
        qp = QueryProcessor(dep, executor=arm)
        processors[arm] = qp
        started = time.perf_counter()
        qp.prefetch()
        result = query(qp)
        wall = time.perf_counter() - started
        cold_walls[arm] = wall
        cold_prints[arm] = _fingerprint(result)
        cold[str(arm)] = {
            "wall_seconds": round(wall, 4),
            "counters": qp.mq.stats.counters(),
        }

    run_further()

    refresh = {}
    refresh_walls = {}
    refresh_prints = {}
    for arm in ARMS:
        qp = processors[arm]
        before = qp.mq.stats.copy()
        started = time.perf_counter()
        qp.refresh()
        wall = time.perf_counter() - started
        result = query(qp)
        refresh_walls[arm] = wall
        refresh_prints[arm] = _fingerprint(result)
        refresh[str(arm)] = {
            "wall_seconds": round(wall, 4),
            "counters": qp.mq.stats.delta_since(before).counters(),
        }
        qp.close()

    results_match = all(
        cold_prints[a] == cold_prints[BASE_ARM]
        and cold[str(a)]["counters"] == cold[str(BASE_ARM)]["counters"]
        and refresh_prints[a] == refresh_prints[BASE_ARM]
        and refresh[str(a)]["counters"] == refresh[str(BASE_ARM)]["counters"]
        for a in ARMS
    )
    entry = {
        "cold": cold,
        "refresh": refresh,
        "speedup_cold": _round_speedups(cold_walls),
        "speedup_refresh": _round_speedups(refresh_walls),
        "results_match": results_match,
    }
    print(f"{name:>14}  cold {cold_walls[1]:6.2f}s → "
          f"{cold_walls[4]:6.2f}s @4t ({entry['speedup_cold']['4']}x) → "
          f"{cold_walls['process:4']:6.2f}s @4p "
          f"({entry['speedup_cold']['process:4']}x)   "
          f"refresh {refresh_walls[1]:6.3f}s → {refresh_walls[4]:6.3f}s "
          f"@4t ({entry['speedup_refresh']['4']}x)   "
          f"match={results_match}")
    return entry


def run_warm_refresh(name, dep, query, run_further):
    """Warm-pool refresh: spawn cost, transport and cold builds all
    excluded from the timer. Each arm pre-builds every view (populating
    the resident arm's worker caches), the deployment runs one more
    wave, and only the refresh+requery is timed."""
    dep.set_query_transport(rtt_seconds=0.0,
                            bandwidth_bytes_per_s=1e12)
    processors = {}
    for arm in WARM_ARMS:
        qp = QueryProcessor(dep, executor=arm)
        qp.prefetch()
        query(qp)
        processors[arm] = qp

    run_further()

    refresh = {}
    walls = {}
    prints = {}
    for arm in WARM_ARMS:
        qp = processors[arm]
        before = qp.mq.stats.copy()
        started = time.perf_counter()
        qp.refresh()
        result = query(qp)
        wall = time.perf_counter() - started
        delta = qp.mq.stats.delta_since(before)
        walls[arm] = wall
        prints[arm] = _fingerprint(result)
        refresh[str(arm)] = {
            "wall_seconds": round(wall, 4),
            "counters": delta.counters(),
            "resident": {f: getattr(delta, f) for f in RESIDENT_FIELDS},
        }
        qp.close()

    results_match = all(
        prints[a] == prints[WARM_ARMS[0]]
        and refresh[str(a)]["counters"]
        == refresh[str(WARM_ARMS[0])]["counters"]
        for a in WARM_ARMS
    )
    entry = {
        "refresh": refresh,
        "results_match": results_match,
    }
    resident = refresh["process:4"]["resident"]
    print(f"{name:>14}  warm refresh {walls[1]:6.3f}s serial, "
          f"{walls['process:4']:6.3f}s resident   "
          f"hits={resident['view_cache_hits']} "
          f"misses={resident['view_cache_misses']}   "
          f"match={results_match}")
    return entry


def run_concurrent(name, dep, query, run_further, n_queriers=3):
    """Concurrent queriers sharing one resident executor: the worker
    caches are keyed by verified head, so queriers at different heads
    miss (and rebuild cold) rather than read stale state — correctness
    is the gate here, walls are reported for context."""
    dep.set_query_transport(rtt_seconds=0.0,
                            bandwidth_bytes_per_s=1e12)
    executor = ProcessExecutor(2)
    queriers = [QueryProcessor(dep, executor=executor)
                for _ in range(n_queriers)]
    serial = QueryProcessor(dep)
    try:
        for qp in queriers:
            qp.prefetch()
        run_further()

        def refresh_and_query(qp):
            qp.refresh()
            return _fingerprint(query(qp))

        started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=n_queriers,
                                thread_name_prefix="querier") as pool:
            prints = list(pool.map(refresh_and_query, queriers))
        wall = time.perf_counter() - started
        serial.prefetch()
        oracle = _fingerprint(query(serial))
        results_match = all(p == oracle for p in prints)
        hits = sum(qp.mq.stats.view_cache_hits for qp in queriers)
        misses = sum(qp.mq.stats.view_cache_misses for qp in queriers)
        entry = {
            "queriers": n_queriers,
            "wall_seconds": round(wall, 4),
            "view_cache_hits": hits,
            "view_cache_misses": misses,
            "results_match": results_match,
        }
        print(f"{name:>14}  {n_queriers} concurrent queriers "
              f"{wall:6.3f}s   hits={hits} misses={misses}   "
              f"match={results_match}")
        return entry
    finally:
        for qp in queriers:
            qp.close()
        serial.close()
        executor.close()


def check(name, entry, require_2x_cold=False, require_process_beats_threads=False):
    # Explicit raises, not asserts: this is CI's acceptance gate and must
    # survive `python -O`.
    if not entry["results_match"]:
        raise SystemExit(
            f"{name}: parallel and serial builds disagree on query "
            "results or merged counters"
        )
    if require_2x_cold and entry["speedup_cold"]["4"] < 2.0:
        raise SystemExit(
            f"{name}: cold speedup at 4 workers is "
            f"{entry['speedup_cold']['4']}x, below the 2x target"
        )
    if require_process_beats_threads:
        process_wall = entry["cold"]["process:4"]["wall_seconds"]
        thread_wall = entry["cold"]["4"]["wall_seconds"]
        if process_wall >= thread_wall:
            raise SystemExit(
                f"{name}: process:4 cold build ({process_wall:.2f}s) does "
                f"not beat the 4-thread arm ({thread_wall:.2f}s) — the "
                "GIL floor is supposed to be broken"
            )


def check_warm(name, entry):
    if not entry["results_match"]:
        raise SystemExit(
            f"{name}: warm-refresh arms disagree on query results or "
            "merged counters (serial ≠ resident is a hard failure)"
        )
    resident = entry["refresh"]["process:4"]["resident"]
    if resident["view_cache_hits"] <= 0:
        raise SystemExit(
            f"{name}: the resident arm's warm refresh never hit its "
            "worker view cache"
        )
    if resident["view_cache_misses"] > 0:
        raise SystemExit(
            f"{name}: the resident arm's warm refresh rebuilt "
            f"{resident['view_cache_misses']} views cold — entries were "
            "lost between build and refresh"
        )


def check_concurrent(name, entry):
    if not entry["results_match"]:
        raise SystemExit(
            f"{name}: a concurrent querier diverged from the serial "
            "oracle"
        )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes + short RTT for CI; still "
                             "enforces parallel ≡ serial")
    parser.add_argument("--out", type=Path, default=OUT_PATH)
    args = parser.parse_args(argv)

    rtt = SMOKE_RTT_S if args.smoke else FULL_RTT_S
    if args.smoke:
        builders = [
            chord_scenario(n_nodes=10, rounds=2, lookups=2),
            bgp_scenario(n_updates=24, extra_prefixes=1),
            hadoop_scenario(n_words=300),
        ]
    else:
        builders = [
            chord_scenario(n_nodes=50, rounds=3, lookups=8),
            bgp_scenario(n_updates=120, extra_prefixes=2),
            hadoop_scenario(n_words=1200),
        ]

    scenarios = {}
    for name, dep, query, run_further in builders:
        entry = run_scenario(name, dep, query, run_further, rtt)
        is_chord = name.startswith("chord")
        check(name, entry,
              require_2x_cold=(not args.smoke and is_chord),
              require_process_beats_threads=(not args.smoke and is_chord))
        entry["warm_refresh"] = run_warm_refresh(name, dep, query,
                                                 run_further)
        check_warm(name, entry["warm_refresh"])
        entry["concurrent"] = run_concurrent(name, dep, query, run_further)
        check_concurrent(name, entry["concurrent"])
        scenarios[name] = entry

    payload = {
        "benchmark": "parallel",
        "smoke": args.smoke,
        "workers": [str(a) for a in ARMS],
        "transport": {
            "rtt_seconds": rtt,
            "bandwidth_bytes_per_s": BANDWIDTH_BYTES_PER_S,
        },
        "scenarios": scenarios,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
