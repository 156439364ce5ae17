"""Benchmark regression gate: compare smoke outputs against baselines.

CI runs the three benchmark smokes (bench_engine, bench_audit,
bench_parallel), then this script compares their JSON output against the
committed baselines in ``benchmarks/baselines/`` and fails the job when

* any tracked metric regresses by more than ``--threshold`` (default 30%)
  in its bad direction — slower speedups, more bytes fetched, more events
  replayed;
* a baseline metric disappears from the current output (schema drift must
  not silently retire a gate);
* ``bench_engine`` misses the engine equivalence verdict
  (production ≡ naive) on any row, emits more output deltas
  than the naive reference derives, or the 1-event refresh re-derives
  more than a small fraction of the from-scratch suffix — all checked
  on the *current* output alone with zero tolerance;
* ``bench_parallel`` reports any serial ≠ parallel mismatch
  (``results_match: false``) — this one is checked on the *current*
  output alone and tolerates nothing. The same zero tolerance covers
  the warm-refresh and concurrent-querier phases: a serial ≠ resident
  divergence, a warm refresh that never hits the resident view cache
  (or rebuilds entries cold), or a missing warm/resident arm all fail
  the gate outright.

Only machine-portable metrics are tracked: deterministic counters (log
bytes, events replayed, signatures verified) and within-run ratios
(indexed-vs-naive speedup, cold-vs-requery ratios, parallel speedups).
Raw wall-clock seconds are never compared across machines.

Usage::

    python benchmarks/check_regression.py            # gate all three
    python benchmarks/check_regression.py --update-baselines

``--update-baselines`` copies the current outputs over the baselines —
run it (and commit the result) when a deliberate change moves the
numbers.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BASELINE_DIR = BENCH_DIR / "baselines"

HIGHER_IS_BETTER = "higher"
LOWER_IS_BETTER = "lower"


# ------------------------------------------------------- metric extraction


# Below this much naive-evaluator wall time, the indexed-vs-naive speedup
# ratio is scheduler noise, not signal — smoke sizes can dip under a
# millisecond. Rows faster than this are not gated (the smoke's own
# indexed ≡ naive equality assertion still covers their correctness).
ENGINE_MIN_NAIVE_SECONDS = 0.05


def engine_metrics(payload):
    """Indexed-vs-naive speedup per workload/size (within-run ratio),
    plus the deterministic evaluation and scheduling counters.

    Join candidates are exact counts of the work the indexed engine
    enumerates — unlike speedups they gate at every size, smoke
    included, and the same arm's delta counters gate the same
    way: more output deltas or support re-derivations for the same
    schedule means the delta plane started doing redundant work. The
    1-event refresh ratio (marginal deltas over a from-scratch
    re-derivation) is a within-run ratio, portable across machines.
    The static guard-placement counts (``plans`` section)
    catch a scheduler regression where guards drift from early (pre/mid,
    pruning partial matches) to full-binding (late) even when the tiny
    smoke wall times hide the slowdown."""
    out = {}
    for row in payload.get("results", []):
        key = f"{row['workload']}@{row['size']}"
        if "indexed_join_candidates" in row:
            out[f"{key}.indexed_join_candidates"] = (
                row["indexed_join_candidates"], LOWER_IS_BETTER)
        for field in ("delta_tuples_out", "support_rederivations"):
            if field in row:
                out[f"{key}.{field}"] = (row[field], LOWER_IS_BETTER)
        if row.get("naive_seconds", 0.0) < ENGINE_MIN_NAIVE_SECONDS:
            continue
        out[f"{key}.speedup"] = (row["speedup"], HIGHER_IS_BETTER)
    refresh = payload.get("refresh")
    if refresh:
        out["refresh.incremental_delta_tuples_out"] = (
            refresh["incremental_delta_tuples_out"], LOWER_IS_BETTER)
        out["refresh.ratio"] = (refresh["ratio"], LOWER_IS_BETTER)
    for plan in payload.get("plans", []):
        name = plan["program"]
        early = plan.get("guard_pre", 0) + plan.get("guard_mid", 0)
        out[f"plans.{name}.guard_early"] = (early, HIGHER_IS_BETTER)
        out[f"plans.{name}.guard_late"] = (plan.get("guard_late", 0),
                                           LOWER_IS_BETTER)
    return out


# The 1-event refresh must re-derive well under this fraction of what a
# from-scratch replay of the whole schedule derives — the differential
# engine's reason to exist. Generous enough for the tiny smoke sizes
# (observed ~0.01 at chord@8); the baseline comparison above tracks
# drift much more tightly.
REFRESH_MAX_RATIO = 0.1


def engine_hard_checks(payload):
    """Zero-tolerance checks on the current engine output alone: the
    indexed engine must never enumerate more join candidates than the
    naive scan does (indexes may only skip work); every row must carry
    the engine equivalence verdict (production ≡ naive, asserted
    byte-for-byte by the bench itself); the production engine must not
    emit more output deltas than the naive
    reference derives for the same schedule; the 1-event refresh must
    stay far cheaper than a from-scratch re-derivation; and the static
    plans section must be present so the guard-schedule gate stays
    real."""
    failures = []
    for row in payload.get("results", []):
        indexed = row.get("indexed_join_candidates")
        naive = row.get("naive_join_candidates")
        if indexed is None or naive is None:
            failures.append(
                f"{row.get('workload')}@{row.get('size')}: bench output "
                "carries no join-candidate counters"
            )
            continue
        if indexed > naive:
            failures.append(
                f"{row['workload']}@{row['size']}: indexed engine "
                f"enumerated {indexed} join candidates, more than the "
                f"naive scan's {naive} (indexes must only skip work)"
            )
        key = f"{row['workload']}@{row['size']}"
        if not row.get("engines_agree", False):
            failures.append(
                f"{key}: bench output carries no engine equivalence "
                "verdict (production ≡ naive was not checked)"
            )
        delta_out = row.get("delta_tuples_out")
        naive_out = row.get("naive_delta_tuples_out")
        if delta_out is None or naive_out is None:
            failures.append(
                f"{key}: bench output carries no delta counters "
                "(the differential gate would be vacuous)"
            )
        elif delta_out > naive_out:
            failures.append(
                f"{key}: production engine emitted {delta_out} output "
                f"deltas, more than the naive reference's {naive_out} "
                "derivations (the delta plane must not do redundant "
                "work)"
            )
    refresh = payload.get("refresh")
    if not refresh:
        failures.append(
            "bench output has no refresh section (the 1-event "
            "incremental-vs-scratch gate would be vacuous)"
        )
    else:
        incremental = refresh.get("incremental_delta_tuples_out", 0)
        full = refresh.get("full_rederive_delta_tuples_out", 0)
        if full <= 0:
            failures.append(
                "refresh: from-scratch re-derivation produced no "
                "deltas (the refresh ratio is meaningless)"
            )
        elif incremental > full * REFRESH_MAX_RATIO:
            failures.append(
                f"refresh: 1-event refresh re-derived {incremental} "
                f"deltas vs {full} from scratch — above the "
                f"{REFRESH_MAX_RATIO:.0%} ceiling (incremental refresh "
                "must stay far cheaper than replaying the suffix)"
            )
    if not payload.get("plans"):
        failures.append(
            "bench output has no plans section (the guard-schedule "
            "gate would be vacuous)"
        )
    return failures


def audit_metrics(payload):
    """Cold-vs-requery ratios plus the requery's deterministic costs."""
    out = {}
    for name, entry in payload.get("scenarios", {}).items():
        for field, ratio in entry.get("ratios", {}).items():
            out[f"{name}.ratio.{field}"] = (ratio, HIGHER_IS_BETTER)
        requery = entry.get("requery_after_run", {})
        for field in ("log_bytes", "events_replayed"):
            if field in requery:
                out[f"{name}.requery.{field}"] = (requery[field],
                                                  LOWER_IS_BETTER)
    return out


def parallel_metrics(payload):
    """Parallel speedups and the serial build's deterministic costs.

    Only the *refresh* speedup is gated: its wall time is almost pure
    simulated RTT (50 delta fetches, trivial compute), so the ratio is
    stable across machines. The cold speedup mixes in GIL-serialized
    compute whose share grows on slower runners — it is reported in the
    JSON but covered here through the deterministic counters and
    ``results_match`` instead.

    The warm-refresh phase contributes the resident cache's
    deterministic hit counter.
    """
    out = {}
    for name, entry in payload.get("scenarios", {}).items():
        speedups = entry.get("speedup_refresh", {})
        if "4" in speedups:
            out[f"{name}.refresh.speedup@4"] = (speedups["4"],
                                                HIGHER_IS_BETTER)
        serial = entry.get("cold", {}).get("1", {}).get("counters", {})
        for field in ("log_bytes", "events_replayed", "signatures_verified"):
            if field in serial:
                out[f"{name}.cold.{field}"] = (serial[field],
                                               LOWER_IS_BETTER)
        warm = entry.get("warm_refresh", {})
        for key, arm in warm.get("refresh", {}).items():
            if not str(key).startswith("process:"):
                continue
            hits = arm.get("resident", {}).get("view_cache_hits")
            if hits is not None:
                out[f"{name}.warm.view_cache_hits"] = (hits,
                                                       HIGHER_IS_BETTER)
    return out


def parallel_hard_checks(payload):
    """Zero-tolerance checks on the current output alone.

    ``results_match`` covers every arm the bench ran — thread *and*
    process pools — so any serial ≠ process mismatch (colors, verdicts,
    or merged non-timing counters) fails here; the presence check keeps
    the process arm from silently dropping out of the bench matrix.
    """
    failures = []
    for name, entry in payload.get("scenarios", {}).items():
        if not entry.get("results_match", False):
            failures.append(
                f"{name}: serial and parallel builds disagree "
                "(results_match is false)"
            )
        if not any(str(key).startswith("process:")
                   for key in entry.get("cold", {})):
            failures.append(
                f"{name}: bench output has no process arm (the "
                "serial ≡ process gate would be vacuous)"
            )
        warm = entry.get("warm_refresh")
        if warm is None:
            failures.append(
                f"{name}: bench output has no warm_refresh phase (the "
                "serial ≡ resident gate would be vacuous)"
            )
        else:
            if not warm.get("results_match", False):
                failures.append(
                    f"{name}: serial and resident warm refreshes "
                    "disagree (warm_refresh.results_match is false)"
                )
            resident_arms = [
                arm for key, arm in warm.get("refresh", {}).items()
                if str(key).startswith("process:")
            ]
            if not resident_arms:
                failures.append(
                    f"{name}: warm_refresh ran without a resident "
                    "process arm"
                )
            for arm in resident_arms:
                resident = arm.get("resident", {})
                if resident.get("view_cache_hits", 0) <= 0:
                    failures.append(
                        f"{name}: resident warm refresh never hit the "
                        "view cache"
                    )
                if resident.get("view_cache_misses", 0) > 0:
                    failures.append(
                        f"{name}: resident warm refresh rebuilt "
                        f"{resident['view_cache_misses']} views cold "
                        "(cache entries were lost between refreshes)"
                    )
        concurrent = entry.get("concurrent")
        if concurrent is not None and not concurrent.get("results_match",
                                                         False):
            failures.append(
                f"{name}: concurrent queriers diverged from the serial "
                "oracle (concurrent.results_match is false)"
            )
    return failures


def storage_metrics(payload):
    """Checkpoint-GC boundedness: the no-GC/GC size ratio and the GC'd
    steady-state bytes themselves (both deterministic counters)."""
    out = {}
    for name, entry in payload.get("scenarios", {}).items():
        out[f"{name}.gc_reduction"] = (entry["reduction_factor"],
                                       HIGHER_IS_BETTER)
        out[f"{name}.gc.mean_log_bytes"] = (
            entry["gc"]["mean_log_bytes"], LOWER_IS_BETTER)
        out[f"{name}.gc.max_log_bytes"] = (
            entry["gc"]["max_log_bytes"], LOWER_IS_BETTER)
    return out


def storage_hard_checks(payload):
    """Zero-tolerance: truncation must never dirty a healthy audit, and
    honest nodes must never be convicted of retention faults."""
    failures = []
    for name, entry in payload.get("scenarios", {}).items():
        if not entry.get("query_clean_no_gc", False):
            failures.append(
                f"{name}: the no-GC baseline audit is not clean (the "
                "ring itself is unhealthy; the GC comparison is void)"
            )
        if not entry.get("query_clean_gc", False):
            failures.append(
                f"{name}: post-GC audit of a healthy ring is not clean"
            )
        if entry.get("retention_faults", 0):
            failures.append(
                f"{name}: honest nodes convicted of retention faults"
            )
    return failures


def service_metrics(payload):
    """Deterministic counters from the service-plane bench. Wall-clock
    throughput and latency are reported in the JSON but never compared
    across machines; what gates is push efficiency (bytes the pusher
    shipped for the fixed workload — a delta regression shows up as a
    re-shipped log) and that subscription fan-out stayed dedup'd."""
    out = {}
    for name, entry in payload.get("scenarios", {}).items():
        pusher = entry.get("pusher", {})
        if "bytes_sent" in pusher:
            out[f"{name}.pusher.bytes_sent"] = (pusher["bytes_sent"],
                                                LOWER_IS_BETTER)
        meter = entry.get("meter", {})
        for field in ("pushes_shed", "push_retries", "alerts_dropped"):
            if field in meter:
                out[f"{name}.meter.{field}"] = (meter[field],
                                                LOWER_IS_BETTER)
    return out


def service_hard_checks(payload):
    """Zero-tolerance checks on the service bench's current output: the
    REST audits must be bit-identical to the direct ones, the injected
    adversary must be convicted through the service exactly as directly,
    and every standing subscriber must have received the green→red
    alert."""
    failures = []
    scenarios = payload.get("scenarios", {})
    if not scenarios:
        failures.append("BENCH_service.json carries no scenarios "
                        "(the service gate would be vacuous)")
    for name, entry in scenarios.items():
        if not entry.get("results_match", False):
            failures.append(
                f"{name}: service audits diverged from the direct "
                "in-process audit (results_match is false)"
            )
        if not entry.get("conviction_match", False):
            failures.append(
                f"{name}: the service audit did not convict the "
                "injected adversary exactly like the direct audit"
            )
        fanout = entry.get("fanout", {})
        subscribers = fanout.get("subscribers", 0)
        if subscribers <= 0:
            failures.append(f"{name}: fan-out phase ran no subscribers")
        elif fanout.get("alerts_delivered", 0) != subscribers:
            failures.append(
                f"{name}: only {fanout.get('alerts_delivered', 0)} of "
                f"{subscribers} subscribers received the downgrade alert"
            )
        meter = entry.get("meter", {})
        if meter.get("pushes_accepted", 0) < 2:
            failures.append(
                f"{name}: daemon accepted "
                f"{meter.get('pushes_accepted', 0)} pushes (needs the "
                "clean push and the post-fork push)"
            )
        for field in ("corrupt_frames", "garbage_bytes"):
            if meter.get(field, 0):
                failures.append(
                    f"{name}: transport damage on loopback "
                    f"({field}={meter[field]})"
                )
    return failures


BENCHMARKS = {
    "BENCH_engine.json": (engine_metrics, engine_hard_checks),
    "BENCH_audit.json": (audit_metrics, None),
    "BENCH_parallel.json": (parallel_metrics, parallel_hard_checks),
    "BENCH_storage.json": (storage_metrics, storage_hard_checks),
    "BENCH_service.json": (service_metrics, service_hard_checks),
}


# ------------------------------------------------------------- comparison


def compare(filename, current, baseline, threshold):
    """Failure strings for metrics of *current* vs *baseline*."""
    failures = []
    for key, (base_value, direction) in sorted(baseline.items()):
        if key not in current:
            failures.append(f"{filename}: metric {key} missing from "
                            "current output (present in baseline)")
            continue
        value, _dir = current[key]
        if base_value == 0:
            continue  # nothing to regress against
        if direction == HIGHER_IS_BETTER:
            floor = base_value * (1.0 - threshold)
            if value < floor:
                failures.append(
                    f"{filename}: {key} regressed: {value:g} < "
                    f"{floor:g} (baseline {base_value:g}, "
                    f"-{threshold:.0%} tolerance)"
                )
        else:
            ceiling = base_value * (1.0 + threshold)
            if value > ceiling:
                failures.append(
                    f"{filename}: {key} regressed: {value:g} > "
                    f"{ceiling:g} (baseline {base_value:g}, "
                    f"+{threshold:.0%} tolerance)"
                )
    return failures


def write_step_summary(reports, threshold):
    """Append per-suite verdicts and metric tables to the file named by
    ``$GITHUB_STEP_SUMMARY`` (the job-summary markdown GitHub renders).
    A no-op outside Actions."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    lines = ["## Benchmark regression gate",
             f"Tolerance: ±{threshold:.0%} per metric "
             "(counters and within-run ratios only; wall-clock is "
             "never compared across machines).", ""]
    for filename, report in reports.items():
        verdict = "✅ pass" if not report["failures"] else "❌ **FAIL**"
        lines.append(f"### `{filename}` — {verdict}")
        rows = report.get("rows") or []
        if rows:
            lines.append("")
            lines.append("| metric | current | baseline | better |")
            lines.append("|---|---:|---:|---|")
            for metric, current, base, direction in rows:
                cur = "—" if current is None else f"{current:g}"
                lines.append(f"| `{metric}` | {cur} | {base:g} "
                             f"| {direction} |")
        for failure in report["failures"]:
            lines.append(f"- ⚠️ {failure}")
        lines.append("")
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current-dir", type=Path, default=BENCH_DIR,
                        help="directory holding the just-produced "
                             "BENCH_*.json files")
    parser.add_argument("--baseline-dir", type=Path, default=BASELINE_DIR)
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="fractional slowdown tolerated per metric "
                             "(default 0.30)")
    parser.add_argument("--update-baselines", action="store_true",
                        help="copy current outputs over the baselines "
                             "instead of gating")
    args = parser.parse_args(argv)

    failures = []
    reports = {}
    for filename, (extract, hard_checks) in BENCHMARKS.items():
        report = {"failures": [], "rows": []}
        reports[filename] = report
        current_path = args.current_dir / filename
        baseline_path = args.baseline_dir / filename
        if not current_path.exists():
            report["failures"].append(
                f"{filename}: no current output at "
                f"{current_path} (did the smoke run?)")
            failures.extend(report["failures"])
            continue
        payload = json.loads(current_path.read_text())
        if hard_checks is not None:
            report["failures"].extend(hard_checks(payload))
        if args.update_baselines:
            args.baseline_dir.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(current_path, baseline_path)
            print(f"baseline updated: {baseline_path}")
            failures.extend(report["failures"])
            continue
        if not baseline_path.exists():
            report["failures"].append(
                f"{filename}: no committed baseline at {baseline_path}")
            failures.extend(report["failures"])
            continue
        baseline = extract(json.loads(baseline_path.read_text()))
        current = extract(payload)
        report["rows"] = [
            (key, current.get(key, (None, None))[0], base_value, direction)
            for key, (base_value, direction) in sorted(baseline.items())
        ]
        file_failures = compare(filename, current, baseline,
                                args.threshold)
        report["failures"].extend(file_failures)
        failures.extend(report["failures"])
        if not file_failures:
            print(f"{filename}: {len(baseline)} metrics within "
                  f"{args.threshold:.0%} of baseline")

    write_step_summary(reports, args.threshold)

    if failures:
        print("\nREGRESSION GATE FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
