#!/usr/bin/env python3
"""End-to-end benchmark: four workloads, drift-normalised timings, a
layer budget per workload. See README.md beside this file.

    python3 benchmarks/e2e/run.py                       # all four workloads
    python3 benchmarks/e2e/run.py --repeat 5            # + spread / bound
    python3 benchmarks/e2e/run.py --workload cold-audit-chord --trace 1
    python3 benchmarks/e2e/run.py --smoke               # seconds, not minutes

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. The exit
code is non-zero when an operation failed.
"""

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from refprobe import RefProbe
from tracer import ENGINE_COUNTERS, QUERY_STAT_FIELDS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC_DIR = ROOT / "src"
OUT_DIR = HERE / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Set-up is repeated and its median reported, so one disturbed set-up
#: does not decide ``setup_s``.
SETUP_REPEATS = 4
#: A traced run measures this share of the samples, first without and
#: then with the wrappers installed.
TRACE_SHARE = 0.2
TAIL_CANDIDATES = (99, 95, 90, 80)

END_TO_END = [
    # name, unit, better
    ("setup_s", "s", "lower"),
    ("record_events_per_s", "1/s", "higher"),
    ("audit_p50_ms", "ms", "lower"),
    ("audit_tail_ms", "ms", "lower"),
    ("fresh_p50_ms", "ms", "lower"),
    ("audit_fetch_bytes", "B", "lower"),
    ("log_bytes_per_event", "B", "lower"),
    ("traffic_overhead_factor", "ratio", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

_TIMED_LAYERS = (
    "util.serialization", "datalog.engine", "provgraph.gca",
    "provgraph.graph", "crypto.hashing", "snp.replay", "snp.wire",
    "snp.snoopy", "snp.commitment", "snp.log", "net.simulator",
    "apps.driver", "snp.microquery", "snp.query", "service.push",
    "service.framing", "service.monitor", "service.server",
    "service.client",
)
#: ``<layer>.<sub>_s``: self time of one entry point (or group) of a layer.
_SUB_SECONDS = (
    ("crypto.rsa", "sign"), ("crypto.rsa", "verify"),
    ("snp.replay", "verify_self"), ("snp.replay", "replay_self"),
    ("snp.snoopy", "retrieve"),
    ("service.monitor", "ingest"), ("service.monitor", "refresh"),
    ("service.monitor", "query"), ("service.monitor", "wait"),
)


def per_layer_spec():
    """``[(name, unit, better)]`` of every per-layer metric, in the order
    BENCHMARK.json lists them."""
    spec = []
    for layer in _TIMED_LAYERS:
        spec.append((f"{layer}.self_s", "s", "lower"))
        spec.append((f"{layer}.calls", "count", "lower"))
    for layer in ("util.serialization", "service.push", "service.framing"):
        spec.append((f"{layer}.bytes", "B", "lower"))
    for counter in ENGINE_COUNTERS:
        spec.append((f"datalog.engine.{counter}", "count", "lower"))
    for layer, sub in _SUB_SECONDS:
        spec.append((f"{layer}.{sub}_s", "s", "lower"))
    spec.append(("crypto.rsa.sign_calls", "count", "lower"))
    spec.append(("crypto.rsa.verify_calls", "count", "lower"))
    for field in QUERY_STAT_FIELDS:
        better = "higher" if field in ("delta_fetches",
                                       "auth_checks_skipped") else "lower"
        spec.append((f"snp.query.{field}", "B" if field == "log_bytes"
                     else "count", better))
    spec.append(("service.monitor.refresh_batches", "count", "lower"))
    spec.append(("gc.collect_s", "s", "lower"))
    spec.append(("gc.collections", "count", "lower"))
    spec.append(("trace.coverage", "ratio", "higher"))
    spec.append(("trace.overhead_ratio", "ratio", "lower"))
    return spec


# ------------------------------------------------------------- statistics

def tail_percentile(samples):
    """The highest of p99/p95/p90/p80 that leaves at least ten samples
    beyond it; p80 when even that leaves fewer."""
    for pct in TAIL_CANDIDATES:
        if samples * (100 - pct) / 100.0 >= 10:
            return pct
    return TAIL_CANDIDATES[-1]


def percentile(values, pct):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def spread(values):
    """Inter-quartile distance as a share of the median (the driver's
    steadiness measure)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# ------------------------------------------------------- one workload run

def pin_hash_seed(seed):
    """Re-exec with ``PYTHONHASHSEED`` derived from the workload seed: the
    deployment derives node keys from ``hash()``, so without the pin the
    same seed would not give the same inputs."""
    wanted = str(seed % (1 << 32))
    if os.environ.get("PYTHONHASHSEED") != wanted:
        os.environ["PYTHONHASHSEED"] = wanted
        sys.stdout.flush()
        os.execv(sys.executable, [sys.executable] + sys.argv)


def load_program():
    """Import the program (through ``workloads``) with the probe on either
    side, so that import time is a normalised sample like any other."""
    if not (SRC_DIR / "repro").is_dir():
        sys.exit(f"run.py: no program to measure: {SRC_DIR}/repro is missing")
    sys.path.insert(0, str(SRC_DIR))
    probe = RefProbe()
    for _ in range(4):
        probe.run()                  # the first passes are slower
    probe.samples_ms.clear()
    before = [probe.run(), probe.run()]
    started = time.perf_counter()
    import workloads
    seconds = time.perf_counter() - started
    return probe, workloads, (before, seconds)


def measure(workloads, probe, name, seed, seconds, smoke, imported):
    """An untraced run: repeated set-up, then the timed loop."""
    cls = workloads.WORKLOADS[name]
    bench = workloads.Bench(probe)
    bench.series.probes_ms.extend(imported[0])
    bench.series.add("import", imported[1])
    workload = None
    for _ in range(1 if smoke else SETUP_REPEATS):
        if workload is not None:
            workload.teardown()
            workload = None
            gc.collect()
        bench.probe()
        bench.probe()
        workload = cls(seed, smoke=smoke)
        with bench.timed("setup", None):
            workload.setup(bench)
        bench.probe()
        bench.probe()
    timed_loop(workload, bench, workload.count(seconds))
    return workload, bench


def timed_loop(workload, bench, count):
    """Freeze what set-up built, run *count* samples, tear down."""
    gc.collect()
    gc.freeze()
    try:
        workload.run(bench, count)
    finally:
        gc.unfreeze()
        workload.teardown()


def end_to_end_metrics(workload, bench):
    """``{name: (normalised value, raw value or None)}``."""
    series = bench.series

    def both(kind, fn, scale=1.0):
        raw, norm = series.raw(kind), series.normalised(kind)
        return fn(norm) * scale, fn(raw) * scale

    import_norm, import_raw = both("import", statistics.median)
    setup_norm, setup_raw = both("setup", statistics.median)
    events = bench.values["record_events"]

    def rate(times):
        return statistics.median(e / t for e, t in zip(events, times))

    fresh_kind = "fresh" if series.count("fresh") else "audit"
    metrics = {
        "setup_s": (import_norm + setup_norm, import_raw + setup_raw),
        "record_events_per_s": both("record", rate),
        "audit_p50_ms": both("audit", statistics.median, 1e3),
        "audit_tail_ms": both(
            "audit", lambda v: percentile(v, workload.tail), 1e3),
        "fresh_p50_ms": both(fresh_kind, statistics.median, 1e3),
        "audit_fetch_bytes": (
            statistics.median(bench.values["audit_fetch_bytes"]), None),
        "peak_rss_mb": (workload.peak_rss_mb(), None),
    }
    for key, value in workload.exact().items():
        metrics[key] = (value, None)
    return metrics


def trace(workloads, probe, name, seed, seconds, smoke):
    """A traced run: the same samples on fresh state, first with no
    wrapper installed and then with every entry point wrapped."""
    cls = workloads.WORKLOADS[name]
    benches = []
    tracer = Tracer()
    for traced in (False, True):
        bench = workloads.Bench(probe, tracer if traced else None)
        workload = cls(seed, smoke=smoke, in_process=True)
        count = workload.count(seconds)
        if not smoke:
            count = max(3, round(count * TRACE_SHARE))
        if traced:
            tracer.install()
        try:
            bench.probe()
            workload.setup(bench)
            timed_loop(workload, bench, count)
        finally:
            if traced:
                tracer.uninstall()
        benches.append(bench)
        del workload
        gc.collect()
    return tracer, benches[0], benches[1], cls


def per_layer_metrics(tracer, untraced, traced, cls):
    values = {}
    for layer in _TIMED_LAYERS:
        values[f"{layer}.self_s"] = tracer.total(layer, "seconds")
        values[f"{layer}.calls"] = tracer.total(layer, "calls")
    values["util.serialization.bytes"] = tracer.total(
        "util.serialization", "nbytes")
    values["service.framing.bytes"] = tracer.total(
        "service.framing", "nbytes")
    values["service.push.bytes"] = (
        sum(traced.values["audit_fetch_bytes"])
        if cls.name == "service-mixed" else 0)
    for counter in ENGINE_COUNTERS:
        values[f"datalog.engine.{counter}"] = tracer.engine_total(counter)
    for layer, sub in _SUB_SECONDS:
        values[f"{layer}.{sub}_s"] = tracer.total(layer, "seconds", sub=sub)
    for sub in ("sign", "verify"):
        values[f"crypto.rsa.{sub}_calls"] = tracer.total(
            "crypto.rsa", "calls", sub=sub)
    for field in QUERY_STAT_FIELDS:
        values[f"snp.query.{field}"] = traced.stats[field]
    values["service.monitor.refresh_batches"] = sum(
        traced.values.get("refresh_batches", ()))
    values["gc.collect_s"] = tracer.gc_seconds
    values["gc.collections"] = tracer.gc_collections
    values["trace.coverage"] = tracer.coverage()
    values["trace.overhead_ratio"] = (
        statistics.median(traced.series.normalised(cls.primary))
        / statistics.median(untraced.series.normalised(cls.primary)))
    return values


def check_layer_use(tracer, cls):
    """Each workload does what its row says, from the counters."""
    problems = []
    if tracer.total("snp.microquery", "calls", kind="record"):
        problems.append("an audit layer ran inside a record step")
    if cls.name == "cold-audit-chord" and tracer.total(
            "snp.replay", "calls", sub="replay_self") == 0:
        problems.append("no replay in a cold audit")
    if cls.name == "service-mixed":
        cold = sum(1 for span in tracer.spans
                   if span[2].endswith(":replay_segment"))
        if cold:
            problems.append(f"{cold} cold rebuilds inside service epochs")
    return problems


def run_workload(args):
    pin_hash_seed(args.seed)
    probe, workloads, imported = load_program()
    name = args.workload
    if name not in workloads.WORKLOADS:
        sys.exit(f"run.py: unknown workload {name!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    print(f"# {name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    problems = []
    if args.trace:
        tracer, untraced, traced, cls = trace(
            workloads, probe, name, args.seed, args.seconds, args.smoke)
        values = per_layer_metrics(tracer, untraced, traced, cls)
        problems = check_layer_use(tracer, cls)
        metrics = {}
        for metric, unit, _better in per_layer_spec():
            metrics[metric] = {"value": values[metric], "unit": unit}
            print(f"{metric:42s} {values[metric]:>16.6g} {unit}")
        tracer.dump(OUT_DIR / f"trace-{name}.json",
                    {"workload": name, "seed": args.seed,
                     "metrics": values})
        for kind, layers in sorted(tracer.budget().items()):
            total = sum(layers.values())
            shares = ", ".join(
                f"{layer} {seconds / total:.0%}" for layer, seconds in
                sorted(layers.items(), key=lambda kv: -kv[1])[:6])
            print(f"# budget[{kind}] {total:.3f} s self: {shares}")
        benches = (untraced, traced)
    else:
        workload, bench = measure(workloads, probe, name, args.seed,
                                  args.seconds, args.smoke, imported)
        metrics = {}
        units = {metric: unit for metric, unit, _b in END_TO_END}
        for metric, (value, raw) in end_to_end_metrics(
                workload, bench).items():
            metrics[metric] = {"value": value, "unit": units[metric]}
            beside = "" if raw is None else f"   raw.{metric} {raw:.6g}"
            print(f"{metric:28s} {value:>14.6g} {units[metric]:6s}{beside}")
        for kind in ("record", "audit", "fresh", "setup"):
            if bench.series.count(kind):
                print(f"# samples[{kind}] {bench.series.count(kind)}")
        print(f"# audit_tail_ms is p{workload.tail}")
        allowed = tail_percentile(bench.series.count("audit"))
        if allowed > workload.tail:
            beyond = percentile(bench.series.normalised("audit"), allowed)
            print(f"# p{allowed} of the audit op (printed, not compared): "
                  f"{beyond * 1e3:.6g} ms")
        benches = (bench,)
    reading = probe.summary()
    print(f"ref_probe_ms median {reading['median']:.3f} "
          f"min {reading['min']:.3f} max {reading['max']:.3f} "
          f"({reading['runs']} runs)")
    attempted = sum(b.attempted for b in benches)
    failed = sum(b.failed for b in benches) + len(problems)
    for why in [w for b in benches for w in b.failures] + problems:
        print(f"FAILED: {why}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


# ------------------------------------------------------ the whole benchmark

def child_result(workload, args, seed):
    """Run one workload in a child interpreter; returns its result object
    with the ``raw.<metric>`` readings added under ``"raw"``."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        return None
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["raw"] = {}
    for line in lines:
        _before, found, after = line.partition(" raw.")
        if found:
            metric, value = after.split()
            result["raw"][metric] = float(value)
    return result


def run_all(args):
    """Every workload in its own interpreter (fresh heap, its own peak
    RSS), *repeat* times over, pass *i* with seed ``seed + i`` as the
    driver does; then, for more than one pass, the table of min / median /
    max, the spread as a share of the bound, and the spread the raw
    (un-normalised) readings would have had."""
    spec = json.loads(SPEC_PATH.read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values, raws = {}, {}
    status = 0
    for index in range(args.repeat):
        for name in names:
            result = child_result(name, args, args.seed + index)
            if result is None or not result["correct"]:
                status = 1
                continue
            for metric, entry in result["metrics"].items():
                values.setdefault((name, metric), []).append(entry["value"])
            for metric, value in result["raw"].items():
                raws.setdefault((name, metric), []).append(value)
    if args.repeat > 1:
        print(f"\n{'workload':18s} {'metric':24s} {'min':>11s} "
              f"{'median':>11s} {'max':>11s} {'spread':>7s} {'/bound':>6s} "
              f"{'raw spread':>10s}")
        for (name, metric), series in values.items():
            share = (f"{spread(series) / bounds[metric]:6.2f}"
                     if metric in bounds else "")
            raw = (f"{spread(raws[name, metric]):10.4f}"
                   if (name, metric) in raws else "")
            print(f"{name:18s} {metric:24s} {min(series):11.5g} "
                  f"{statistics.median(series):11.5g} {max(series):11.5g} "
                  f"{spread(series):7.4f} {share} {raw}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this "
                        "process (default: all, one child process each)")
    parser.add_argument("--seed", type=int, default=7,
                        help="generates keys, topologies, lookups, churn")
    parser.add_argument("--seconds", type=int, default=None,
                        help="length of the timed loop at reference speed "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="chord@6 and two or three samples")
    parser.add_argument("--repeat", type=int, default=1,
                        help="passes over all workloads (without "
                        "--workload)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads(SPEC_PATH.read_text())["run_seconds"]
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
