"""Engine benchmark: indexed plans and differential deltas vs. the seed.

Runs the same fixpoint workloads through both engines — :class:`repro.
datalog.DatalogApp` (compiled plans + secondary indexes, the weighted
z-set delta plane and the aggregate membership map) and
:class:`repro.datalog.NaiveDatalogApp` (the seed's interpretive scans,
kept as the reference evaluator) — checks their outputs are
byte-identical, and reports events processed per second. Workloads scale
node count and relation size:

* **chord** — an n-node Chord ring: bootstrap, one gossip/stabilization
  round, then a batch of iterative lookups (paper Section 6.1);
* **bgp** — path-vector route propagation (the protocol family behind the
  paper's Quagga application) over a ring-with-chords topology; the size
  label counts the route tuples in the converged network;
* **hadoop** — the reduce-side shuffle fixpoint of the paper's Hadoop
  application (Section 6.2) as Datalog: per-(job, word) sum aggregates
  plus per-job completion counts over one reducer's shuffle relation;
* **churn** — the retract-heavy schedule: the bgp network converges,
  then a third of its links flap (delete + re-insert) for two rounds,
  exercising retraction cascades and min-aggregate support
  re-derivation under both engines.

A separate **refresh** section measures the differential claim
directly: the marginal ``delta_tuples_out`` of ONE extra event on a
warm chord mesh vs. re-deriving the entire suffix from scratch —
``check_regression.py`` gates that ratio.

Messages between nodes are pumped through a deterministic FIFO (no
crypto, no logging — this isolates the evaluation core). Besides wall
time, every row carries the engines' deterministic evaluation counters
(join candidates enumerated, guard prunes, delta tuples in/out,
retractions applied, support re-derivations), and a static ``plans``
section records per-program analysis/plan-build time plus the guard
schedule shape (pre/mid/late placements) — the machine-portable signals
``check_regression.py`` gates on. ``python benchmarks/bench_engine.py``
writes ``BENCH_engine.json`` next to this file so later PRs can track
the trajectory; ``--smoke`` runs tiny sizes (used by CI) and still
enforces output equality between the engines.
"""

import argparse
import hashlib
import json
import sys
import time
from collections import deque
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.datalog import (  # noqa: E402
    AggregateRule, Atom, DatalogApp, Guard, NaiveDatalogApp, Program, Rule,
    Var,
)
from repro.apps import chord as chord_app  # noqa: E402
from repro.apps import pathvector as pv  # noqa: E402
from repro.model import Snd, Tup  # noqa: E402


class Mesh:
    """A deterministic multi-node driver: FIFO message pump, no crypto."""

    def __init__(self, app_cls, program, names):
        self.apps = {name: app_cls(name, program) for name in names}
        self.queue = deque()
        self.events = 0
        self.digest = hashlib.sha256()

    def _absorb(self, outputs):
        for out in outputs:
            self.digest.update(repr(out).encode())
            if isinstance(out, Snd):
                self.queue.append(out.msg)
        self._pump()

    def _pump(self):
        while self.queue:
            msg = self.queue.popleft()
            self.events += 1
            outputs = self.apps[msg.dst].handle_receive(msg, 0.0)
            for out in outputs:
                self.digest.update(repr(out).encode())
                if isinstance(out, Snd):
                    self.queue.append(out.msg)

    def insert(self, name, tup):
        self.events += 1
        self._absorb(self.apps[name].handle_insert(tup, 0.0))

    def delete(self, name, tup):
        self.events += 1
        self._absorb(self.apps[name].handle_delete(tup, 0.0))

    def fingerprint(self):
        return self.digest.hexdigest()


# ------------------------------------------------------------------ chord

def run_chord(app_cls, n_nodes):
    import random
    ring_bits = 12
    size = 1 << ring_bits
    rng = random.Random(7)
    ids = sorted(rng.sample(range(size), n_nodes))
    members = [(f"n{i}", ring_id) for i, ring_id in enumerate(ids)]
    mesh = Mesh(app_cls, chord_app.chord_program(ring_bits=ring_bits),
                [name for name, _ in members])
    for index, (name, ring_id) in enumerate(members):
        mesh.insert(name, chord_app.node_tuple(name, ring_id))
        for j in range(6):
            offset = 1 << (ring_bits - 6 + j)
            mesh.insert(name, chord_app.finger_index(name, j, offset))
        for step in (1, 2):
            peer, peer_id = members[(index + step) % n_nodes]
            mesh.insert(name, chord_app.known_node(name, peer, peer_id))
            mesh.insert(name, chord_app.gossip_peer(name, peer))
        prev, _ = members[(index - 1) % n_nodes]
        mesh.insert(name, chord_app.gossip_peer(name, prev))
    for name, _ring_id in members:
        mesh.insert(name, chord_app.stab_tick(name, 0))
    for req, key in enumerate(rng.sample(range(size), min(n_nodes, 16))):
        origin, _ = members[req % n_nodes]
        mesh.insert(origin, chord_app.lookup_req(origin, key, req))
    return mesh


# -------------------------------------------------------------------- bgp

def _bgp_topology(n_nodes):
    names = [f"r{i:03d}" for i in range(n_nodes)]
    edges = {(names[i], names[(i + 1) % n_nodes]) for i in range(n_nodes)}
    for i in range(0, n_nodes, 3):  # chord shortcuts every third router
        edges.add(tuple(sorted((names[i], names[(i + n_nodes // 3)
                                                % n_nodes]))))
    return names, sorted(edges)


def run_bgp(app_cls, n_nodes):
    names, edges = _bgp_topology(n_nodes)
    mesh = Mesh(app_cls, pv.pathvector_program(), names)
    for x, y in edges:
        mesh.insert(x, pv.link(x, y))
        mesh.insert(y, pv.link(y, x))
    # Converged table size: the scenario's "route count" label.
    mesh.routes = sum(
        len(app.tuples_of("route")) for app in mesh.apps.values()
    )
    return mesh


# -------------------------------------------------------------- link churn

def run_churn(app_cls, n_nodes):
    """Retract-heavy path-vector schedule: converge the bgp topology,
    then flap every third link (delete both directions, re-insert both)
    for two rounds. Each deletion retracts derived routes transitively
    and forces min-aggregate best-path groups to re-derive from their
    remaining supports; each re-insertion re-derives the same routes, so
    the converged table must come back bit-identical every round."""
    names, edges = _bgp_topology(n_nodes)
    mesh = Mesh(app_cls, pv.pathvector_program(), names)
    for x, y in edges:
        mesh.insert(x, pv.link(x, y))
        mesh.insert(y, pv.link(y, x))
    flapping = edges[::3]
    for _round in range(2):
        for x, y in flapping:
            mesh.delete(x, pv.link(x, y))
            mesh.delete(y, pv.link(y, x))
        for x, y in flapping:
            mesh.insert(x, pv.link(x, y))
            mesh.insert(y, pv.link(y, x))
    mesh.routes = sum(
        len(app.tuples_of("route")) for app in mesh.apps.values()
    )
    return mesh


# ----------------------------------------------------------------- hadoop

def hadoop_program():
    """Reduce-side shuffle aggregation as Datalog (paper Section 6.2).

    One reducer believes per-(mapper, word) shuffle counts; its word
    totals are sum aggregates grouped by (job, word) and a job's output
    unlocks once every expected mapper reported done.
    """
    R, J, M, W, C, N, E = (Var(v) for v in ("R", "J", "M", "W", "C",
                                            "N", "E"))
    totals = AggregateRule(
        "WT",
        head=Atom("wordTotal", R, J, W, C),
        body=[Atom("shuffle", R, J, M, W, C)],
        agg_var=C, func="sum",
    )
    done = AggregateRule(
        "DC",
        head=Atom("doneCount", R, J, N),
        body=[Atom("mapDone", R, J, M)],
        agg_var=N, func="count",
    )
    ready = Rule(
        "RD",
        head=Atom("jobReady", R, J),
        body=[Atom("doneCount", R, J, N), Atom("expect", R, J, E)],
        guards=[Guard(lambda b: b["N"] >= b["E"], vars=("N", "E"),
                      label="N>=E")],
    )
    emit = Rule(
        "EM",
        head=Atom("output", R, J, W, C),
        body=[Atom("wordTotal", R, J, W, C), Atom("jobReady", R, J)],
    )
    return Program([totals, done, ready, emit])


def run_hadoop(app_cls, n_shuffle):
    """One reducer ingesting *n_shuffle* shuffle tuples across jobs."""
    reducer = "reducer0"
    mesh = Mesh(app_cls, hadoop_program(), [reducer])
    n_jobs = max(2, n_shuffle // 250)
    n_mappers = 5
    words = [f"w{i:02d}" for i in range(50)]
    for job in range(n_jobs):
        mesh.insert(reducer, Tup("expect", reducer, job, n_mappers))
    emitted = 0
    job = 0
    while emitted < n_shuffle:
        for mapper in range(n_mappers):
            for w_index, word in enumerate(words):
                if emitted >= n_shuffle:
                    break
                count = 1 + (emitted % 7)
                mesh.insert(reducer, Tup(
                    "shuffle", reducer, job, f"m{mapper}", word, count
                ))
                emitted += 1
        for mapper in range(n_mappers):
            mesh.insert(reducer, Tup("mapDone", reducer, job, f"m{mapper}"))
        job = (job + 1) % n_jobs
    return mesh


# ------------------------------------------------------------ static side

PLAN_PROGRAMS = {
    "chord": lambda: chord_app.chord_program(ring_bits=12),
    "pathvector": pv.pathvector_program,
    "hadoop": hadoop_program,
}


def measure_plans(repeats=5):
    """The static cost of a program: analysis + plan compilation time and
    the guard schedule shape. Wall times are recorded to watch the
    trajectory (an analyzer pass going quadratic shows up here); the
    regression gate only compares the deterministic guard-placement
    counts, where early→late drift means lost pruning."""
    from repro.datalog.plan import guard_schedule_counts

    rows = []
    for name, builder in PLAN_PROGRAMS.items():
        build_best = analyze_best = float("inf")
        program = None
        for _ in range(repeats):
            started = time.perf_counter()
            program = builder()
            build_best = min(build_best, time.perf_counter() - started)
            started = time.perf_counter()
            program.analyze()
            analyze_best = min(analyze_best, time.perf_counter() - started)
        counts = guard_schedule_counts(program)
        row = {
            "program": name,
            "rules": len(program.rules),
            "build_seconds": round(build_best, 6),
            "analyze_seconds": round(analyze_best, 6),
            "guard_pre": counts["pre"],
            "guard_mid": counts["mid"],
            "guard_late": counts["late"],
        }
        rows.append(row)
        print(
            f"{name:>10} rules={row['rules']:<3} "
            f"build={row['build_seconds'] * 1e3:.2f}ms "
            f"analyze={row['analyze_seconds'] * 1e3:.2f}ms "
            f"guards pre/mid/late="
            f"{counts['pre']}/{counts['mid']}/{counts['late']}"
        )
    return rows


# ---------------------------------------------------------------- harness

WORKLOADS = {
    "chord": (run_chord, "nodes"),
    "bgp": (run_bgp, "nodes"),
    "hadoop": (run_hadoop, "shuffle tuples"),
    "churn": (run_churn, "nodes"),
}

FULL_SIZES = {
    "chord": (20, 35, 50),
    "bgp": (20, 30, 40),
    "hadoop": (500, 1000, 2000),
    "churn": (20, 30, 40),
}

SMOKE_SIZES = {
    "chord": (8,),
    "bgp": (10,),
    "hadoop": (150,),
    "churn": (10,),
}

# The engines' per-event delta accounting, summed over a mesh. The
# in/out counters are trace properties (identical across engines for
# the same schedule); retractions/re-derivations count the deletion
# path's actual work.
DELTA_COUNTERS = ("delta_tuples_in", "delta_tuples_out",
                  "retractions_applied", "support_rederivations")


def _delta_totals(mesh):
    return {
        field: sum(getattr(app, field) for app in mesh.apps.values())
        for field in DELTA_COUNTERS
    }


def measure(runner, app_cls, size):
    started = time.perf_counter()
    mesh = runner(app_cls, size)
    elapsed = time.perf_counter() - started
    return {
        "seconds": elapsed,
        "events": mesh.events,
        "ops_per_sec": mesh.events / elapsed if elapsed else float("inf"),
        "fingerprint": mesh.fingerprint(),
        "routes": getattr(mesh, "routes", None),
        # Deterministic evaluation counters (summed over the mesh):
        # candidates enumerated by join steps, and candidates rejected by
        # a guard. Machine-portable, so the regression gate tracks them.
        "join_candidates": sum(
            app.join_candidates for app in mesh.apps.values()
        ),
        "guard_prunes": sum(
            app.guard_prunes for app in mesh.apps.values()
        ),
        "deltas": _delta_totals(mesh),
    }


def run_suite(sizes, min_speedup=None):
    results = []
    for name, (runner, size_label) in WORKLOADS.items():
        for size in sizes[name]:
            indexed = measure(runner, DatalogApp, size)
            naive = measure(runner, NaiveDatalogApp, size)
            if indexed["fingerprint"] != naive["fingerprint"]:
                raise AssertionError(
                    f"{name}@{size}: indexed and naive outputs diverge"
                )
            speedup = naive["seconds"] / indexed["seconds"]
            row = {
                "workload": name,
                "size": size,
                "size_label": size_label,
                "events": indexed["events"],
                "naive_ops_per_sec": round(naive["ops_per_sec"], 1),
                "indexed_ops_per_sec": round(indexed["ops_per_sec"], 1),
                "naive_seconds": round(naive["seconds"], 4),
                "indexed_seconds": round(indexed["seconds"], 4),
                "speedup": round(speedup, 2),
                "indexed_join_candidates": indexed["join_candidates"],
                "naive_join_candidates": naive["join_candidates"],
                "indexed_guard_prunes": indexed["guard_prunes"],
                "naive_guard_prunes": naive["guard_prunes"],
                # Both engines agreed byte-for-byte (asserted
                # above); recorded so the regression gate can refuse a
                # bench output whose equivalence check was edited away.
                "engines_agree": True,
                "naive_delta_tuples_out":
                    naive["deltas"]["delta_tuples_out"],
            }
            row.update(indexed["deltas"])
            if name in ("bgp", "churn"):
                row["routes"] = indexed["routes"]
            results.append(row)
            print(
                f"{name:>7} size={size:<6} events={row['events']:<7} "
                f"naive={row['naive_ops_per_sec']:>9.1f}/s "
                f"indexed={row['indexed_ops_per_sec']:>9.1f}/s "
                f"speedup={speedup:.2f}x "
                f"retractions={row['retractions_applied']}"
            )
    best = max(results, key=lambda r: r["speedup"])
    print(f"\nbest speedup: {best['speedup']}x "
          f"({best['workload']} @ {best['size']} {best['size_label']})")
    if min_speedup is not None and best["speedup"] < min_speedup:
        raise AssertionError(
            f"expected a >= {min_speedup}x scenario, best was "
            f"{best['speedup']}x"
        )
    return results


def measure_refresh(n_nodes):
    """The differential claim in one number: the marginal cost of one
    more event on a warm mesh vs. re-deriving the whole suffix.

    Builds the chord workload twice. The *warm* arm keeps the
    production mesh resident, records ``delta_tuples_out``, then
    applies ONE extra lookup — the counter's increase is the
    incremental derivation work. The *scratch* arm replays the entire
    schedule (including the extra lookup) through the naive reference
    from an empty store — its total ``delta_tuples_out`` is what a
    snapshot-restore replay would have re-derived. The two meshes must
    still agree byte-for-byte after the extra event; the ratio is the
    1-event refresh cost ``check_regression.py`` gates."""
    import random

    def one_more_lookup(mesh):
        rng = random.Random(11)  # distinct from run_chord's seed
        origin = sorted(mesh.apps)[0]
        mesh.insert(origin, chord_app.lookup_req(
            origin, rng.randrange(1 << 12), 999))

    warm = run_chord(DatalogApp, n_nodes)
    before = _delta_totals(warm)["delta_tuples_out"]
    one_more_lookup(warm)
    incremental = _delta_totals(warm)["delta_tuples_out"] - before

    scratch = run_chord(NaiveDatalogApp, n_nodes)
    one_more_lookup(scratch)
    full = _delta_totals(scratch)["delta_tuples_out"]
    if warm.fingerprint() != scratch.fingerprint():
        raise AssertionError(
            f"refresh@chord@{n_nodes}: warm production mesh diverged "
            "from the scratch re-derivation after the extra event"
        )
    ratio = incremental / full if full else 0.0
    print(
        f"refresh chord@{n_nodes}: 1-event delta_tuples_out="
        f"{incremental} vs full re-derivation={full} "
        f"(ratio {ratio:.4f})"
    )
    return {
        "workload": "chord",
        "size": n_nodes,
        "incremental_delta_tuples_out": incremental,
        "full_rederive_delta_tuples_out": full,
        "ratio": round(ratio, 6),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; equality check only (CI)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless some scenario reaches this")
    parser.add_argument("--out", default=None,
                        help="JSON output path "
                             "(default: benchmarks/BENCH_engine.json)")
    args = parser.parse_args(argv)
    sizes = SMOKE_SIZES if args.smoke else FULL_SIZES
    plans = measure_plans()
    results = run_suite(sizes, min_speedup=args.min_speedup)
    refresh = measure_refresh(max(sizes["chord"]))
    out_path = Path(args.out) if args.out else (
        Path(__file__).resolve().parent / "BENCH_engine.json"
    )
    payload = {
        "benchmark": ("datalog engine: indexed plans and differential "
                      "deltas vs seed scans"),
        "mode": "smoke" if args.smoke else "full",
        "plans": plans,
        "results": results,
        "refresh": refresh,
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
