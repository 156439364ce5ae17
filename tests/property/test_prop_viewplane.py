"""The shared view plane survives interleaved refresh/GC (hypothesis).

A standing auditor refreshes its views while the deployment keeps
running, checkpointing, and garbage-collecting under it. Whatever the
interleaving, every executor must tell the same story: serial ≡ wire
builds are bit-identical in view statuses, query colors,
verdicts and merged counters after the whole schedule — the refresh
delta shipping, evidence compaction (``compact_evidence`` runs at every
batch end) and GC-floor invalidation must not leak executor-specific
state into any of them. A fixed-schedule run pays for a real resident
process pool (slow marker) to pin the same equivalence for the PR 6
worker-resident cache, whose entries GC floors and refreshes invalidate
mid-schedule.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps.mincost import best_cost, build_paper_network, link
from repro.snp import Deployment, QueryProcessor

#: Fresh links the random phases may insert (absent from the paper
#: topology, so inserts are always new tuples).
EXTRA_LINKS = (("a", "x"), ("b", "y"), ("c", "w"), ("d", "v"), ("e", "u"))


@st.composite
def schedules(draw):
    seed = draw(st.integers(0, 10_000))
    phases = []
    for _ in range(draw(st.integers(1, 3))):
        phases.append({
            "ops": draw(st.lists(
                st.tuples(st.sampled_from(range(len(EXTRA_LINKS))),
                          st.integers(1, 9)),
                min_size=0, max_size=2, unique_by=lambda op: op[0],
            )),
            "checkpoint": draw(st.booleans()),
            "gc": draw(st.booleans()),
            "refresh": draw(st.booleans()),
        })
    # Make the schedule bite: something must checkpoint, something must
    # refresh — otherwise GC has no floor and views have no deltas.
    phases[0]["checkpoint"] = True
    phases[-1]["refresh"] = True
    return {"seed": seed, "phases": phases}


def _fingerprint(result):
    return sorted((str(v.key()), v.color) for v in result.graph.vertices())


def _run_schedule(schedule, executor):
    dep = Deployment(seed=schedule["seed"], key_bits=256)
    nodes = build_paper_network(dep)
    dep.run()
    with QueryProcessor(dep, executor=executor) as qp:
        dep.register_querier(qp)
        try:
            qp.prefetch()
            for phase in schedule["phases"]:
                for which, k in phase["ops"]:
                    x, y = EXTRA_LINKS[which]
                    nodes[x].insert(link(x, y, k))
                    dep.run()
                if phase["checkpoint"]:
                    dep.checkpoint_all()
                if phase["gc"]:
                    dep.run_gc(checkpoint=False)
                if phase["refresh"]:
                    qp.refresh()
            result = qp.why(best_cost("c", "d", 5))
            return {
                "colors": _fingerprint(result),
                "faulty": result.faulty_nodes(),
                "suspect": result.suspect_nodes(),
                "views": {str(n): (v.status, v.head_index, v.base_index)
                          for n, v in qp.mq._views.items()},
                "counters": qp.mq.stats.counters(),
                "evidence": len(qp.mq.evidence),
            }
        finally:
            dep.unregister_querier(qp)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(schedules())
def test_serial_wire_identical_under_refresh_gc(wire_executor, schedule):
    serial = _run_schedule(schedule, None)
    assert _run_schedule(schedule, wire_executor) == serial, \
        f"wire diverged from serial on {schedule}"


#: One adversarial-by-construction interleaving: every phase mutates,
#: GC runs twice (the second past a refreshed floor, so it truncates),
#: and refreshes land both before and after truncation.
FIXED_SCHEDULE = {
    "seed": 4171,
    "phases": [
        {"ops": [(0, 3)], "checkpoint": True, "gc": False, "refresh": True},
        {"ops": [(1, 5)], "checkpoint": False, "gc": True, "refresh": True},
        {"ops": [(2, 2), (3, 7)], "checkpoint": True, "gc": True,
         "refresh": True},
    ],
}


@pytest.mark.slow
def test_resident_process_identical_under_refresh_gc():
    serial = _run_schedule(FIXED_SCHEDULE, None)
    assert _run_schedule(FIXED_SCHEDULE, "process:2") == serial
