"""The benchmark harness's own arithmetic, plus one smoke pass of every
workload (untraced and traced) so that harness rot fails tier-1.

Nothing here asserts a timing: the smoke passes check that every metric
BENCHMARK.json names is produced, that no operation fails, and that the
traced run attributes the timed wall to named layers.
"""

import json
import sys
import types

import pytest

import refprobe
import run
import tracer as tracer_module
import workloads

SPEC = json.loads(run.SPEC_PATH.read_text())


# ---------------------------------------------------------------- arithmetic

def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(20) == 80       # nothing qualifies: p80
    assert run.tail_percentile(50) == 80
    assert run.tail_percentile(99) == 80
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(200) == 95
    assert run.tail_percentile(1000) == 99


def test_no_workload_reports_a_tail_beyond_what_the_rule_allows():
    seconds = SPEC["run_seconds"]
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(seed=7)
        audits = workload.count(seconds) * cls.audits_per_sample
        assert cls.tail <= run.tail_percentile(audits), name
        assert f"p{cls.tail}" in next(
            w["why"] for w in SPEC["workloads"] if w["name"] == name)


def test_percentile_and_spread():
    values = list(range(1, 102))               # 1..101
    assert run.percentile(values, 80) == pytest.approx(81)
    assert run.percentile([5.0], 99) == 5.0
    assert run.spread([10, 10, 10, 10]) == 0
    assert run.spread([8, 9, 10, 11, 12]) == pytest.approx(3 / 10)


class ScriptedProbe:
    def __init__(self, readings):
        self._readings = iter(readings)

    def run(self):
        return next(self._readings)


def test_normalise_scales_to_the_nominal_probe_time():
    nominal = refprobe.REF_NOMINAL_MS
    assert refprobe.normalise(10.0, [nominal, nominal]) == pytest.approx(10)
    # A machine running at half speed (probe takes twice as long) makes
    # the same work read half as long once normalised.
    assert refprobe.normalise(10.0, [2 * nominal]) == pytest.approx(5)


def test_series_normalises_by_the_probes_around_a_sample():
    nominal = refprobe.REF_NOMINAL_MS
    readings = [nominal] * 4 + [2 * nominal] * 4
    series = refprobe.Series(ScriptedProbe(readings))
    for _ in range(4):
        series.probe()
    series.add("op", 1.0)          # two probes either side: 1x, 1x | 2x, 2x
    for _ in range(4):
        series.probe()
    series.add("op", 1.0)          # 2x, 2x | nothing after
    first, second = series.normalised("op")
    assert first == pytest.approx(1.0 / 1.5)
    assert second == pytest.approx(0.5)
    assert series.raw("op") == [1.0, 1.0]
    assert series.count("op") == 2 and series.count("other") == 0


# -------------------------------------------------------------------- tracer

@pytest.fixture
def toy(monkeypatch):
    """Two toy modules: ``toyprog.a`` defines ``inner``/``outer``,
    ``toyprog.b`` holds a ``from toyprog.a import inner`` alias. The
    tracer's clock is replaced by a counter the toy functions advance."""
    clock = [0.0]
    monkeypatch.setattr(tracer_module, "_perf", lambda: clock[0])
    a = types.ModuleType("toyprog.a")
    b = types.ModuleType("toyprog.b")

    def inner():
        clock[0] += 2.0
        return b"four"

    def outer():
        clock[0] += 3.0
        a.inner()
        clock[0] += 1.0

    class Machine:
        def step(self):
            clock[0] += 5.0
            return b.via_alias()

    a.inner, a.outer, a.Machine = inner, outer, Machine
    b.aliased = inner                      # from toyprog.a import inner
    b.via_alias = lambda: b.aliased()
    for module in (a, b):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    table = [
        tracer_module.EntryPoint("toy.leaf", "toyprog.a:inner",
                                 nbytes=lambda _args, result: len(result)),
        tracer_module.EntryPoint("toy.coarse", "toyprog.a:outer", span=True),
        tracer_module.EntryPoint("toy.coarse", "toyprog.a:Machine.step",
                                 span=True, sub="step"),
    ]
    return a, b, inner, tracer_module.Tracer(table, prefix="toyprog")


def test_self_time_is_span_minus_children(toy):
    a, _b, _inner, tracer = toy
    tracer.install()
    try:
        tracer.begin("op", 0)
        a.outer()
        tracer.end(6.0)
    finally:
        tracer.uninstall()
    assert tracer.total("toy.coarse", "seconds") == pytest.approx(4.0)
    assert tracer.total("toy.leaf", "seconds") == pytest.approx(2.0)
    assert tracer.total("toy.leaf", "nbytes") == 4
    assert tracer.coverage() == pytest.approx(1.0)
    (span,) = tracer.spans
    assert span[1] is None and span[2] == "toy.coarse:outer"
    assert (span[3], span[4], span[5], span[6]) == (0.0, 6.0, "op", 0)


def test_from_import_aliases_are_rebound_and_restored(toy):
    a, b, inner, tracer = toy
    tracer.install()
    try:
        assert a.inner is not inner and b.aliased is a.inner
        tracer.begin("op", 0)
        a.Machine().step()                 # method -> alias -> inner
        tracer.end(7.0)
    finally:
        tracer.uninstall()
    assert a.inner is inner and b.aliased is inner
    assert "step" in a.Machine.__dict__ and not hasattr(
        a.Machine.__dict__["step"], "__wrapped__")
    assert tracer.total("toy.leaf", "calls") == 1
    assert tracer.total("toy.coarse", "seconds", sub="step") \
        == pytest.approx(5.0)


def test_a_span_under_a_hot_leaf_keeps_the_enclosing_span_as_parent(toy):
    a, b, inner, tracer = toy
    pending = [lambda: a.outer()]      # looked up after install

    def leaf_that_calls_a_span_once():     # step -> leaf -> outer -> leaf
        if pending:
            pending.pop()()
        return inner()

    a.inner = b.aliased = leaf_that_calls_a_span_once
    tracer.install()
    try:
        tracer.begin("op", 3)
        a.Machine().step()
        tracer.end(13.0)
    finally:
        tracer.uninstall()
    spans = {span[2]: span for span in tracer.spans}
    step, outer = spans["toy.coarse:Machine.step"], spans["toy.coarse:outer"]
    assert step[1] is None and outer[1] == step[0]
    assert step[6] == outer[6] == 3
    assert tracer.total("toy.leaf", "calls") == 2


def test_nothing_is_recorded_outside_a_timed_region(toy):
    a, _b, _inner, tracer = toy
    tracer.install()
    try:
        a.outer()
    finally:
        tracer.uninstall()
    assert not tracer.cells and not tracer.spans


# ---------------------------------------------------------------- BENCHMARK

def test_benchmark_json_names_what_the_runner_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["per_layer"]] == run.per_layer_spec()
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


# -------------------------------------------------------------------- smoke

@pytest.fixture(scope="module")
def probe():
    return refprobe.RefProbe()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_untraced(name, probe):
    workload, bench = run.measure(
        workloads, probe, name, seed=7, seconds=1, smoke=True,
        imported=([refprobe.REF_NOMINAL_MS] * 2, 0.1))
    metrics = run.end_to_end_metrics(workload, bench)
    assert bench.failed == 0, bench.failures
    assert bench.attempted >= workload.smoke_count
    assert sorted(metrics) == sorted(m[0] for m in run.END_TO_END)
    assert all(value > 0 for value, _raw in metrics.values()), metrics


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_traced(name, probe):
    tracer, untraced, traced, cls = run.trace(
        workloads, probe, name, seed=7, seconds=1, smoke=True)
    values = run.per_layer_metrics(tracer, untraced, traced, cls)
    assert untraced.failed == traced.failed == 0
    assert run.check_layer_use(tracer, cls) == []
    assert sorted(values) == sorted(m[0] for m in run.per_layer_spec())
    assert values["trace.coverage"] >= 0.9
    # The wrappers are gone again: the program runs untraced after this.
    from repro.util import serialization
    assert not hasattr(serialization.canonical_bytes, "__wrapped__")
    service_only = values["service.client.calls"] > 0
    assert service_only == (name == "service-mixed")
