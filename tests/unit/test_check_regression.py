"""The benchmark regression gate's engine rules.

The gate's promise (benchmarks/check_regression.py docstring) is that
only machine-portable metrics are compared: deterministic counters and
within-run ratios, never raw wall-clock seconds. These tests pin the
engine extractor and hard checks to that promise — join-candidate
counters gate at every size, guard-schedule counts gate the planner,
plan build/analyze seconds are recorded but never become metrics, and
an indexed engine that enumerates more candidates than the naive scan
fails outright. The delta gates work the same way: every row must
carry the production ≡ naive equivalence verdict and delta counters,
the production engine must not out-emit the naive reference, and the
1-event refresh must stay far under a from-scratch re-derivation.
"""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "check_regression", REPO_ROOT / "benchmarks" / "check_regression.py")
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)


def _payload():
    return {
        "benchmark": "engine",
        "results": [
            {
                "workload": "chord", "size": 8,
                "naive_seconds": 0.2, "indexed_seconds": 0.05,
                "speedup": 4.0,
                "indexed_join_candidates": 100,
                "naive_join_candidates": 400,
                "engines_agree": True,
                "delta_tuples_in": 80, "delta_tuples_out": 300,
                "retractions_applied": 12, "support_rederivations": 3,
                "naive_delta_tuples_out": 300,
            },
            {
                "workload": "bgp", "size": 10,
                "naive_seconds": 0.01, "indexed_seconds": 0.005,
                "speedup": 2.0,
                "indexed_join_candidates": 50,
                "naive_join_candidates": 60,
                "engines_agree": True,
                "delta_tuples_in": 40, "delta_tuples_out": 90,
                "retractions_applied": 5, "support_rederivations": 1,
                "naive_delta_tuples_out": 90,
            },
        ],
        "plans": [
            {"program": "chord", "rules": 17,
             "build_seconds": 0.001, "analyze_seconds": 0.002,
             "guard_pre": 4, "guard_mid": 5, "guard_late": 16},
        ],
        "refresh": {
            "workload": "chord", "size": 8,
            "incremental_delta_tuples_out": 11,
            "full_rederive_delta_tuples_out": 987,
            "ratio": 0.0111,
        },
    }


class TestEngineMetrics:
    def test_join_candidates_gate_at_every_size(self):
        metrics = check_regression.engine_metrics(_payload())
        assert metrics["chord@8.indexed_join_candidates"] == (
            100, check_regression.LOWER_IS_BETTER)
        # Below the wall-clock floor the speedup is skipped, but the
        # deterministic counter still gates.
        assert "bgp@10.speedup" not in metrics
        assert metrics["bgp@10.indexed_join_candidates"] == (
            50, check_regression.LOWER_IS_BETTER)

    def test_guard_schedule_counts_gate(self):
        metrics = check_regression.engine_metrics(_payload())
        assert metrics["plans.chord.guard_early"] == (
            9, check_regression.HIGHER_IS_BETTER)
        assert metrics["plans.chord.guard_late"] == (
            16, check_regression.LOWER_IS_BETTER)

    def test_wall_clock_never_becomes_a_metric(self):
        for key in check_regression.engine_metrics(_payload()):
            assert "seconds" not in key
            assert "build" not in key and "analyze" not in key

    def test_delta_counters_gate_at_every_size(self):
        metrics = check_regression.engine_metrics(_payload())
        assert metrics["chord@8.delta_tuples_out"] == (
            300, check_regression.LOWER_IS_BETTER)
        assert metrics["bgp@10.support_rederivations"] == (
            1, check_regression.LOWER_IS_BETTER)

    def test_refresh_ratio_is_a_metric(self):
        metrics = check_regression.engine_metrics(_payload())
        assert metrics["refresh.ratio"] == (
            0.0111, check_regression.LOWER_IS_BETTER)
        assert metrics["refresh.incremental_delta_tuples_out"] == (
            11, check_regression.LOWER_IS_BETTER)


class TestEngineHardChecks:
    def test_clean_payload_passes(self):
        assert check_regression.engine_hard_checks(_payload()) == []

    def test_indexed_above_naive_fails(self):
        payload = _payload()
        payload["results"][0]["indexed_join_candidates"] = 401
        failures = check_regression.engine_hard_checks(payload)
        assert any("chord@8" in f and "401" in f for f in failures)

    def test_missing_counters_fail(self):
        payload = _payload()
        del payload["results"][1]["indexed_join_candidates"]
        failures = check_regression.engine_hard_checks(payload)
        assert any("bgp@10" in f and "counters" in f for f in failures)

    def test_missing_plans_section_fails(self):
        payload = _payload()
        payload["plans"] = []
        failures = check_regression.engine_hard_checks(payload)
        assert any("plans" in f for f in failures)

    def test_missing_equivalence_verdict_fails(self):
        payload = _payload()
        del payload["results"][0]["engines_agree"]
        failures = check_regression.engine_hard_checks(payload)
        assert any("chord@8" in f and "equivalence" in f
                   for f in failures)

    def test_differential_out_emitting_naive_fails(self):
        payload = _payload()
        payload["results"][1]["delta_tuples_out"] = 91
        failures = check_regression.engine_hard_checks(payload)
        assert any("bgp@10" in f and "91" in f and "redundant" in f
                   for f in failures)

    def test_missing_delta_counters_fail(self):
        payload = _payload()
        del payload["results"][0]["naive_delta_tuples_out"]
        failures = check_regression.engine_hard_checks(payload)
        assert any("chord@8" in f and "delta counters" in f
                   for f in failures)

    def test_missing_refresh_section_fails(self):
        payload = _payload()
        del payload["refresh"]
        failures = check_regression.engine_hard_checks(payload)
        assert any("refresh" in f for f in failures)

    def test_refresh_above_ceiling_fails(self):
        payload = _payload()
        payload["refresh"]["incremental_delta_tuples_out"] = 500
        failures = check_regression.engine_hard_checks(payload)
        assert any("refresh" in f and "500" in f for f in failures)

    def test_committed_outputs_satisfy_hard_checks(self):
        import json
        for path in (REPO_ROOT / "benchmarks" / "BENCH_engine.json",
                     REPO_ROOT / "benchmarks" / "baselines"
                     / "BENCH_engine.json"):
            payload = json.loads(path.read_text())
            assert check_regression.engine_hard_checks(payload) == []
