"""ndlint (repro.datalog.analysis) — diagnostics, SIPS, and the gate.

The mutation corpus is the heart: ~15 deliberately broken programs, each
asserted to be caught with its *specific* diagnostic code — an analyzer
that rejects everything would pass a weaker test. The rest covers the
execution gate (both evaluators refuse unsafe programs), the SIPS
validator, strata, rendering, and the CLI.
"""

import io

import pytest

from repro.datalog import (
    AggregateRule, Atom, DatalogApp, Guard, Program, ProgramAnalysisError,
    Rule, Var, analyze,
)
from repro.datalog.analysis import (
    CODES, ERROR, INFO, WARNING, SipJoin, SipStep, rule_sips,
    sip_violations,
)
from repro.datalog.analyze import main as analyze_main
from repro.datalog.parser import parse_program

from naive import NaiveDatalogApp


def _analysis(text):
    return parse_program(text, check=False).analyze()


#: The mutation corpus: (label, program text, expected code, severity).
#: Every program is broken in exactly the named way.
CORPUS = [
    ("unsafe_head_var",
     "R1: p(@X, Y) :- q(@X).",
     "ND101", ERROR),
    ("unsafe_aggregate_group_var",
     "R1: best(@X, D, min<K>) :- c(@X, K).",
     "ND101", ERROR),
    ("unbound_guard_var",
     "R1: p(@X, Y) :- q(@X, Y), Z < Y.",
     "ND102", ERROR),
    ("unbound_expr_var",
     "R1: p(@X, Y+1) :- q(@X).",
     "ND103", ERROR),
    ("arity_clash_between_rules",
     "R1: p(@X) :- q(@X, Y), q(@X, Y).\n"
     "R2: r(@X) :- q(@X).",
     "ND201", ERROR),
    ("arity_clash_with_declaration",
     "input q/3.\n"
     "R1: p(@X) :- q(@X, Y), q(@X, Y).",
     "ND201", ERROR),
    ("arity_clash_within_rule",
     "R1: p(@X) :- q(@X, Y), q(@X, Y, Y).",
     "ND201", ERROR),
    ("column_type_conflict",
     "R1: p(@X) :- q(@X, 1), q(@X, 1).\n"
     "R2: r(@X) :- q(@X, 'one'), q(@X, 'one').",
     "ND202", ERROR),
    ("sum_aggregation_cycle",
     "R1: total(@X, sum<K>) :- p(@X, K).\n"
     "R2: p(@X, K) :- total(@X, K).",
     "ND301", ERROR),
    ("count_cycle_via_longer_path",
     "R1: c(@X, count<K>) :- p(@X, K).\n"
     "R2: q(@X, K) :- c(@X, K).\n"
     "R3: p(@X, K) :- q(@X, K).",
     "ND301", ERROR),
    ("minmax_recursion_is_info",
     "R1: best(@X, min<K>) :- p(@X, K).\n"
     "R2: p(@X, K) :- best(@X, K).",
     "ND302", INFO),
    ("minmax_recursion_flags_retraction_path",
     "R1: best(@X, min<K>) :- p(@X, K).\n"
     "R2: p(@X, K) :- best(@X, K).",
     "ND305", INFO),
    ("dead_recursive_rules",
     "input a/1.\n"
     "output p.\n"
     "R1: p(@X) :- a(@X).\n"
     "R2: q(@X) :- s(@X).\n"
     "R3: s(@X) :- q(@X).",
     "ND501", WARNING),
    ("unreachable_relation",
     "input a/1.\n"
     "output p.\n"
     "R1: p(@X) :- a(@X).\n"
     "R2: s(@X) :- a(@X).",
     "ND502", WARNING),
    ("singleton_variable",
     "R1: p(@X) :- q(@X, Y).",
     "ND503", INFO),
    ("unknown_body_predicate",
     "input a/1.\n"
     "R1: p(@X) :- b(@X).",
     "ND504", ERROR),
    ("unused_declared_input",
     "input a/1.\n"
     "input z/1.\n"
     "output p.\n"
     "R1: p(@X) :- a(@X).",
     "ND505", WARNING),
]


class TestMutationCorpus:
    @pytest.mark.parametrize(
        "label,text,code,severity",
        CORPUS, ids=[entry[0] for entry in CORPUS])
    def test_caught_with_the_right_code(self, label, text, code, severity):
        analysis = _analysis(text)
        hits = analysis.by_code(code)
        assert hits, (
            f"{label}: expected {code}, got "
            f"{[d.code for d in analysis.diagnostics]}"
        )
        assert all(d.severity == severity for d in hits)

    @pytest.mark.parametrize(
        "label,text,code,severity",
        [entry for entry in CORPUS if entry[3] == ERROR],
        ids=[entry[0] for entry in CORPUS if entry[3] == ERROR])
    def test_errors_gate_parse_program(self, label, text, code, severity):
        with pytest.raises(ProgramAnalysisError) as excinfo:
            parse_program(text)
        assert any(d.code == code for d in excinfo.value.diagnostics)

    @pytest.mark.parametrize(
        "label,text,code,severity",
        [entry for entry in CORPUS if entry[3] != ERROR],
        ids=[entry[0] for entry in CORPUS if entry[3] != ERROR])
    def test_non_errors_do_not_gate(self, label, text, code, severity):
        program = parse_program(text)   # must not raise
        assert program.analyze().ok

    def test_every_corpus_code_is_documented(self):
        for _label, _text, code, _severity in CORPUS:
            assert code in CODES

    def test_wildcard_underscore_silences_singleton(self):
        assert not _analysis("R1: p(@X) :- q(@X, _Y).").by_code("ND503")

    def test_singleton_not_double_reported_with_nd101(self):
        analysis = _analysis("R1: p(@X, Y) :- q(@X).")
        assert analysis.by_code("ND101")
        assert not analysis.by_code("ND503")

    def test_count_output_var_is_safe(self):
        # count<N> binds N to the group size during aggregation; a head
        # that carries it without any body occurrence is the idiom, not
        # an unsafe variable or a wildcard.
        analysis = _analysis(
            "input done/2.\noutput c.\n"
            "R1: c(@X, count<N>) :- done(@X, _M).")
        assert not analysis.by_code("ND101")
        assert not analysis.by_code("ND503")
        assert analysis.ok

    def test_other_aggregates_still_need_bound_agg_var(self):
        for func in ("min", "max", "sum"):
            analysis = _analysis(
                f"R1: c(@X, {func}<N>) :- done(@X, M).")
            assert analysis.by_code("ND101"), func


class TestDiagnosticPrecision:
    def test_span_points_at_the_offending_variable(self):
        text = "R1: p(@X, Y) :- q(@X)."
        diag = _analysis(text).by_code("ND101")[0]
        assert diag.span is not None
        assert diag.span.line == 1
        assert text[diag.span.col - 1] == "Y"
        assert diag.rule == "R1"
        assert diag.variable == "Y"
        assert diag.hint

    def test_format_with_filename(self):
        diag = _analysis("R1: p(@X, Y) :- q(@X).").by_code("ND101")[0]
        line = diag.format(filename="prog.ndl")
        assert line.startswith("prog.ndl:1:")
        assert "error ND101" in line

    def test_render_draws_carets(self):
        text = "R1: p(@X, Y) :- q(@X)."
        analysis = _analysis(text)
        report = analysis.render(source=text, filename="prog.ndl")
        assert "^" in report
        assert text in report
        assert "hint:" in report

    def test_render_clean(self):
        analysis = _analysis("input q/2.\noutput p.\n"
                             "R1: p(@X, Y) :- q(@X, Y).")
        assert analysis.ok
        assert analysis.render() == "clean: no diagnostics"


class TestStrata:
    def test_dependencies_come_first(self):
        analysis = _analysis(
            "R1: p(@X, Y) :- q(@X, Y).\n"
            "R2: r(@X, Y) :- p(@X, Y)."
        )
        order = {rel: i for i, stratum in enumerate(analysis.strata)
                 for rel in stratum}
        assert order["q"] < order["p"] < order["r"]

    def test_recursive_relations_share_a_stratum(self):
        analysis = _analysis(
            "R1: best(@X, min<K>) :- p(@X, K).\n"
            "R2: p(@X, K) :- best(@X, K).\n"
            "R3: p(@X, K) :- base(@X, K)."
        )
        stratum = next(s for s in analysis.strata if "p" in s)
        assert "best" in stratum

    def test_nd305_paired_with_nd302_on_recursive_minmax(self):
        analysis = _analysis(
            "R1: best(@X, min<K>) :- p(@X, K).\n"
            "R2: p(@X, K) :- best(@X, K)."
        )
        assert len(analysis.by_code("ND302")) == 1
        hits = analysis.by_code("ND305")
        assert len(hits) == 1
        assert hits[0].severity == INFO
        assert hits[0].rule == "R1"
        assert "support" in hits[0].message

    def test_nd305_not_emitted_for_acyclic_minmax(self):
        analysis = _analysis(
            "R1: best(@X, min<K>) :- p(@X, K)."
        )
        assert not analysis.by_code("ND302")
        assert not analysis.by_code("ND305")


class TestSipsValidator:
    def _rule(self):
        X, Y = Var("X"), Var("Y")
        return Rule(
            "R",
            head=Atom("h", X, Y),
            body=[Atom("q", X), Atom("r", X, Y)],
            guards=[Guard(lambda b: b["Y"] > 0, vars=(Y,), label="Y>0")],
        )

    def test_built_schedules_are_always_valid(self):
        rule = self._rule()
        for join in rule_sips(rule):
            assert sip_violations(rule, join) == []

    def test_premature_guard_is_detected(self):
        rule = self._rule()
        # Hand-built schedule firing the Y guard on the trigger bindings
        # of q(@X) — before r(@X, Y) has bound Y.
        bad = SipJoin(
            trigger_pos=0,
            pre_guards=(0,),
            steps=(SipStep(1, frozenset({"X"}), frozenset({"X", "Y"}),
                           ()),),
        )
        assert sip_violations(rule, bad) == [0]

    def test_nd401_reported_for_premature_schedule(self):
        from repro.datalog.analysis import _pass_binding
        rule = self._rule()
        diags = []
        _pass_binding([rule], set(), diags)
        assert not [d for d in diags if d.code == "ND401"]


class TestExecutionGate:
    def _unsafe_program(self):
        X, Y = Var("X"), Var("Y")
        return Program([Rule("R", Atom("p", X, Y), [Atom("q", X)])])

    @pytest.mark.parametrize("app_cls", [DatalogApp, NaiveDatalogApp])
    def test_both_evaluators_refuse_unsafe_programs(self, app_cls):
        with pytest.raises(ProgramAnalysisError) as excinfo:
            app_cls("n1", self._unsafe_program())
        assert any(d.code == "ND101" for d in excinfo.value.diagnostics)

    @pytest.mark.parametrize("app_cls", [DatalogApp, NaiveDatalogApp])
    def test_no_keyword_skips_the_gate(self, app_cls):
        """The gate has no escape hatch: the keyword that once skipped
        the analysis is refused before any program is run."""
        with pytest.raises(TypeError, match="unsafe_skip_analysis"):
            app_cls("n1", self._unsafe_program(), unsafe_skip_analysis=True)

    def test_analysis_memoized_and_invalidated_by_add(self):
        X = Var("X")
        program = Program([Rule("R", Atom("p", X), [Atom("q", X)])])
        first = program.analyze()
        assert program.analyze() is first
        program.add(Rule("R2", Atom("r", X), [Atom("p", X)]))
        second = program.analyze()
        assert second is not first
        assert len(second.rules) == 2

    def test_opaque_guard_is_only_an_info(self):
        X = Var("X")
        program = Program([
            Rule("R", Atom("p", X), [Atom("q", X)],
                 guards=[Guard(lambda b: True, label="opaque")]),
        ])
        analysis = program.analyze()
        assert analysis.ok
        assert analysis.by_code("ND104")
        DatalogApp("n1", program)   # gate passes

    def test_aggregate_rules_analyzed_too(self):
        X, K, D = Var("X"), Var("K"), Var("D")
        program = Program([
            AggregateRule("A", Atom("best", X, D, K),
                          [Atom("c", X, K)], agg_var=K, func="min"),
        ])
        with pytest.raises(ProgramAnalysisError):
            DatalogApp("n1", program)


class TestAppsAreClean:
    def test_all_builtin_apps_pass_ndlint(self):
        from repro.apps import lint_targets
        for name, program in lint_targets().items():
            analysis = program.analyze()
            assert analysis.errors == (), (
                f"{name}: {[d.format() for d in analysis.errors]}"
            )

    def test_analyze_accepts_plain_rule_lists(self):
        X = Var("X")
        rules = [Rule("R", Atom("p", X), [Atom("q", X)])]
        assert analyze(rules).ok


class TestCli:
    def test_file_mode_clean(self, tmp_path):
        path = tmp_path / "ok.ndl"
        path.write_text("input q/2.\noutput p.\n"
                        "R1: p(@X, Y) :- q(@X, Y).\n")
        out = io.StringIO()
        assert analyze_main([str(path)], out=out) == 0
        assert "clean" in out.getvalue()

    def test_file_mode_errors_exit_nonzero_with_carets(self, tmp_path):
        path = tmp_path / "bad.ndl"
        path.write_text("R1: p(@X, Y) :- q(@X).\n")
        out = io.StringIO()
        assert analyze_main([str(path)], out=out) == 1
        report = out.getvalue()
        assert "ND101" in report
        assert "^" in report

    def test_parse_error_reported_with_location(self, tmp_path):
        path = tmp_path / "syntax.ndl"
        path.write_text("R1: p(@X :- q(@X).\n")
        out = io.StringIO()
        assert analyze_main([str(path)], out=out) == 1
        assert "error" in out.getvalue()

    def test_apps_mode_is_clean(self):
        out = io.StringIO()
        assert analyze_main(["--apps"], out=out) == 0
        report = out.getvalue()
        for name in ("mincost", "pathvector", "chord", "bgp", "mapreduce"):
            assert f"{name}: ok" in report

    def test_strata_flag(self, tmp_path):
        path = tmp_path / "ok.ndl"
        path.write_text("input q/2.\noutput p.\n"
                        "R1: p(@X, Y) :- q(@X, Y).\n")
        out = io.StringIO()
        assert analyze_main([str(path), "--strata"], out=out) == 0
        assert "stratum 0" in out.getvalue()
