"""The analyzer's gate (repro.datalog.analysis) and the schedule oracle.

The mutation corpus is the heart: one deliberately broken program per
way of breaking it, each asserted to be caught with its *specific*
diagnostic code — an analyzer that rejects everything would pass a
weaker test — next to the programs the gate must let through. The rest
covers the execution gate (both evaluators refuse ill-formed programs),
the shipped programs and the example program passing it, and the
schedule oracle the plan tests use.
"""

from pathlib import Path

import pytest

from repro.datalog import (
    AggregateRule, Atom, DatalogApp, Guard, Program, ProgramAnalysisError,
    Rule, Var, analyze,
)
from repro.datalog.analysis import CODES
from repro.datalog.parser import _parse, parse_program
from repro.datalog.plan import JoinPlan, JoinStep, compile_rule
from repro.util.errors import ParseError

from naive import NaiveDatalogApp, schedule_violations
from scenarios import shipped_programs

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "mincost.ndl"


def _diagnostics(text):
    """The diagnostics the gate raises for *text*; () when it passes."""
    try:
        parse_program(text)
    except ProgramAnalysisError as exc:
        return exc.diagnostics
    return ()


def _codes(text):
    return [d.code for d in _diagnostics(text)]


def _rules_and_inputs(text):
    """The rules and input declarations of *text*, ungated."""
    rules, inputs = _parse(text)
    return rules, inputs or None


#: The mutation corpus: (label, program text, expected code). Every
#: program is broken in exactly the named way.
CORPUS = [
    ("unsafe_head_var",
     "R1: p(@X, Y) :- q(@X).",
     "ND101"),
    ("unsafe_aggregate_group_var",
     "R1: best(@X, D, min<K>) :- c(@X, K).",
     "ND101"),
    ("unbound_guard_var",
     "R1: p(@X, Y) :- q(@X, Y), Z < Y.",
     "ND102"),
    ("unbound_expr_var",
     "R1: p(@X, Y+1) :- q(@X).",
     "ND103"),
    ("arity_clash_between_rules",
     "R1: p(@X) :- q(@X, Y), q(@X, Y).\n"
     "R2: r(@X) :- q(@X).",
     "ND201"),
    ("arity_clash_with_declaration",
     "input q/3.\n"
     "R1: p(@X) :- q(@X, Y), q(@X, Y).",
     "ND201"),
    ("arity_clash_within_rule",
     "R1: p(@X) :- q(@X, Y), q(@X, Y, Y).",
     "ND201"),
    ("column_type_conflict",
     "R1: p(@X) :- q(@X, 1), q(@X, 1).\n"
     "R2: r(@X) :- q(@X, 'one'), q(@X, 'one').",
     "ND202"),
    ("sum_aggregation_cycle",
     "R1: total(@X, sum<K>) :- p(@X, K).\n"
     "R2: p(@X, K) :- total(@X, K).",
     "ND301"),
    ("count_cycle_via_longer_path",
     "R1: c(@X, count<K>) :- p(@X, K).\n"
     "R2: q(@X, K) :- c(@X, K).\n"
     "R3: p(@X, K) :- q(@X, K).",
     "ND301"),
    ("unknown_body_predicate",
     "input a/1.\n"
     "R1: p(@X) :- b(@X).",
     "ND504"),
]

#: Programs the gate lets through: legal, however odd.
ACCEPTED = [
    ("minmax_recursion",
     "R1: best(@X, min<K>) :- p(@X, K).\n"
     "R2: p(@X, K) :- best(@X, K)."),
    ("minmax_recursion_with_a_base_case",
     "R1: best(@X, min<K>) :- p(@X, K).\n"
     "R2: p(@X, K) :- best(@X, K).\n"
     "R3: p(@X, K) :- base(@X, K)."),
    ("dead_recursive_rules",
     "input a/1.\n"
     "R1: p(@X) :- a(@X).\n"
     "R2: q(@X) :- s(@X).\n"
     "R3: s(@X) :- q(@X)."),
    ("unreachable_relation",
     "input a/1.\n"
     "R1: p(@X) :- a(@X).\n"
     "R2: s(@X) :- a(@X)."),
    ("singleton_variable",
     "R1: p(@X) :- q(@X, Y)."),
    ("unused_declared_input",
     "input a/1.\n"
     "input z/1.\n"
     "R1: p(@X) :- a(@X)."),
    ("a_maybe_rules_choice_relation",
     "input a/1.\n"
     "M1: p(@X) :~ a(@X)."),
]


class TestMutationCorpus:
    @pytest.mark.parametrize(
        "label,text,code", CORPUS, ids=[entry[0] for entry in CORPUS])
    def test_caught_with_the_right_code(self, label, text, code):
        codes = [d.code for d in analyze(*_rules_and_inputs(text))]
        assert code in codes, f"{label}: expected {code}, got {codes}"

    @pytest.mark.parametrize(
        "label,text,code", CORPUS, ids=[entry[0] for entry in CORPUS])
    def test_errors_gate_parse_program(self, label, text, code):
        with pytest.raises(ProgramAnalysisError) as excinfo:
            parse_program(text)
        assert any(d.code == code for d in excinfo.value.diagnostics)

    @pytest.mark.parametrize(
        "label,text", ACCEPTED, ids=[entry[0] for entry in ACCEPTED])
    def test_non_errors_do_not_gate(self, label, text):
        assert _codes(text) == []

    def test_every_corpus_code_is_documented(self):
        assert {code for _label, _text, code in CORPUS} == set(CODES)

    def test_count_output_var_is_safe(self):
        # count<N> binds N to the group size during aggregation; a head
        # that carries it without any body occurrence is the idiom, not
        # an unsafe variable.
        assert _codes("input done/2.\n"
                      "R1: c(@X, count<N>) :- done(@X, _M).") == []

    def test_other_aggregates_still_need_bound_agg_var(self):
        for func in ("min", "max", "sum"):
            assert "ND101" in _codes(
                f"R1: c(@X, {func}<N>) :- done(@X, M)."), func

    def test_output_is_no_keyword(self):
        with pytest.raises(ParseError):
            parse_program("output p.\nR1: p(@X) :- q(@X).")


class TestDiagnosticPrecision:
    def test_span_points_at_the_offending_variable(self):
        text = "R1: p(@X, Y) :- q(@X)."
        (diag,) = _diagnostics(text)
        assert diag.code == "ND101"
        assert diag.span is not None
        assert diag.span.line == 1
        assert text[diag.span.col - 1] == "Y"
        assert diag.rule == "R1"
        assert diag.variable == "Y"

    def test_error_message_locates_each_diagnostic(self):
        with pytest.raises(ProgramAnalysisError) as excinfo:
            parse_program("R1: p(@X, Y) :- q(@X).\n"
                          "R2: r(@X) :- q(@X), Z < 1.")
        lines = str(excinfo.value).splitlines()[1:]
        assert [line.strip().split(": ")[:2] for line in lines] == [
            ["1:11", "ND101"], ["2:21", "ND102"]]

    def test_nd301_names_the_cycle_and_its_rule(self):
        (diag,) = _diagnostics(
            "R1: c(@X, count<K>) :- p(@X, K).\n"
            "R2: q(@X, K) :- c(@X, K).\n"
            "R3: p(@X, K) :- q(@X, K).\n"
            "R4: z(@X, K) :- c(@X, K).")
        assert diag.code == "ND301" and diag.rule == "R1"
        assert "{c, p, q}" in diag.message


class TestSipsValidator:
    """The schedule oracle itself: it passes what the planner builds and
    catches a guard fired before its variables bind."""

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
        for join in compile_rule(rule).joins:
            assert schedule_violations(rule, join) == []

    def test_premature_guard_is_detected(self):
        rule = self._rule()
        # A hand-built plan firing the Y guard on the trigger bindings of
        # q(@X) — before r(@X, Y) has bound Y.
        bad = JoinPlan(rule, 0, pre_guards=(rule.guards[0],), steps=(
            JoinStep(1, rule.body[1], {"X"}, ()),))
        assert schedule_violations(rule, bad) == [
            "guard 0 fires before ['Y'] bind"]


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

    def test_analysis_memoized_and_invalidated_by_add(self, monkeypatch):
        import repro.datalog.engine as engine
        runs = []

        def counting(rules, inputs):
            runs.append(len(rules))
            return analyze(rules, inputs)
        monkeypatch.setattr(engine, "analyze", counting)
        X, Y = Var("X"), Var("Y")
        program = Program([Rule("R", Atom("p", X), [Atom("q", X)])])
        program.ensure_checked()
        program.ensure_checked()
        DatalogApp("n1", program)
        assert runs == [1]
        program.add(Rule("R2", Atom("r", X, Y), [Atom("p", X)]))
        with pytest.raises(ProgramAnalysisError):
            program.ensure_checked()
        assert runs == [1, 2]

    def test_opaque_guard_passes_the_gate(self):
        X = Var("X")
        program = Program([
            Rule("R", Atom("p", X), [Atom("q", X)],
                 guards=[Guard(lambda b: True, label="opaque")]),
        ])
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
    """What CI's program lint step checked, in tier-1: an ill-formed
    shipped program or example fails the suite."""

    @pytest.mark.parametrize("name", sorted(shipped_programs()))
    def test_shipped_program_passes_the_gate(self, name):
        shipped_programs()[name].ensure_checked()

    def test_the_example_program_passes_the_gate(self):
        program = parse_program(EXAMPLE.read_text())
        assert [rule.name for rule in program.rules] == ["R1", "R2", "R3"]
        assert program.declared_inputs == {"link": 3}

    def test_analyze_accepts_plain_rule_lists(self):
        X = Var("X")
        rules = [Rule("R", Atom("p", X), [Atom("q", X)])]
        assert analyze(rules) == ()
