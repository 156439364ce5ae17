"""ndlint property suite: the analyzer versus the engines.

Three angles, all randomized:

* **Clean programs run identically.** Random *textual* programs that the
  analyzer passes clean must execute through the full pipeline (parse →
  analyze → gate → plan) with the indexed engine observationally equal
  to the naive reference — the gate must never admit a program the
  engines disagree on, and the SIPS annotations it feeds the planner
  must not change semantics.
* **Mutations are caught precisely.** Breaking a known-clean program in
  a specific way must produce the matching diagnostic code (and gate
  refusal for error severities) — not just "some" complaint.
* **SIPS schedules are sound by construction.** For random rules, every
  schedule probes each body atom exactly once, fires each declared guard
  exactly once, and has no binding-order violations.
"""

from hypothesis import given, settings, strategies as st

from repro.datalog import (
    Atom, DatalogApp, Guard, ProgramAnalysisError, Rule, Var,
)
from repro.datalog.analysis import ERROR, rule_sips, sip_violations
from repro.datalog.parser import parse_program
from repro.model import Der, Snd, Tup, Und

from naive import NaiveDatalogApp

NODES = ("n", "m")


# ----------------------------------------------- random textual programs


@st.composite
def program_texts(draw):
    """Analyzer-clean-by-construction program text with declarations."""
    lines = ["input e/2.", "input f/3."]
    heads = ["h", "agg"]
    guard = ""
    if draw(st.booleans()):
        guard = f", B <= {draw(st.integers(0, 3))}"
    if draw(st.booleans()):
        guard += ", A != B"
    lines.append(f"J: h(@L, A, B) :- e(@L, A), f(@L, A, B){guard}.")
    if draw(st.booleans()):
        lines.append("SJ: h2(@L, A, C) :- f(@L, A, B), f(@L, B, C).")
        heads.append("h2")
    if draw(st.booleans()):
        lines.append("CH: h3(@L, B) :- h(@L, A, B), e(@L, A).")
        heads.append("h3")
    if draw(st.booleans()):
        lines.append("P: push(@'m', A, B) :- f(@L, A, B).")
        heads.append("push")
    func = draw(st.sampled_from(["min", "max", "sum", "count"]))
    lines.append(f"AG: agg(@L, A, {func}<B>) :- f(@L, A, B).")
    for head in heads:
        lines.append(f"output {head}.")
    return "\n".join(lines)


def base_tuples():
    locs = st.sampled_from(NODES)
    small = st.integers(0, 2)
    return st.one_of(
        st.builds(lambda l, a: Tup("e", l, a), locs, small),
        st.builds(lambda l, a, b: Tup("f", l, a, b),
                  locs, small, st.integers(0, 3)),
    )


events = st.lists(
    st.tuples(st.sampled_from(["ins", "del"]),
              st.sampled_from(NODES), base_tuples()),
    min_size=1, max_size=20,
)


def _observe(out):
    if isinstance(out, Der):
        return ("der", repr(out.tup), out.rule,
                tuple(repr(s) for s in out.support))
    if isinstance(out, Und):
        return ("und", repr(out.tup), out.rule,
                tuple(repr(s) for s in out.support))
    if isinstance(out, Snd):
        m = out.msg
        return ("snd", m.polarity, repr(m.tup), m.src, m.dst, m.seq)
    return ("other", repr(out))


def _drive(app_cls, program, ops):
    apps = {node: app_cls(node, program) for node in NODES}
    trace = []
    queue = []

    def absorb(outputs):
        for out in outputs:
            trace.append(_observe(out))
            if isinstance(out, Snd):
                queue.append(out.msg)
        while queue:
            msg = queue.pop(0)
            for out in apps[msg.dst].handle_receive(msg, 0.0):
                trace.append(_observe(out))
                if isinstance(out, Snd):
                    queue.append(out.msg)

    for index, (kind, node, tup) in enumerate(ops):
        t = float(index)
        if kind == "ins":
            absorb(apps[node].handle_insert(tup, t))
        else:
            absorb(apps[node].handle_delete(tup, t))

    state = {
        name: [(repr(t), at) for t, at in apps[name].extant_tuples()]
        for name in NODES
    }
    return trace, state


class TestCleanProgramsRunIdentically:
    @given(program_texts(), events)
    @settings(max_examples=60, deadline=None)
    def test_parse_gate_plan_pipeline_agrees_with_naive(self, text, ops):
        program = parse_program(text)        # check=True: the gate runs
        analysis = program.analyze()
        assert analysis.ok
        assert analysis.sips is not None
        indexed = _drive(DatalogApp, program, ops)
        naive = _drive(NaiveDatalogApp, program, ops)
        assert indexed[0] == naive[0]
        assert indexed[1] == naive[1]


# ------------------------------------------------------------- mutations


CLEAN_BASE = "\n".join([
    "input e/2.",
    "input f/3.",
    "output h.",
    "output agg.",
    "J: h(@L, A, B) :- e(@L, A), f(@L, A, B), B <= 2.",
    "AG: agg(@L, A, min<B>) :- f(@L, A, B).",
])

#: (label, [(find, replace)] text edits + appended lines, expected code).
MUTATIONS = [
    ("unbind_head_var",
     [("h(@L, A, B)", "h(@L, A, Z)")], [], "ND101"),
    ("unbind_guard_var",
     [("B <= 2", "Z <= 2")], [], "ND102"),
    ("unbind_expr_var",
     [("h(@L, A, B)", "h(@L, A, B+Z)")], [], "ND103"),
    ("grow_body_arity",
     [("e(@L, A), f", "e(@L, A, A), f")], [], "ND201"),
    ("shrink_declared_arity",
     [("input f/3.", "input f/9.")], [], "ND201"),
    ("conflict_column_types",
     [],
     ["T1: t1(@L, A) :- f(@L, A, 0), f(@L, A, 0).",
      "T2: t2(@L, A) :- f(@L, A, 'x'), f(@L, A, 'x')."],
     "ND202"),
    ("close_sum_cycle",
     [("min<B>", "sum<B>")],
     ["RC: f(@L, A, B) :- agg(@L, A, B)."],
     "ND301"),
    ("drop_input_declaration",
     [("input f/3.", "")], [], "ND504"),
    ("declare_unused_input",
     [], ["input zzz/1."], "ND505"),
]


class TestMutationsCaughtPrecisely:
    def test_base_really_is_clean(self):
        assert parse_program(CLEAN_BASE).analyze().ok

    @given(st.sampled_from(MUTATIONS))
    @settings(max_examples=len(MUTATIONS) * 3, deadline=None)
    def test_mutation_yields_its_code(self, mutation):
        label, edits, appends, code = mutation
        text = CLEAN_BASE
        for find, replace in edits:
            assert find in text, f"{label}: stale mutation"
            text = text.replace(find, replace)
        text = "\n".join([text] + list(appends))
        analysis = parse_program(text, check=False).analyze()
        hits = analysis.by_code(code)
        assert hits, (
            f"{label}: wanted {code}, got "
            f"{[d.code for d in analysis.diagnostics]}"
        )
        if any(d.severity == ERROR for d in hits):
            try:
                parse_program(text)
            except ProgramAnalysisError as exc:
                assert any(d.code == code for d in exc.diagnostics)
            else:
                raise AssertionError(f"{label}: gate admitted {code}")

    @given(st.sampled_from(MUTATIONS))
    @settings(max_examples=len(MUTATIONS), deadline=None)
    def test_analysis_is_deterministic(self, mutation):
        label, edits, appends, _code = mutation
        text = CLEAN_BASE
        for find, replace in edits:
            text = text.replace(find, replace)
        text = "\n".join([text] + list(appends))
        program = parse_program(text, check=False)
        first = [
            (d.code, d.severity, d.message) for d in
            program.analyze().diagnostics
        ]
        again = [
            (d.code, d.severity, d.message) for d in
            parse_program(text, check=False).analyze().diagnostics
        ]
        assert first == again


# ------------------------------------------------------- SIPS invariants


@st.composite
def random_rules(draw):
    pool = [Var(name) for name in ("L", "A", "B", "C", "D")]
    loc = pool[0]
    n_atoms = draw(st.integers(1, 3))
    body = []
    bound = [loc]
    for index in range(n_atoms):
        width = draw(st.integers(1, 3))
        terms = [draw(st.sampled_from(pool[1:])) for _ in range(width)]
        body.append(Atom(f"r{draw(st.integers(0, n_atoms))}", loc, *terms))
        bound.extend(term for term in terms)
    guards = []
    for _ in range(draw(st.integers(0, 2))):
        subset = draw(st.lists(st.sampled_from(bound), min_size=1,
                               max_size=2, unique_by=lambda v: v.name))
        guards.append(Guard(lambda b: True, vars=tuple(subset),
                            label="g"))
    head_terms = [draw(st.sampled_from(bound)) for _ in
                  range(draw(st.integers(1, 2)))]
    return Rule("R", Atom("h", loc, *head_terms), body, guards=guards)


class TestSipsInvariants:
    @given(random_rules())
    @settings(max_examples=120, deadline=None)
    def test_schedules_cover_everything_exactly_once(self, rule):
        for join in rule_sips(rule):
            probed = [join.trigger_pos] + [s.body_pos for s in join.steps]
            assert sorted(probed) == list(range(len(rule.body)))
            fired = list(join.pre_guards)
            for step in join.steps:
                fired.extend(step.guards)
            assert sorted(fired) == list(range(len(rule.guards)))
            assert sip_violations(rule, join) == []

    @given(random_rules())
    @settings(max_examples=120, deadline=None)
    def test_bound_sets_grow_monotonically(self, rule):
        for join in rule_sips(rule):
            for step in join.steps:
                assert step.bound_before <= step.bound_after
