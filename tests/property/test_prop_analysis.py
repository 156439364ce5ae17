"""The analyzer's gate and the planner's schedules, randomized.

Three angles:

* **Clean programs run identically.** Random *textual* programs that the
  analyzer passes clean must execute through the full pipeline (parse →
  gate → plan) with the indexed engine observationally equal to the
  naive reference — the gate must never admit a program the engines
  disagree on.
* **Mutations are caught precisely.** Breaking a known-clean program in
  a specific way must produce the matching diagnostic code and gate
  refusal — not just "some" complaint.
* **The schedules the engine runs keep their contract.** For random
  rules, every compiled join plan probes each body atom exactly once,
  fires each guard exactly once, and fires none before its variables
  bind (``naive.schedule_violations``).
"""

from hypothesis import given, settings, strategies as st

from repro.datalog import (
    Atom, DatalogApp, Guard, ProgramAnalysisError, Rule, Var, analyze,
)
from repro.datalog.parser import _parse, parse_program
from repro.datalog.plan import compile_rule
from repro.model import Der, Snd, Tup, Und

from naive import NaiveDatalogApp, schedule_violations

NODES = ("n", "m")


# ----------------------------------------------- random textual programs


@st.composite
def program_texts(draw):
    """Analyzer-clean-by-construction program text with declarations."""
    lines = ["input e/2.", "input f/3."]
    guard = ""
    if draw(st.booleans()):
        guard = f", B <= {draw(st.integers(0, 3))}"
    if draw(st.booleans()):
        guard += ", A != B"
    lines.append(f"J: h(@L, A, B) :- e(@L, A), f(@L, A, B){guard}.")
    if draw(st.booleans()):
        lines.append("SJ: h2(@L, A, C) :- f(@L, A, B), f(@L, B, C).")
    if draw(st.booleans()):
        lines.append("CH: h3(@L, B) :- h(@L, A, B), e(@L, A).")
    if draw(st.booleans()):
        lines.append("P: push(@'m', A, B) :- f(@L, A, B).")
    func = draw(st.sampled_from(["min", "max", "sum", "count"]))
    lines.append(f"AG: agg(@L, A, {func}<B>) :- f(@L, A, B).")
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
        program = parse_program(text)        # the gate runs
        indexed = _drive(DatalogApp, program, ops)
        naive = _drive(NaiveDatalogApp, program, ops)
        assert indexed[0] == naive[0]
        assert indexed[1] == naive[1]


# ------------------------------------------------------------- mutations


CLEAN_BASE = "\n".join([
    "input e/2.",
    "input f/3.",
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
]


def _diagnostics(text):
    rules, inputs = _parse(text)
    return analyze(rules, inputs or None)


class TestMutationsCaughtPrecisely:
    def test_base_really_is_clean(self):
        assert _diagnostics(CLEAN_BASE) == ()
        parse_program(CLEAN_BASE)

    @given(st.sampled_from(MUTATIONS))
    @settings(max_examples=len(MUTATIONS) * 3, deadline=None)
    def test_mutation_yields_its_code(self, mutation):
        label, edits, appends, code = mutation
        text = CLEAN_BASE
        for find, replace in edits:
            assert find in text, f"{label}: stale mutation"
            text = text.replace(find, replace)
        text = "\n".join([text] + list(appends))
        codes = [d.code for d in _diagnostics(text)]
        assert code in codes, f"{label}: wanted {code}, got {codes}"
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
        first = [(d.code, d.message) for d in _diagnostics(text)]
        again = [(d.code, d.message) for d in _diagnostics(text)]
        assert first and first == again


# ------------------------------------------------- schedule invariants


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
        for join in compile_rule(rule).joins:
            assert schedule_violations(rule, join) == []
