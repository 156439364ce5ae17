"""Indexed plan execution ≡ naive scan evaluation.

The compiled-plan engine (:class:`DatalogApp`) must be observationally
identical to the scan-based reference (:class:`NaiveDatalogApp`): same
tuple sets, same Der/Und sequences (including provenance supports and
order), same messages — on *randomized programs* (joins, self-joins,
remote heads, guarded rules, every aggregate function, maybe rules) and
*randomized event schedules* spread over two message-connected nodes.
This is the safety net for every shortcut the optimized engine takes:
index lookups, greedy body reordering, early guard firing, the aggregate
dirty-marking skips.
"""

from hypothesis import given, settings, strategies as st

from repro.datalog import (
    Var, Atom, Guard, Rule, AggregateRule, MaybeRule, Program,
    DatalogApp, choice_tuple,
)
from repro.model import Der, Snd, Tup, Und

from naive import NaiveDatalogApp

L, A, B, C, K = Var("L"), Var("A"), Var("B"), Var("C"), Var("K")

NODES = ("n", "m")


@st.composite
def programs(draw):
    rules = []
    threshold = draw(st.integers(0, 3))
    join_guards = []
    if draw(st.booleans()):
        join_guards.append(Guard(
            lambda b, t=threshold: b["B"] <= t, vars=(B,), label="B<=t"
        ))
    if draw(st.booleans()):
        # Opaque callable: must be scheduled after full binding.
        join_guards.append(lambda b: b["A"] != b["B"])
    rules.append(Rule(
        "J", Atom("h1", L, A, B),
        [Atom("e", L, A), Atom("f", L, A, B)],
        guards=join_guards,
    ))
    if draw(st.booleans()):
        rules.append(Rule(
            "SJ", Atom("h2", L, A, C),
            [Atom("f", L, A, B), Atom("f", L, B, C)],
        ))
    if draw(st.booleans()):
        rules.append(Rule(
            "P", Atom("push", "m", A, B),
            [Atom("f", L, A, B)],
        ))
    if draw(st.booleans()):
        rules.append(Rule(
            "CH", Atom("h3", L, B),
            [Atom("h1", L, A, B), Atom("e", L, A)],
        ))
    func = draw(st.sampled_from(["min", "max", "sum", "count"]))
    agg_guards = []
    if draw(st.booleans()):
        agg_guards.append(Guard(
            lambda b: b["B"] >= 1, vars=(B,), label="B>=1"
        ))
    key = None
    if func in ("min", "max") and draw(st.booleans()):
        key = lambda v: (v % 2, v)  # noqa: E731 — deterministic tie shape
    rules.append(AggregateRule(
        "AG", Atom("agg", L, A, B),
        [Atom("f", L, A, B)],
        agg_var=B, func=func, guards=agg_guards, key=key,
    ))
    if draw(st.booleans()):
        rules.append(MaybeRule(
            "MB", Atom("sel", L, A), [Atom("e", L, A)],
        ))
    return Program(rules)


def base_tuples():
    locs = st.sampled_from(NODES)
    small = st.integers(0, 2)
    return st.one_of(
        st.builds(lambda l, a: Tup("e", l, a), locs, small),
        st.builds(lambda l, a, b: Tup("f", l, a, b),
                  locs, small, st.integers(0, 3)),
        st.builds(lambda l, a: choice_tuple("MB", l, a), locs, small),
    )


events = st.lists(
    st.tuples(st.sampled_from(["ins", "del"]),
              st.sampled_from(NODES), base_tuples()),
    min_size=1, max_size=25,
)


def _observe(out):
    """Project an output onto its full observable content (repr alone
    omits Der/Und supports)."""
    if isinstance(out, Der):
        return ("der", repr(out.tup), out.rule,
                tuple(repr(s) for s in out.support), repr(out.replaces))
    if isinstance(out, Und):
        return ("und", repr(out.tup), out.rule,
                tuple(repr(s) for s in out.support))
    if isinstance(out, Snd):
        m = out.msg
        return ("snd", m.polarity, repr(m.tup), m.src, m.dst, m.seq)
    return ("other", repr(out))


def _drive(app_cls, program, ops, restore_at=None):
    """Run *ops* through a two-node mesh; returns (trace, final_state).

    When *restore_at* is an index, the apps are snapshot+restored fresh
    right before that event — the result must be unaffected.
    """
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
        if restore_at == index:
            for name in NODES:
                snap = apps[name].snapshot()
                fresh = app_cls(name, program)
                fresh.restore(snap)
                apps[name] = fresh
        t = float(index)
        if kind == "ins":
            absorb(apps[node].handle_insert(tup, t))
        else:
            absorb(apps[node].handle_delete(tup, t))

    state = {}
    for name in NODES:
        app = apps[name]
        state[name] = {
            "local": [(repr(t), at) for t, at in app.extant_tuples()],
            "beliefs": [(repr(t), peer, at)
                        for t, peer, at in app.believed_tuples()],
            "derivations": sorted(
                (repr(t), sorted(repr(i.key()) for i in
                                 app.store.derivation_instances(t)))
                for t, _at in app.extant_tuples()
            ),
        }
    return trace, state


class TestIndexedMatchesNaive:
    @given(programs(), events)
    @settings(max_examples=120, deadline=None)
    def test_traces_and_state_identical(self, program, ops):
        indexed = _drive(DatalogApp, program, ops)
        naive = _drive(NaiveDatalogApp, program, ops)
        assert indexed[0] == naive[0]   # Der/Und/Snd sequence + supports
        assert indexed[1] == naive[1]   # tuple sets, beliefs, derivations

    @given(programs(), events, st.integers(0, 24))
    @settings(max_examples=60, deadline=None)
    def test_snapshot_restore_preserves_equivalence(self, program, ops, cut):
        cut = min(cut, len(ops) - 1)
        resumed = _drive(DatalogApp, program, ops, restore_at=cut)
        naive = _drive(NaiveDatalogApp, program, ops)
        assert resumed[0] == naive[0]
        assert resumed[1] == naive[1]
