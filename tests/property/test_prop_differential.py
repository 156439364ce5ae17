"""Production ≡ naive under mixed insert/retract schedules.

The production engine (:class:`DatalogApp`) takes every shortcut the
differential rebuild added on top of the compiled plans: incrementally
maintained aggregate-group membership, the min/max dirty-marking skip,
support-counted retraction with no snapshot-restore anywhere on the
deletion path. This suite pins all of it to the scan-based reference
engine and to the recompute-from-scratch oracle:

* **trace identity** — production and naive produce bit-identical
  Der/Und/Snd streams (supports included, in order), tuple sets,
  beliefs, derivation instances and snapshots, on randomized programs
  (joins, self-joins, chains over a derived relation, remote heads,
  guards, all four aggregate functions, maybe rules) and randomized
  mixed insert/retract schedules spread over two message-connected
  nodes — the safety net for the compiled plans' index lookups, greedy
  body reordering and early guard firing;
* **snapshot/restore** — a production app restored mid-schedule (which
  rebuilds its derived membership map from the store) continues exactly
  like one that never restored;
* **scratch oracle** — after any schedule, the production engine's
  model equals evaluating the schedule's *net base multiset* from
  scratch with no deletion ever issued
  (:func:`naive.scratch_model`): retraction converges to
  the same fixpoint as never having inserted;
* **retract-then-reinsert** — churn that nets to nothing leaves
  bit-identical snapshots, though the flap really ran (Und then Der);
* **recursive min/max** — the mincost and path-vector programs
  (recursion through a min aggregate whose retraction path re-derives
  from supports) stay identical under link churn, the acceptance case
  for differential routing replay.
"""

from hypothesis import given, settings, strategies as st

from repro.apps.mincost import link as mc_link, mincost_program
from repro.apps.pathvector import link as pv_link, pathvector_program
from repro.datalog import (
    Var, Atom, Guard, Rule, AggregateRule, MaybeRule, Program,
    DatalogApp, choice_tuple,
)
from repro.model import Der, Snd, Tup, Und

from naive import (
    NaiveDatalogApp, model_state, net_base_counts, scratch_model,
)

L, A, B, C, K = Var("L"), Var("A"), Var("B"), Var("C"), Var("K")

NODES = ("n", "m")

ENGINES = (DatalogApp, NaiveDatalogApp)


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
        join_guards.append(lambda b: b["A"] != b["B"])  # opaque: full binding
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
        # A second aggregate over the same relation: distinct rule_index,
        # same member transitions — the membership map must keep them apart.
        rules.append(AggregateRule(
            "AG2", Atom("agg2", L, B),
            [Atom("f", L, A, B)],
            agg_var=B, func="count",
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


# Retract-heavy: dels as likely as inses, so schedules routinely empty
# groups, flip min/max witnesses, and re-insert what they tore down.
events = st.lists(
    st.tuples(st.sampled_from(["ins", "del"]),
              st.sampled_from(NODES), base_tuples()),
    min_size=1, max_size=25,
)


def _observe(out):
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


def _drive(app_cls, program, ops, restore_at=None, nodes=NODES, t_of=float):
    """Run *ops* through a message-connected mesh; returns (trace, state,
    snapshots, counters)."""
    apps = {node: app_cls(node, program) for node in nodes}
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
            for name in nodes:
                snap = apps[name].snapshot()
                fresh = app_cls(name, program)
                fresh.restore(snap)
                apps[name] = fresh
        t = t_of(index)
        if kind == "ins":
            absorb(apps[node].handle_insert(tup, t))
        else:
            absorb(apps[node].handle_delete(tup, t))

    state = {name: model_state(app) for name, app in apps.items()}
    snapshots = {name: app.snapshot() for name, app in apps.items()}
    counters = {
        name: (app.delta_tuples_in, app.delta_tuples_out,
               app.retractions_applied, app.support_rederivations)
        for name, app in apps.items()
    }
    return trace, state, snapshots, counters


class TestThreeWayEquivalence:
    @given(programs(), events)
    @settings(max_examples=120, deadline=None)
    def test_traces_states_snapshots_identical(self, program, ops):
        production, naive = (_drive(engine, program, ops)
                             for engine in ENGINES)
        assert production[0] == naive[0]
        assert production[1] == naive[1]
        assert production[2] == naive[2]
        # Identical traces and stores mean identical delta counters; only
        # support_rederivations may differ (the naive engine marks every
        # group dirty, skipping the min/max short-circuit).
        assert ({n: c[:3] for n, c in production[3].items()}
                == {n: c[:3] for n, c in naive[3].items()})

    @given(programs(), events, st.integers(0, 24))
    @settings(max_examples=60, deadline=None)
    def test_restore_rebuilds_membership(self, program, ops, cut):
        cut = min(cut, len(ops) - 1)
        resumed = _drive(DatalogApp, program, ops, restore_at=cut)
        straight = _drive(NaiveDatalogApp, program, ops)
        assert resumed[0] == straight[0]
        assert resumed[1] == straight[1]
        assert resumed[2] == straight[2]


class TestScratchOracle:
    @given(programs(), events)
    @settings(max_examples=80, deadline=None)
    def test_retraction_converges_to_scratch_fixpoint(self, program, ops):
        incremental = _drive(DatalogApp, program, ops)
        counts = net_base_counts(
            (kind, node, tup) for kind, node, tup in ops
        )
        oracle = scratch_model(program, NODES, counts)
        assert incremental[1] == oracle


def _churn_program():
    return Program([
        Rule("J", Atom("h1", L, A, B),
             [Atom("e", L, A), Atom("f", L, A, B)]),
        AggregateRule("AG", Atom("agg", L, A, B),
                      [Atom("f", L, A, B)], agg_var=B, func="min"),
        AggregateRule("SUM", Atom("tot", L, B),
                      [Atom("f", L, A, B)], agg_var=B, func="sum"),
    ])


class TestRetractThenReinsert:
    def test_bit_identical_to_never_retracted(self):
        """A retract-then-reinsert schedule (all at one timestamp, so
        appear times cannot differ) leaves *bit-identical* snapshots to
        the schedule that never touched the tuple — with derived joins,
        a min witness and a float-free sum all riding on it."""
        program = _churn_program()
        e1 = Tup("e", "n", 1)
        f1 = Tup("f", "n", 1, 2)
        f2 = Tup("f", "n", 1, 3)
        plain = [("ins", "n", e1), ("ins", "n", f1), ("ins", "n", f2)]
        churned = plain + [
            ("del", "n", f1), ("ins", "n", f1),   # witness flap
            ("del", "n", e1), ("ins", "n", e1),   # join-side flap
        ]
        base = _drive(DatalogApp, program, plain, t_of=lambda _i: 0.0)
        churn = _drive(DatalogApp, program, churned, t_of=lambda _i: 0.0)
        assert base[2] == churn[2]   # snapshots, bit for bit
        assert base[1] == churn[1]

    def test_churn_batch_nets_to_empty_delta(self):
        program = _churn_program()
        app = DatalogApp("n", program)
        e1 = Tup("e", "n", 1)
        f1 = Tup("f", "n", 1, 2)
        app.handle_insert(e1, 0.0)
        app.handle_insert(f1, 0.0)
        churn_out = app.handle_delete(f1, 0.0) + app.handle_insert(f1, 0.0)
        # The flap really ran: Und, then Der, on the join head and the
        # aggregates — serviced by support counts, not a restore.
        kinds = [kind for kind, *_rest in map(_observe, churn_out)]
        assert "und" in kinds and "der" in kinds
        assert kinds.index("und") < kinds.index("der")
        assert app.retractions_applied > 0


def _routing_tuples(program_links, nodes):
    return st.lists(
        st.tuples(
            st.sampled_from(["ins", "del"]),
            st.sampled_from(nodes),
        ).flatmap(lambda kn: st.sampled_from(program_links[kn[1]]).map(
            lambda tup: (kn[0], kn[1], tup))),
        min_size=1, max_size=16,
    )


class TestRecursiveMinMaxApps:
    """The programs that recurse through a min aggregate, under link
    churn: the support re-derivation path, end to end."""

    MC_NODES = ("a", "b", "c")
    MC_LINKS = {
        "a": [mc_link("a", "b", 1), mc_link("a", "c", 5)],
        "b": [mc_link("b", "a", 1), mc_link("b", "c", 2)],
        "c": [mc_link("c", "a", 5), mc_link("c", "b", 2)],
    }
    PV_LINKS = {
        "a": [pv_link("a", "b"), pv_link("a", "c")],
        "b": [pv_link("b", "a"), pv_link("b", "c")],
        "c": [pv_link("c", "a"), pv_link("c", "b")],
    }

    @given(_routing_tuples(MC_LINKS, MC_NODES))
    @settings(max_examples=40, deadline=None)
    def test_mincost_three_way_identical(self, ops):
        program = mincost_program()
        production, naive = (
            _drive(engine, program, ops, nodes=self.MC_NODES)
            for engine in ENGINES
        )
        assert production[0] == naive[0]
        assert production[1] == naive[1]
        assert production[2] == naive[2]

    @given(_routing_tuples(MC_LINKS, MC_NODES), st.integers(0, 15))
    @settings(max_examples=25, deadline=None)
    def test_mincost_restore_mid_churn(self, ops, cut):
        cut = min(cut, len(ops) - 1)
        program = mincost_program()
        resumed = _drive(DatalogApp, program, ops,
                         nodes=self.MC_NODES, restore_at=cut)
        straight = _drive(DatalogApp, program, ops, nodes=self.MC_NODES)
        assert resumed[0] == straight[0]
        assert resumed[2] == straight[2]

    @given(_routing_tuples(PV_LINKS, MC_NODES))
    @settings(max_examples=40, deadline=None)
    def test_pathvector_three_way_identical(self, ops):
        program = pathvector_program()
        production, naive = (
            _drive(engine, program, ops, nodes=self.MC_NODES)
            for engine in ENGINES
        )
        assert production[0] == naive[0]
        assert production[1] == naive[1]
        assert production[2] == naive[2]

    def test_witness_deletion_counts_rederivation(self):
        """Deleting the best link forces the min groups to re-derive from
        their remaining supports — visible on the counter, with the route
        healing through the alternative path."""
        program = mincost_program()
        apps = {n: DatalogApp(n, program) for n in self.MC_NODES}
        queue = []

        def absorb(outputs):
            for out in outputs:
                if isinstance(out, Snd):
                    queue.append(out.msg)
            while queue:
                msg = queue.pop(0)
                for out in apps[msg.dst].handle_receive(msg, 0.0):
                    if isinstance(out, Snd):
                        queue.append(out.msg)

        for node, links in self.MC_LINKS.items():
            for tup in links:
                absorb(apps[node].handle_insert(tup, 0.0))
        best = Tup("bestCost", "a", "b", 1)     # the direct link wins
        assert apps["a"].has_tuple(best)
        before = apps["a"].support_rederivations
        absorb(apps["a"].handle_delete(mc_link("a", "b", 1), 0.0))
        assert apps["a"].support_rederivations > before
        healed = Tup("bestCost", "a", "b", 7)   # re-routes via c (5 + 2)
        assert apps["a"].has_tuple(healed)
        assert not apps["a"].has_tuple(best)
        assert apps["a"].retractions_applied > 0
