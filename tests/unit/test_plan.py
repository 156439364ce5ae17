"""The rule compiler and the store's secondary indexes."""

import gc

import pytest

from repro.apps.chord import chord_program
from repro.apps.pathvector import pathvector_program
from repro.datalog import (
    Var, Atom, Guard, Rule, AggregateRule, Program, DatalogApp,
)
from repro.datalog.plan import (
    AggPlan, RulePlan, compile_rule, guard_schedule_counts,
)
from repro.datalog.store import TupleStore
from repro.model import Tup

from naive import schedule_violations
from scenarios import shipped_programs

X, Y, Z, K, D = Var("X"), Var("Y"), Var("Z"), Var("K"), Var("D")


class TestJoinCompilation:
    def test_one_plan_per_trigger_position(self):
        rule = Rule("R", Atom("h", X, Z),
                    [Atom("e", X, Y), Atom("f", X, Y, Z)])
        plan = compile_rule(rule)
        assert isinstance(plan, RulePlan)
        assert len(plan.joins) == 2
        assert [j.trigger_pos for j in plan.joins] == [0, 1]

    def test_index_key_covers_bound_variables(self):
        rule = Rule("R", Atom("h", X, Z),
                    [Atom("e", X, Y), Atom("f", X, Y, Z)])
        plan = compile_rule(rule)
        # Triggered on e(X,Y): the f-step knows loc X (pos 0) and Y (pos 1).
        step = plan.joins[0].steps[0]
        assert step.atom.relation == "f"
        assert step.index_positions == (0, 1)
        key = step.key({"X": "n", "Y": "v", "Z": "ignored"})
        assert key == ("n", "v")

    def test_constants_participate_in_index_keys(self):
        rule = Rule("R", Atom("h", X),
                    [Atom("e", X, Y), Atom("f", X, "fixed", Y)])
        plan = compile_rule(rule)
        step = plan.joins[0].steps[0]
        assert step.index_positions == (0, 1, 2)
        assert step.key({"X": "n", "Y": 7}) == ("n", "fixed", 7)

    def test_most_bound_atom_joins_first(self):
        # Triggered on a(X): c shares X and Y is still free, so the
        # 2-bound-position atom c must be probed before b.
        rule = Rule(
            "R", Atom("h", X),
            [Atom("a", X, K), Atom("b", X, Y), Atom("c", X, K, Y)],
        )
        plan = compile_rule(rule)
        order = [step.atom.relation for step in plan.joins[0].steps]
        assert order == ["c", "b"]

    def test_guard_fires_at_earliest_step(self):
        guard_xy = Guard(lambda b: b["X"] != b["Y"], vars=(X, Y),
                         label="X!=Y")
        guard_zk = Guard(lambda b: b["Z"] < b["K"], vars=(Z, K),
                         label="Z<K")
        rule = Rule(
            "R", Atom("h", X),
            [Atom("e", X, Y), Atom("f", X, Z), Atom("g", X, K)],
            guards=[guard_xy, guard_zk],
        )
        plan = compile_rule(rule)
        join = plan.joins[0]       # triggered on e: X,Y bound immediately
        assert guard_xy in join.pre_guards
        assert guard_zk not in join.pre_guards
        # Z binds at the f-step, K at the g-step: guard_zk fires at g.
        by_relation = {s.atom.relation: s.guards for s in join.steps}
        assert guard_zk in by_relation["g"]
        assert guard_zk not in by_relation["f"]

    def test_opaque_guard_waits_for_full_binding(self):
        opaque = lambda b: b["Y"] != b["Z"]  # noqa: E731
        rule = Rule(
            "R", Atom("h", X),
            [Atom("e", X, Y), Atom("f", X, Z)],
            guards=[opaque],
        )
        plan = compile_rule(rule)
        join = plan.joins[0]
        assert opaque not in join.pre_guards
        assert opaque in join.steps[-1].guards

    def test_index_requirements_aggregated(self):
        program = Program([
            Rule("R", Atom("h", X, Z),
                 [Atom("e", X, Y), Atom("f", X, Y, Z)]),
        ])
        requirements = program.index_requirements()
        assert ("f", (0, 1)) in requirements
        assert ("e", (0, 1)) in requirements  # f-triggered probe of e

    @pytest.mark.parametrize("build, pre, mid, late", [
        (lambda: chord_program(ring_bits=12), 4, 5, 16),
        (pathvector_program, 1, 0, 5),
    ], ids=["chord", "pathvector"])
    def test_guard_schedule_of_the_shipped_programs_is_pinned(
            self, build, pre, mid, late):
        """Guards drifting from early (pre/mid: pruning partial matches)
        to late (full bindings) is lost pruning that a small run's wall
        time hides — so the static placement counts are pinned exactly."""
        assert guard_schedule_counts(build()) == {
            "pre": pre, "mid": mid, "late": late}

    @pytest.mark.parametrize("name", sorted(shipped_programs()))
    def test_the_shipped_plans_keep_the_schedule_contract(self, name):
        """Each body atom probed once, each guard fired once, none before
        its variables bind — checked on the plans the engine runs."""
        program = shipped_programs()[name]
        for rule, plan in zip(program.rules, program.plans):
            for join in getattr(plan, "joins", ()):
                assert schedule_violations(rule, join) == [], (
                    rule.name, join.trigger_pos)


class TestAggCompilation:
    def test_head_agg_position(self):
        rule = AggregateRule(
            "A", Atom("best", X, K), [Atom("cost", X, Z, K)],
            agg_var=K, func="min",
        )
        plan = compile_rule(rule)
        assert plan.head_agg_pos == 1
        assert plan.head_agg_value(Tup("best", "n", 42)) == 42

    def test_groupless_aggregate_has_no_index(self):
        rule = AggregateRule(
            "A", Atom("total", "hub", K), [Atom("c", "hub", Z, K)],
            agg_var=K, func="sum",
        )
        assert isinstance(compile_rule(rule), AggPlan)
        # Group members come from the engine's membership map: aggregate
        # rules, grouped or not, ask the store for no secondary index.
        grouped = AggregateRule(
            "B", Atom("best", X, D, K), [Atom("cost", X, D, Z, K)],
            agg_var=K, func="min",
        )
        assert Program([rule, grouped]).index_requirements() == set()


class TestStoreIndexes:
    def test_register_backfills_existing_tuples(self):
        store = TupleStore("n")
        store.add_base(Tup("e", "n", "a", 1), 0.0)
        store.add_base(Tup("e", "n", "b", 2), 0.0)
        store.register_index("e", (1,))
        assert store.index_lookup("e", (1,), ("a",)) == {
            Tup("e", "n", "a", 1)
        }

    def test_incremental_maintenance(self):
        store = TupleStore("n")
        store.register_index("e", (1,))
        t = Tup("e", "n", "a", 1)
        store.add_base(t, 0.0)
        assert t in store.index_lookup("e", (1,), ("a",))
        store.remove_base(t)
        assert not store.index_lookup("e", (1,), ("a",))

    def test_remote_tuples_not_indexed(self):
        store = TupleStore("n")
        store.register_index("e", (1,))
        store.add_base(Tup("e", "m", "a", 1), 0.0)  # located elsewhere
        assert not store.index_lookup("e", (1,), ("a",))

    def test_short_arity_tuples_skipped(self):
        store = TupleStore("n")
        store.register_index("e", (2,))
        store.add_base(Tup("e", "n"), 0.0)   # no position 2: unindexable
        store.add_base(Tup("e", "n", "x", "y"), 0.0)
        assert store.index_lookup("e", (2,), ("y",)) == {
            Tup("e", "n", "x", "y")
        }

    def test_an_unregistered_lookup_is_refused(self):
        """A join step trusts its index for every key position, so a
        lookup never falls back to an unchecked scan."""
        store = TupleStore("n")
        store.add_base(Tup("e", "n", "a"), 0.0)
        with pytest.raises(KeyError):
            store.index_lookup("e", (9, 9), ("whatever",))

    def test_restore_rebuilds_indexes(self):
        store = TupleStore("n")
        store.register_index("e", (1,))
        store.add_base(Tup("e", "n", "a", 1), 0.0)
        snap = store.snapshot()
        store.add_base(Tup("e", "n", "b", 2), 0.0)
        store.restore(snap)
        assert store.index_lookup("e", (1,), ("a",)) == {
            Tup("e", "n", "a", 1)
        }
        assert not store.index_lookup("e", (1,), ("b",))


class TestEngineUsesIndexes:
    def test_app_registers_program_requirements(self):
        program = Program([
            Rule("R", Atom("h", X, Z),
                 [Atom("e", X, Y), Atom("f", X, Y, Z)]),
        ])
        app = DatalogApp("n", program)
        # The f-index exists and is maintained through the engine API.
        app.handle_insert(Tup("f", "n", "v", 9), 0.0)
        assert app.store.index_lookup("f", (0, 1), ("n", "v")) == {
            Tup("f", "n", "v", 9)
        }

    def test_join_through_index_matches_scan(self):
        program = Program([
            Rule("R", Atom("h", X, Z),
                 [Atom("e", X, Y), Atom("f", X, Y, Z)]),
        ])
        app = DatalogApp("n", program)
        for v in range(5):
            app.handle_insert(Tup("f", "n", f"k{v}", v), 0.0)
        app.handle_insert(Tup("e", "n", "k3"), 1.0)
        assert app.has_tuple(Tup("h", "n", 3))
        assert not app.has_tuple(Tup("h", "n", 2))


class TestJoinExecution:
    def test_joins_leave_nothing_for_the_cyclic_collector(self):
        """A join must be freed by reference counting alone. A nested
        function that recurses through its own closure cell is a
        reference cycle per ``execute`` call (function -> cell ->
        function, holding the results and the store), which piles up
        until the collector runs."""
        program = Program([
            Rule("R", Atom("h", X, Y, Z),
                 [Atom("e", X, Y), Atom("f", X, Y, Z), Atom("g", X, Z)],
                 guards=[Guard(lambda b: b["Z"] >= 0, vars=(Z,))]),
        ])
        app = DatalogApp("n", program)
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for v in range(100):
                app.handle_insert(Tup("g", "n", v), 0.0)
                app.handle_insert(Tup("f", "n", f"k{v}", v), 0.0)
                app.handle_insert(Tup("e", "n", f"k{v}"), 1.0)
                app.handle_delete(Tup("f", "n", f"k{v}", v), 2.0)
            assert app.join_candidates >= 200
            assert len(app.tuples_of("h")) == 0
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()

    def test_single_match_is_returned_unsorted_and_many_sorted(self):
        rule = Rule("R", Atom("h", X, Z),
                    [Atom("e", X, Y), Atom("f", X, Y, Z)])
        app = DatalogApp("n", Program([rule]))
        for z in (3, 1, 2):
            app.handle_insert(Tup("f", "n", "k", z), 0.0)
        trigger = Tup("e", "n", "k")
        join = app.program.plans[0].joins[0]
        matches = join.execute(app.store, {"X": "n", "Y": "k"}, trigger, app)
        assert [support[1].args[-1] for _b, support in matches] == [1, 2, 3]
        lone = join.execute(app.store, {"X": "n", "Y": "none"}, trigger, app)
        assert lone == []
