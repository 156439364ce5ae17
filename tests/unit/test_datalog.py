"""Datalog substrate: unification, store refcounts, incremental engine."""

import pytest

from repro.datalog import (
    Var, Expr, Atom, Guard, Rule, AggregateRule, MaybeRule, Program,
    DatalogApp, choice_tuple,
)
from repro.datalog.store import TupleStore, DerivationInstance
from repro.model import Tup, Der, Und, Snd, Msg, PLUS, MINUS
from repro.util.errors import ConfigurationError

X, Y, Z, K = Var("X"), Var("Y"), Var("Z"), Var("K")


class TestAtomMatching:
    def test_match_binds_variables(self):
        atom = Atom("link", X, Y, K)
        got = atom.match(Tup("link", "a", "b", 3), {})
        assert got == {"X": "a", "Y": "b", "K": 3}

    def test_match_respects_existing_bindings(self):
        atom = Atom("link", X, Y, K)
        assert atom.match(Tup("link", "a", "b", 3), {"Y": "c"}) is None
        assert atom.match(Tup("link", "a", "b", 3), {"Y": "b"}) is not None

    def test_repeated_variable_must_agree(self):
        atom = Atom("self", X, X)
        assert atom.match(Tup("self", "a", "b"), {}) is None
        assert atom.match(Tup("self", "a", "a"), {}) == {"X": "a"}

    def test_constant_terms(self):
        atom = Atom("link", X, "b", K)
        assert atom.match(Tup("link", "a", "b", 1), {}) is not None
        assert atom.match(Tup("link", "a", "c", 1), {}) is None

    def test_wrong_relation_or_arity(self):
        atom = Atom("link", X, Y)
        assert atom.match(Tup("route", "a", "b"), {}) is None
        assert atom.match(Tup("link", "a", "b", 3), {}) is None

    def test_instantiate_with_expr(self):
        head = Atom("sum", X, Expr(lambda b: b["K"] + 1, "K+1"))
        tup = head.instantiate({"X": "a", "K": 41})
        assert tup == Tup("sum", "a", 42)

    def test_instantiate_unbound_raises(self):
        with pytest.raises(ConfigurationError):
            Atom("r", X, Y).instantiate({"X": "a"})


class TestRuleValidation:
    def test_body_must_be_colocated(self):
        with pytest.raises(ConfigurationError):
            Rule("bad", Atom("h", X), [Atom("a", X), Atom("b", Y)])

    def test_empty_body_rejected(self):
        with pytest.raises(ConfigurationError):
            Rule("bad", Atom("h", X), [])

    def test_aggregate_var_must_be_in_head(self):
        with pytest.raises(ConfigurationError):
            AggregateRule("bad", Atom("h", X), [Atom("b", X, K)],
                          agg_var=K, func="min")

    def test_aggregate_unknown_func(self):
        with pytest.raises(ConfigurationError):
            AggregateRule("bad", Atom("h", X, K), [Atom("b", X, K)],
                          agg_var=K, func="median")

    def test_maybe_rule_appends_choice_token(self):
        rule = MaybeRule("M", Atom("h", X, Y), [Atom("b", X, Y)])
        assert rule.body[-1].relation == "__choice__M"


class TestTupleStore:
    def test_base_refcounting(self):
        store = TupleStore("n")
        t = Tup("r", "n", 1)
        assert store.add_base(t, 0.0) is True
        assert store.add_base(t, 1.0) is False   # refcount bump, no appear
        assert store.remove_base(t) is False     # still one ref
        assert store.remove_base(t) is True      # now gone
        assert not store.present(t)

    def test_remove_never_inserted(self):
        store = TupleStore("n")
        assert store.remove_base(Tup("r", "n", 1)) is False

    def test_belief_per_peer_counting(self):
        store = TupleStore("n")
        t = Tup("r", "n", 1)
        assert store.add_belief(t, "p1", 0.0) is True
        assert store.remove_belief(t, "p2") is False  # wrong peer
        assert store.remove_belief(t, "p1") is True

    def test_derivation_instances_dedupe(self):
        store = TupleStore("n")
        head = Tup("h", "n", 1)
        support = (Tup("b", "n", 1),)
        assert store.add_derivation(head, "R", support, 0.0) == (True, True)
        assert store.add_derivation(head, "R", support, 1.0) == (False, False)
        assert store.derivation_instances(head) == [
            DerivationInstance("R", support)]

    def test_remove_by_support_cascade_info(self):
        store = TupleStore("n")
        b = Tup("b", "n", 1)
        head = Tup("h", "n", 1)
        store.add_derivation(head, "R", (b,), 0.0)
        removed = store.remove_derivations_supported_by(b)
        assert removed == [(head, "R", (b,), True)]
        assert not store.present(head)

    def test_visible_excludes_remote_loc(self):
        store = TupleStore("n")
        store.add_base(Tup("r", "m", 1), 0.0)   # located elsewhere
        store.add_base(Tup("r", "n", 2), 0.0)
        assert store.visible("r") == [Tup("r", "n", 2)]

    def test_snapshot_restore_roundtrip(self):
        store = TupleStore("n")
        b = Tup("b", "n", 1)
        store.add_base(b, 0.5)
        store.add_belief(Tup("x", "n", 2), "p", 0.7)
        head = Tup("h", "n", 3)
        store.add_derivation(head, "R", (b,), 0.9)
        snap = store.snapshot()
        fresh = TupleStore("n")
        fresh.restore(snap)
        assert fresh.present(b) and fresh.present(head)
        assert fresh.believed(Tup("x", "n", 2))
        assert fresh.appeared_at(b) == 0.5

    def test_a_second_derivation_holds_the_head_until_the_last_goes(self):
        store = TupleStore("n")
        head = Tup("h", "n", 1)
        b1, b2 = Tup("b", "n", 1), Tup("b", "n", 2)
        store.add_base(b1, 0.0)
        store.add_base(b2, 0.0)
        assert store.add_derivation(head, "R", (b1,), 1.0) == (True, True)
        assert store.add_derivation(head, "R", (b2,), 2.0) == (True, False)
        assert store.add_derivation(head, "R", (b2,), 3.0) == (False, False)
        assert store.derivation_instances(head) == [
            DerivationInstance("R", (b1,)), DerivationInstance("R", (b2,))]
        assert store.snapshot()["derivations"] == {
            head: [("R", (b1,)), ("R", (b2,))]}
        assert store.remove_base(b1)
        assert store.remove_derivations_supported_by(b1) == [
            (head, "R", (b1,), False)]
        assert store.present(head) and store.appeared_at(head) == 1.0
        assert store.remove_derivation(head, "R", (b1,)) is False
        assert store.remove_derivation(head, "R", (b2,)) is True
        assert not store.present(head)
        # The removed derivation no longer hangs off its support.
        assert store.remove_base(b2)
        assert store.remove_derivations_supported_by(b2) == []
        assert store._records == {}

    def test_a_support_retracts_its_derivations_in_head_order(self):
        store = TupleStore("n")
        b = Tup("b", "n", 0)
        store.add_base(b, 0.0)
        heads = [Tup("h", "n", k) for k in (3, 1, 2)]
        for head in heads:
            store.add_derivation(head, "R", (b,), 1.0)
        store.remove_base(b)
        removed = store.remove_derivations_supported_by(b)
        assert removed == [(head, "R", (b,), True) for head in sorted(
            heads, key=lambda t: t.canonical_key())]
        assert store._records == {}

    def test_a_derivation_supported_by_its_own_head_is_released(self):
        store = TupleStore("n")
        t = Tup("t", "n", 1)
        store.add_derivation(t, "R", (t,), 0.0)
        assert store.remove_derivations_supported_by(t) == [
            (t, "R", (t,), True)]
        assert not store.present(t) and store._records == {}

    def test_the_first_believer_outlives_other_supports(self):
        """``believe_peer`` is the checkpoint form's: set when a belief
        makes the tuple appear, cleared only by a belief's retraction."""
        store = TupleStore("n")
        t = Tup("x", "n", 1)
        store.add_belief(t, "p", 0.5)
        store.add_base(t, 0.6)
        assert store.remove_belief(t, "p") is False
        assert store.remove_base(t) is True
        assert store.snapshot()["believe_peer"] == {t: "p"}
        assert store.add_belief(t, "q", 0.9) is True
        assert store.all_beliefs() == [(t, "q", 0.9)]
        assert store.remove_belief(t, "q") is True
        assert store._records == {}


def _drive(apps, outputs, t):
    for out in outputs:
        if isinstance(out, Snd):
            m = out.msg
            _drive(apps, apps[m.dst].handle_receive(m, t), t)


class TestEngine:
    def _single(self, rules):
        return DatalogApp("n", Program(rules))

    def test_simple_derivation_outputs(self):
        app = self._single([
            Rule("R", Atom("h", X, Y), [Atom("b", X, Y)]),
        ])
        outs = app.handle_insert(Tup("b", "n", 1), 0.0)
        ders = [o for o in outs if isinstance(o, Der)]
        assert ders and ders[0].tup == Tup("h", "n", 1)
        assert ders[0].support == (Tup("b", "n", 1),)

    def test_underivation_on_delete(self):
        app = self._single([Rule("R", Atom("h", X, Y), [Atom("b", X, Y)])])
        app.handle_insert(Tup("b", "n", 1), 0.0)
        outs = app.handle_delete(Tup("b", "n", 1), 1.0)
        unds = [o for o in outs if isinstance(o, Und)]
        assert unds and unds[0].tup == Tup("h", "n", 1)

    def test_join_two_atoms(self):
        app = self._single([
            Rule("R", Atom("h", X, Z),
                 [Atom("e", X, Y), Atom("f", X, Y, Z)]),
        ])
        app.handle_insert(Tup("e", "n", "k"), 0.0)
        outs = app.handle_insert(Tup("f", "n", "k", "v"), 1.0)
        assert any(isinstance(o, Der) and o.tup == Tup("h", "n", "v")
                   for o in outs)

    def test_guard_blocks_derivation(self):
        app = self._single([
            Rule("R", Atom("h", X, K), [Atom("b", X, K)],
                 guards=[lambda b: b["K"] > 10]),
        ])
        assert not app.handle_insert(Tup("b", "n", 5), 0.0)
        outs = app.handle_insert(Tup("b", "n", 15), 1.0)
        assert any(isinstance(o, Der) for o in outs)

    def test_refcount_no_duplicate_der(self):
        # Two different bodies deriving the same head: only the first
        # surfaces as Der, and the head survives losing one of them.
        app = self._single([
            Rule("R1", Atom("h", X), [Atom("a", X)]),
            Rule("R2", Atom("h", X), [Atom("b", X)]),
        ])
        outs1 = app.handle_insert(Tup("a", "n"), 0.0)
        assert sum(isinstance(o, Der) for o in outs1) == 1
        outs2 = app.handle_insert(Tup("b", "n"), 1.0)
        assert sum(isinstance(o, Der) for o in outs2) == 0
        outs3 = app.handle_delete(Tup("a", "n"), 2.0)
        assert sum(isinstance(o, Und) for o in outs3) == 0
        assert app.has_tuple(Tup("h", "n"))
        outs4 = app.handle_delete(Tup("b", "n"), 3.0)
        assert sum(isinstance(o, Und) for o in outs4) == 1

    def test_remote_head_sends_messages(self):
        app = self._single([
            Rule("R", Atom("h", Y, X), [Atom("b", X, Y)]),
        ])
        outs = app.handle_insert(Tup("b", "n", "m"), 0.0)
        snds = [o for o in outs if isinstance(o, Snd)]
        assert len(snds) == 1
        assert snds[0].msg.polarity == PLUS
        assert snds[0].msg.dst == "m"
        outs2 = app.handle_delete(Tup("b", "n", "m"), 1.0)
        snds2 = [o for o in outs2 if isinstance(o, Snd)]
        assert snds2 and snds2[0].msg.polarity == MINUS

    def test_belief_triggers_rules(self):
        app = self._single([
            Rule("R", Atom("h", X, K), [Atom("remote", X, K)]),
        ])
        msg = Msg(PLUS, Tup("remote", "n", 7), "peer", "n", 0, 0.0)
        outs = app.handle_receive(msg, 0.5)
        assert any(isinstance(o, Der) and o.tup == Tup("h", "n", 7)
                   for o in outs)
        gone = Msg(MINUS, Tup("remote", "n", 7), "peer", "n", 1, 1.0)
        outs2 = app.handle_receive(gone, 1.5)
        assert any(isinstance(o, Und) for o in outs2)

    def test_transitive_cascade(self):
        app = self._single([
            Rule("R1", Atom("m", X, K), [Atom("a", X, K)]),
            Rule("R2", Atom("h", X, K), [Atom("m", X, K)]),
        ])
        outs = app.handle_insert(Tup("a", "n", 1), 0.0)
        der_tuples = [o.tup.relation for o in outs if isinstance(o, Der)]
        assert der_tuples == ["m", "h"]

    def test_deterministic_output_order(self):
        def fresh():
            return self._single([
                Rule("R", Atom("h", X, Y, Z),
                     [Atom("a", X, Y), Atom("b", X, Z)]),
            ])
        def run(app):
            app.handle_insert(Tup("b", "n", 1), 0.0)
            app.handle_insert(Tup("b", "n", 2), 0.0)
            return [repr(o) for o in app.handle_insert(Tup("a", "n", 9), 1.0)]
        assert run(fresh()) == run(fresh())


class TestAggregates:
    def _minapp(self):
        return DatalogApp("n", Program([
            AggregateRule("A", Atom("best", X, K), [Atom("c", X, Z, K)],
                          agg_var=K, func="min"),
        ]))

    def test_min_tracks_insertions(self):
        app = self._minapp()
        app.handle_insert(Tup("c", "n", "p", 5), 0.0)
        assert app.has_tuple(Tup("best", "n", 5))
        outs = app.handle_insert(Tup("c", "n", "q", 3), 1.0)
        assert any(isinstance(o, Und) and o.tup == Tup("best", "n", 5)
                   for o in outs)
        assert any(isinstance(o, Der) and o.tup == Tup("best", "n", 3)
                   for o in outs)

    def test_min_tracks_deletion_of_witness(self):
        app = self._minapp()
        app.handle_insert(Tup("c", "n", "p", 5), 0.0)
        app.handle_insert(Tup("c", "n", "q", 3), 1.0)
        outs = app.handle_delete(Tup("c", "n", "q", 3), 2.0)
        assert app.has_tuple(Tup("best", "n", 5))
        assert any(isinstance(o, Der) and o.tup == Tup("best", "n", 5)
                   for o in outs)

    def test_empty_group_removes_head(self):
        app = self._minapp()
        app.handle_insert(Tup("c", "n", "p", 5), 0.0)
        app.handle_delete(Tup("c", "n", "p", 5), 1.0)
        assert not app.has_tuple(Tup("best", "n", 5))

    def test_same_value_witness_change_is_silent(self):
        app = self._minapp()
        app.handle_insert(Tup("c", "n", "p", 5), 0.0)
        outs = app.handle_insert(Tup("c", "n", "q", 5), 1.0)
        assert not any(isinstance(o, (Der, Und)) for o in outs)
        outs2 = app.handle_delete(Tup("c", "n", "p", 5), 2.0)
        # best(5) still holds via the q witness; no der/und churn.
        assert not any(isinstance(o, (Der, Und)) for o in outs2)
        assert app.has_tuple(Tup("best", "n", 5))

    def test_sum_aggregate(self):
        app = DatalogApp("n", Program([
            AggregateRule("S", Atom("total", X, K), [Atom("c", X, Z, K)],
                          agg_var=K, func="sum"),
        ]))
        app.handle_insert(Tup("c", "n", "p", 5), 0.0)
        app.handle_insert(Tup("c", "n", "q", 3), 1.0)
        assert app.has_tuple(Tup("total", "n", 8))

    def test_count_aggregate(self):
        app = DatalogApp("n", Program([
            AggregateRule("C", Atom("cnt", X, K), [Atom("c", X, Z, K)],
                          agg_var=K, func="count"),
        ]))
        app.handle_insert(Tup("c", "n", "p", 5), 0.0)
        app.handle_insert(Tup("c", "n", "q", 3), 1.0)
        assert app.has_tuple(Tup("cnt", "n", 2))

    def _guarded(self):
        return DatalogApp("n", Program([
            AggregateRule("G", Atom("best", X, K), [Atom("c", X, Z, K)],
                          agg_var=K, func="min",
                          guards=[Guard(lambda b: b["K"] < 100,
                                        vars=(K,), label="K<100")]),
        ]))

    def test_guard_excludes_tuples_from_group(self):
        app = self._guarded()
        app.handle_insert(Tup("c", "n", "p", 500), 0.0)  # guard rejects
        assert not app.has_tuple(Tup("best", "n", 500))
        app.handle_insert(Tup("c", "n", "q", 7), 1.0)
        assert app.has_tuple(Tup("best", "n", 7))
        app.handle_insert(Tup("c", "n", "r", 3), 2.0)
        assert app.has_tuple(Tup("best", "n", 3))

    def test_guard_rejected_change_emits_nothing(self):
        app = self._guarded()
        app.handle_insert(Tup("c", "n", "q", 7), 0.0)
        outs = app.handle_insert(Tup("c", "n", "p", 500), 1.0)
        assert outs == []
        outs = app.handle_delete(Tup("c", "n", "p", 500), 2.0)
        assert outs == []
        assert app.has_tuple(Tup("best", "n", 7))

    def test_guard_rejected_change_skips_recompute(self):
        # Regression for the dead guard check in _mark_dirty: a tuple the
        # guard rejects was never a group member, so it must not even
        # schedule a recompute.
        app = self._guarded()
        app.handle_insert(Tup("c", "n", "q", 7), 0.0)
        recomputes = []
        original = app._recompute_group
        app._recompute_group = lambda key, t, wl: (
            recomputes.append(key), original(key, t, wl))
        app.handle_insert(Tup("c", "n", "p", 500), 1.0)
        app.handle_delete(Tup("c", "n", "p", 500), 2.0)
        assert recomputes == []
        app.handle_insert(Tup("c", "n", "r", 3), 3.0)
        assert recomputes  # a passing tuple still recomputes

    def test_worse_minmax_candidate_skips_recompute(self):
        app = self._minapp()
        app.handle_insert(Tup("c", "n", "p", 5), 0.0)
        recomputes = []
        original = app._recompute_group
        app._recompute_group = lambda key, t, wl: (
            recomputes.append(key), original(key, t, wl))
        app.handle_insert(Tup("c", "n", "q", 9), 1.0)   # worse than 5
        app.handle_delete(Tup("c", "n", "q", 9), 2.0)   # not the witness
        assert recomputes == []
        app.handle_insert(Tup("c", "n", "r", 2), 3.0)   # improves: recompute
        assert recomputes
        assert app.has_tuple(Tup("best", "n", 2))

    def test_custom_key(self):
        app = DatalogApp("n", Program([
            AggregateRule("P", Atom("best", X, K), [Atom("r", X, K)],
                          agg_var=K, func="min",
                          key=lambda path: (len(path), path)),
        ]))
        app.handle_insert(Tup("r", "n", ("a", "b", "c")), 0.0)
        app.handle_insert(Tup("r", "n", ("z", "w")), 1.0)  # shorter wins
        assert app.has_tuple(Tup("best", "n", ("z", "w")))


class TestMaybeRules:
    def _app(self):
        return DatalogApp("n", Program([
            MaybeRule("M", Atom("sel", X, K), [Atom("opt", X, K)]),
        ]))

    def test_body_alone_does_not_derive(self):
        app = self._app()
        app.handle_insert(Tup("opt", "n", 1), 0.0)
        assert not app.has_tuple(Tup("sel", "n", 1))

    def test_choice_token_activates(self):
        app = self._app()
        app.handle_insert(Tup("opt", "n", 1), 0.0)
        outs = app.handle_insert(choice_tuple("M", "n", 1), 1.0)
        assert any(isinstance(o, Der) and o.tup == Tup("sel", "n", 1)
                   for o in outs)

    def test_token_without_body_does_not_derive(self):
        app = self._app()
        app.handle_insert(choice_tuple("M", "n", 1), 0.0)
        assert not app.has_tuple(Tup("sel", "n", 1))

    def test_retraction_via_token_delete(self):
        app = self._app()
        app.handle_insert(Tup("opt", "n", 1), 0.0)
        app.handle_insert(choice_tuple("M", "n", 1), 1.0)
        outs = app.handle_delete(choice_tuple("M", "n", 1), 2.0)
        assert any(isinstance(o, Und) for o in outs)
        assert not app.has_tuple(Tup("sel", "n", 1))

    def test_retraction_via_body_disappearance(self):
        app = self._app()
        app.handle_insert(Tup("opt", "n", 1), 0.0)
        app.handle_insert(choice_tuple("M", "n", 1), 1.0)
        app.handle_delete(Tup("opt", "n", 1), 2.0)
        assert not app.has_tuple(Tup("sel", "n", 1))


class TestSnapshotRestore:
    def test_engine_snapshot_roundtrip(self):
        program = Program([
            Rule("R", Atom("h", X, K), [Atom("b", X, K)]),
            AggregateRule("A", Atom("best", X, K), [Atom("c", X, Z, K)],
                          agg_var=K, func="min"),
        ])
        app = DatalogApp("n", program)
        app.handle_insert(Tup("b", "n", 1), 0.0)
        app.handle_insert(Tup("c", "n", "z", 5), 0.5)
        snap = app.snapshot()
        fresh = DatalogApp("n", program)
        fresh.restore(snap)
        assert fresh.has_tuple(Tup("h", "n", 1))
        assert fresh.has_tuple(Tup("best", "n", 5))
        # Behavior after restore matches continued execution.
        a = app.handle_insert(Tup("c", "n", "y", 2), 1.0)
        b = fresh.handle_insert(Tup("c", "n", "y", 2), 1.0)
        assert [repr(o) for o in a] == [repr(o) for o in b]
