"""Rule compilation: from declarative rules to indexed join plans.

The engine used to evaluate rules interpretively — every appearing tuple
re-enumerated every visible tuple of every body relation. This module
compiles each rule *once*, at :meth:`Program.add` time, into the static
schedule that evaluation follows:

* a :class:`JoinPlan` per trigger position — when a tuple of body atom
  *k*'s relation appears, the plan for trigger *k* follows the SIPS
  annotation computed by :func:`repro.datalog.analysis.sip_join` (greedy
  most-bound-first atom order, earliest-step guard schedule) and
  precomputes, for every join
  step, the **index key**: the tuple of argument positions whose values
  are already known when the step runs (constants in the pattern plus
  variables bound by earlier steps). At runtime the step is a hash lookup
  on the corresponding :class:`~repro.datalog.store.TupleStore` secondary
  index instead of a relation scan;
* a **guard schedule**: each :class:`~repro.datalog.ast.Guard` with
  declared variables fires at the earliest step where its variables are
  bound, pruning partial matches; opaque callables fire after the body is
  fully bound (exactly the old semantics);
* for aggregate rules, an :class:`AggPlan` locating the aggregate value
  in the head, so the engine's min/max short-circuit can read a group's
  current optimum back off its head tuple.

Plans only *accelerate* evaluation; they never change results. Every
candidate from an index is still unified via ``atom.match`` (which
re-checks constants, repeated variables and cross-atom equality), and the
engine sorts full matches into the same canonical order the interpretive
scan produced, so the determinism contract (DESIGN.md) is untouched.

Positions are 0-based over ``(loc,) + terms``: position 0 is the ``@``
location, position *i* ≥ 1 is ``terms[i-1]``.
"""

from repro.datalog.analysis import (
    atom_arity, atom_var_names, bound_positions, rule_sips, sip_join,
    term_at,
)
from repro.datalog.ast import AggregateRule, Var

__all__ = [
    "AggPlan", "JoinPlan", "JoinStep", "RulePlan", "compile_rule",
    "guard_schedule_counts", "atom_arity", "atom_var_names", "term_at",
]


class JoinStep:
    """One join step: probe *atom* through an index and extend bindings.

    ``index_positions`` is the sorted tuple of positions whose values are
    known when the step runs (the store index spec); ``key_parts`` is the
    aligned recipe for the runtime key — ``(True, var_name)`` reads a
    binding, ``(False, constant)`` is a literal. ``guards`` fire on each
    successful match of this step (their variables are all bound here and
    not earlier).
    """

    __slots__ = ("body_pos", "atom", "index_positions", "key_parts", "guards")

    def __init__(self, body_pos, atom, index_positions, key_parts, guards):
        self.body_pos = body_pos
        self.atom = atom
        self.index_positions = index_positions
        self.key_parts = key_parts
        self.guards = guards

    def key(self, bindings):
        return tuple(
            bindings[value] if is_var else value
            for is_var, value in self.key_parts
        )

    def __repr__(self):
        return (
            f"JoinStep(pos={self.body_pos}, {self.atom!r}, "
            f"index={self.index_positions})"
        )


class JoinPlan:
    """The evaluation schedule for one rule triggered at one body position."""

    __slots__ = ("rule", "trigger_pos", "pre_guards", "steps")

    def __init__(self, rule, trigger_pos, pre_guards, steps):
        self.rule = rule
        self.trigger_pos = trigger_pos
        self.pre_guards = pre_guards
        self.steps = steps

    def execute(self, store, bound, trigger_tup, app):
        """Run this plan's delta-lifted join ΔR ⋈ S ⋈ … for one trigger.

        *trigger_tup* is the singleton delta side, pinned at
        ``trigger_pos``; *bound* is the trigger atom's unification with
        it. Each step probes one remaining body atom through a
        :class:`~repro.datalog.store.TupleStore` secondary hash index
        keyed by the values already bound, and scheduled guards prune
        partial matches as early as their variables allow. Returns
        (bindings, support) pairs — *support* lists the matched ground
        tuple per body atom, in body order — sorted into the canonical
        support order the interpretive scan produced, which is what
        keeps replay byte-identical (DESIGN.md). *app* accumulates the
        evaluation counters (``join_candidates``, ``guard_prunes``).
        """
        for guard in self.pre_guards:
            if not guard(bound):
                app.guard_prunes += 1
                return ()
        results = []
        chosen = [None] * len(self.rule.body)
        chosen[self.trigger_pos] = trigger_tup
        self._extend(store, app, 0, bound, chosen, results)
        if len(results) > 1:
            results.sort(key=_support_order)
        return results

    def _extend(self, store, app, step_index, bindings, chosen, results):
        """Probe step *step_index* and recurse on every match; a full
        match appends ``(bindings, support)`` to *results*. A method, not
        a closure over ``execute``'s locals: a nested function that calls
        itself is a reference cycle per join, which only the cyclic
        collector can free (DESIGN.md "Allocation and the collector")."""
        steps = self.steps
        if step_index == len(steps):
            results.append((bindings, tuple(chosen)))
            return
        step = steps[step_index]
        if step.index_positions:
            candidates = store.index_lookup(
                step.atom.relation, step.index_positions,
                step.key(bindings),
            )
        else:
            candidates = store.visible_set(step.atom.relation)
        for candidate in candidates:
            app.join_candidates += 1
            extended = step.atom.match(candidate, bindings)
            if extended is None:
                continue
            for guard in step.guards:
                if not guard(extended):
                    app.guard_prunes += 1
                    break
            else:
                chosen[step.body_pos] = candidate
                self._extend(store, app, step_index + 1, extended, chosen,
                             results)
                chosen[step.body_pos] = None

    def __repr__(self):
        return (
            f"JoinPlan({self.rule.name}@{self.trigger_pos}: "
            f"{list(self.steps)!r})"
        )


def _support_order(match):
    """Sort key of one ``(bindings, support)`` match: the support's
    canonical keys, in body order."""
    return tuple(s.canonical_key() for s in match[1])


def _key_parts(atom, positions):
    parts = []
    for position in positions:
        term = term_at(atom, position)
        if isinstance(term, Var):
            parts.append((True, term.name))
        else:
            parts.append((False, term))
    return tuple(parts)


def _compile_join(rule, trigger_pos, sip=None):
    """Lower one SIPS annotation (:func:`repro.datalog.analysis.sip_join`)
    into an executable :class:`JoinPlan`.

    The analyzer owns the ordering decisions — greedy most-bound-first
    atoms, earliest-step guard firing, opaque guards on full bindings;
    this function only materializes the index keys and resolves guard
    indexes back to the rule's callables.
    """
    if sip is None:
        sip = sip_join(rule, trigger_pos)
    pre_guards = tuple(rule.guards[index] for index in sip.pre_guards)
    steps = []
    for sip_step in sip.steps:
        atom = rule.body[sip_step.body_pos]
        positions = bound_positions(atom, sip_step.bound_before)
        steps.append(JoinStep(
            body_pos=sip_step.body_pos,
            atom=atom,
            index_positions=positions,
            key_parts=_key_parts(atom, positions),
            guards=tuple(rule.guards[index] for index in sip_step.guards),
        ))
    return JoinPlan(rule, sip.trigger_pos, pre_guards, tuple(steps))


class RulePlan:
    """Compiled form of an ordinary (or maybe) rule: one JoinPlan per
    trigger position."""

    kind = "join"

    __slots__ = ("rule", "joins")

    def __init__(self, rule, sips=None):
        self.rule = rule
        self.joins = tuple(
            _compile_join(rule, pos, sip=None if sips is None else sips[pos])
            for pos in range(len(rule.body))
        )

    def index_requirements(self):
        requirements = set()
        for join in self.joins:
            for step in join.steps:
                if step.index_positions:
                    requirements.add(
                        (step.atom.relation, step.index_positions)
                    )
        return requirements


class AggPlan:
    """Compiled form of an aggregate rule: where the aggregate value
    lands in the head tuple — lets the engine read a group's current
    value back off its head instead of storing it separately (min/max
    short-circuit in ``_mark_dirty``)."""

    kind = "aggregate"

    __slots__ = ("rule", "head_agg_pos")

    def __init__(self, rule):
        self.rule = rule
        self.head_agg_pos = None
        for position in range(atom_arity(rule.head)):
            term = term_at(rule.head, position)
            if isinstance(term, Var) and term.name == rule.agg_var.name:
                self.head_agg_pos = position
                break

    def head_agg_value(self, head_tup):
        """The aggregate value carried by a ground head tuple."""
        if self.head_agg_pos == 0:
            return head_tup.loc
        return head_tup.args[self.head_agg_pos - 1]


def guard_schedule_counts(program_or_rules):
    """Static guard-placement counts over every (rule, trigger) schedule.

    ``pre`` counts guards decidable on the trigger bindings alone,
    ``mid`` guards fired at a join step before the last (pruning partial
    matches), ``late`` guards that only run on fully bound bodies (the
    final step, or a single-atom body's trigger). ``pre + mid`` is the
    planner's static pruning opportunity — ``tests/unit/test_plan.py``
    pins it for chord and path-vector so a scheduling regression (guards
    drifting to full binding) is caught even when wall time hides it.
    """
    rules = getattr(program_or_rules, "rules", program_or_rules)
    counts = {"pre": 0, "mid": 0, "late": 0}
    for rule in rules:
        if isinstance(rule, AggregateRule):
            continue
        for join in rule_sips(rule):
            if join.steps:
                counts["pre"] += len(join.pre_guards)
                for step in join.steps[:-1]:
                    counts["mid"] += len(step.guards)
                counts["late"] += len(join.steps[-1].guards)
            else:
                counts["late"] += len(join.pre_guards)
    return counts


def compile_rule(rule, sips=None):
    """Compile *rule* into its plan (RulePlan or AggPlan).

    *sips* optionally supplies precomputed per-trigger SIPS annotations
    (e.g. from a :class:`~repro.datalog.analysis.ProgramAnalysis`); they
    must validate under :func:`~repro.datalog.analysis.sip_violations`,
    which the analyzer's binding pass enforces (ND401).
    """
    if isinstance(rule, AggregateRule):
        return AggPlan(rule)
    return RulePlan(rule, sips=sips)
