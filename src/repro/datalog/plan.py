"""Rule compilation: from declarative rules to indexed join plans.

The engine used to evaluate rules interpretively — every appearing tuple
re-enumerated every visible tuple of every body relation. This module
compiles each rule *once*, at :meth:`Program.add` time, into the static
schedule that evaluation follows:

* a :class:`JoinPlan` per trigger position — when a tuple of body atom
  *k*'s relation appears, the plan for trigger *k* follows a
  sideways-information-passing (SIPS) schedule (greedy most-bound-first
  atom order, earliest-step guard schedule) and precomputes, for every
  join step, the **index key**: the tuple of argument positions whose
  values are already known when the step runs (constants in the pattern
  plus variables bound by earlier steps). At runtime the step is a hash
  lookup on the corresponding :class:`~repro.datalog.store.TupleStore`
  secondary index instead of a relation scan;
* **compiled unification**: each :class:`JoinStep` is a
  :class:`Unifier` compiled against the variables bound before it —
  the arity, the positions it still has to check and the positions it
  binds. A candidate from the index already agrees on every key
  position, so a step checks only the args of a variable the atom
  repeats. The trigger atom (``JoinPlan.trigger``) and an aggregate's
  body atom (``AggPlan.member``) get a :class:`Unifier` compiled against
  the seed bindings, which checks constants too;
* a **guard schedule**: each :class:`~repro.datalog.ast.Guard` with
  declared variables fires at the earliest step where its variables are
  bound, pruning partial matches; opaque callables fire after the body is
  fully bound (exactly the old semantics);
* for aggregate rules, an :class:`AggPlan` locating the aggregate value
  in the head, so the engine's min/max short-circuit can read a group's
  current optimum back off its head tuple.

Plans only *accelerate* evaluation; they never change results. A
compiled step accepts exactly the candidates ``Atom.match`` would (the
tests' reference evaluator still unifies through it), and the engine
sorts full matches into the same canonical order the interpretive scan
produced, so the determinism contract (DESIGN.md) is untouched.
The planner builds its schedules itself; the static analyzer
(:mod:`repro.datalog.analysis`) only decides whether a program may run.
A property test holds every compiled plan to the schedule contract:
each body atom probed once, each guard fired once and never before its
variables bind.

Positions are 0-based over ``(loc,) + terms``: position 0 is the ``@``
location, position *i* ≥ 1 is ``terms[i-1]``.
"""

from repro.datalog.ast import (
    AggregateRule, Expr, Var, atom_arity, atom_var_names, guard_vars,
    term_at,
)

__all__ = [
    "AggPlan", "JoinPlan", "JoinStep", "RulePlan", "Unifier",
    "compile_rule", "guard_schedule_counts",
]


def bound_positions(atom, bound_names):
    """Positions of *atom* whose value is known given *bound_names*."""
    positions = []
    for position in range(atom_arity(atom)):
        term = term_at(atom, position)
        if isinstance(term, Var):
            if term.name in bound_names:
                positions.append(position)
        elif not isinstance(term, Expr):
            positions.append(position)  # a constant in the pattern
    return tuple(positions)


class Unifier:
    """One body atom's unification, compiled against the variables bound
    before it runs.

    It unifies a tuple of the atom's relation located at this node: the
    location is never checked, since every body atom shares it and it is
    seeded with this node or is this node. ``checks`` lists the other
    known positions the caller has not already matched — ``(arg index,
    True, var_name)`` must equal a binding, ``(arg index, False,
    constant)`` a literal; ``same`` the ``(first, later)`` args of a
    variable the atom repeats and binds here; ``binds`` the ``(var_name,
    arg index)`` it binds; ``arity`` the number of args (None when the
    atom holds an expression, which is head-only and never matches).
    """

    __slots__ = ("arity", "checks", "same", "binds")

    def __init__(self, atom, bound, matched=()):
        self.arity = None if any(
            isinstance(term, Expr) for term in atom.terms
        ) else len(atom.terms)
        checks, same, binds, first = [], [], [], {}
        for index, term in enumerate(atom.terms):
            if index + 1 in matched or isinstance(term, Expr):
                continue
            if not isinstance(term, Var):
                checks.append((index, False, term))
            elif term.name in bound:
                checks.append((index, True, term.name))
            elif term.name in first:
                same.append((first[term.name], index))
            else:
                first[term.name] = index
                binds.append((term.name, index))
        self.checks = tuple(checks)
        self.same = tuple(same)
        self.binds = tuple(binds)

    def unify(self, tup, bindings):
        """*bindings* extended by *tup*, or None when it does not match.
        Does not mutate *bindings*."""
        args = tup.args
        if len(args) != self.arity:
            return None
        for index, is_var, term in self.checks:
            if (bindings[term] if is_var else term) != args[index]:
                return None
        for first, later in self.same:
            if args[first] != args[later]:
                return None
        extended = dict(bindings)
        for name, index in self.binds:
            extended[name] = args[index]
        return extended


class JoinStep(Unifier):
    """One join step: probe *atom* through an index and extend bindings.

    ``index_positions`` is the sorted tuple of positions whose values are
    known when the step runs (the store index spec); ``key_parts`` is the
    aligned recipe for the runtime key — ``(True, var_name)`` reads a
    binding, ``(False, constant)`` is a literal. Every candidate the
    index returns already agrees on those positions, so the step's
    :meth:`~Unifier.unify` checks none of them. ``guards`` fire on each
    successful match of this step (their variables are all bound here
    and not earlier).
    """

    __slots__ = ("body_pos", "atom", "index_positions", "key_parts",
                 "guards")

    def __init__(self, body_pos, atom, bound, guards):
        positions = bound_positions(atom, bound)
        super().__init__(atom, bound, matched=positions)
        self.body_pos = body_pos
        self.atom = atom
        self.index_positions = positions
        self.key_parts = _key_parts(atom, positions)
        self.guards = guards

    def key(self, bindings):
        key = []
        for is_var, value in self.key_parts:
            key.append(bindings[value] if is_var else value)
        return tuple(key)

    def __repr__(self):
        return (
            f"JoinStep(pos={self.body_pos}, {self.atom!r}, "
            f"index={self.index_positions})"
        )


class JoinPlan:
    """The evaluation schedule for one rule triggered at one body position.

    ``trigger`` unifies the triggering tuple with the trigger atom on the
    rule's seed bindings.
    """

    __slots__ = ("rule", "trigger_pos", "trigger", "pre_guards", "steps")

    def __init__(self, rule, trigger_pos, pre_guards, steps):
        self.rule = rule
        self.trigger_pos = trigger_pos
        self.trigger = Unifier(rule.body[trigger_pos], _seeded(rule))
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
        candidates = store.index_lookup(
            step.atom.relation, step.index_positions, step.key(bindings))
        for candidate in candidates:
            app.join_candidates += 1
            extended = step.unify(candidate, bindings)
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
    keys = []
    for tup in match[1]:
        keys.append(tup.canonical_key())
    return tuple(keys)


def _seeded(rule):
    """The variables a rule's seed bindings hold: its body location,
    bound to the node id at runtime, when that is a variable."""
    loc = rule.body_loc
    return (loc.name,) if isinstance(loc, Var) else ()


def _key_parts(atom, positions):
    parts = []
    for position in positions:
        term = term_at(atom, position)
        if isinstance(term, Var):
            parts.append((True, term.name))
        else:
            parts.append((False, term))
    return tuple(parts)


def _compile_join(rule, trigger_pos):
    """The :class:`JoinPlan` for *rule* when body atom *trigger_pos*
    appears: its sideways-information-passing (SIPS) schedule.

    Greedy most-bound-first atom ordering (the atom with the most known
    positions gets the most selective index; ties keep body order), with
    each declared guard fired at the earliest step its variables are all
    bound. Opaque guards — and declared guards over variables the body
    never binds, which the analyzer rejects (ND102) — run after the final
    step on full bindings.
    """
    bound = set(_seeded(rule))
    bound |= atom_var_names(rule.body[trigger_pos])
    pending = [(guard, guard_vars(guard)) for guard in rule.guards]

    def ready_guards():
        fired = []
        remaining = []
        for guard, names in pending:
            if names is not None and set(names) <= bound:
                fired.append(guard)
            else:
                remaining.append((guard, names))
        pending[:] = remaining
        return tuple(fired)

    pre_guards = ready_guards()
    steps = []
    remaining_atoms = [
        pos for pos in range(len(rule.body)) if pos != trigger_pos
    ]
    while remaining_atoms:
        best = max(
            remaining_atoms,
            key=lambda pos: (len(bound_positions(rule.body[pos], bound)),
                             -pos),
        )
        remaining_atoms.remove(best)
        atom = rule.body[best]
        step_bound = frozenset(bound)
        bound |= atom_var_names(atom)
        steps.append(JoinStep(best, atom, step_bound, ready_guards()))

    leftovers = tuple(guard for guard, _names in pending)
    if steps:
        steps[-1].guards += leftovers
    else:
        pre_guards += leftovers
    return JoinPlan(rule, trigger_pos, pre_guards, tuple(steps))


class RulePlan:
    """Compiled form of an ordinary (or maybe) rule: one JoinPlan per
    trigger position."""

    kind = "join"

    __slots__ = ("rule", "joins")

    def __init__(self, rule):
        self.rule = rule
        self.joins = tuple(
            _compile_join(rule, pos) for pos in range(len(rule.body))
        )

    def index_requirements(self):
        """Every step's index, the empty-position one (a single bucket)
        included: each step probes one."""
        requirements = set()
        for join in self.joins:
            for step in join.steps:
                requirements.add((step.atom.relation, step.index_positions))
        return requirements


class AggPlan:
    """Compiled form of an aggregate rule: where the aggregate value
    lands in the head tuple — lets the engine read a group's current
    value back off its head instead of storing it separately (min/max
    short-circuit in ``_mark_dirty``)."""

    kind = "aggregate"

    __slots__ = ("rule", "member", "head_agg_pos")

    def __init__(self, rule):
        self.rule = rule
        # Unifies a tuple with the single body atom on the seed bindings.
        self.member = Unifier(rule.body[0], _seeded(rule))
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
        for join in compile_rule(rule).joins:
            if join.steps:
                counts["pre"] += len(join.pre_guards)
                for step in join.steps[:-1]:
                    counts["mid"] += len(step.guards)
                counts["late"] += len(join.steps[-1].guards)
            else:
                counts["late"] += len(join.pre_guards)
    return counts


def compile_rule(rule):
    """Compile *rule* into its plan (RulePlan or AggPlan)."""
    if isinstance(rule, AggregateRule):
        return AggPlan(rule)
    return RulePlan(rule)
