"""The incremental Datalog engine: a deterministic node state machine.

:class:`DatalogApp` implements :class:`repro.model.StateMachine` over a
:class:`Program` of rules. It maintains derivations incrementally:

* a base-tuple insert/delete or an incoming ``+τ/−τ`` notification starts a
  cascade of (un)derivations, processed from a FIFO worklist in a canonical
  deterministic order (assumption 6 of the paper: node computation must be
  deterministic, since replay regenerates the provenance graph);
* a derivation whose head is located on another node emits a ``Snd`` output
  pushing ``+τ`` there (``−τ`` when the derivation is lost), exactly the
  cross-node notification protocol of Section 3.1;
* aggregate rules (min/max/sum/count) are recomputed per group whenever a
  contributing tuple changes; value changes surface as an ``Und`` of the old
  head followed by a ``Der`` of the new one.

Multiple simultaneous derivations of one tuple are tracked with reference
counts; the reported provenance is the first surviving derivation (the
unique-derivation simplification of Appendix A.1, see DESIGN.md).

Evaluation is gate-compile-execute: :class:`DatalogApp` refuses a
program the static analyzer (:mod:`repro.datalog.analysis`) finds
ill-formed, :class:`Program` compiles every rule into an indexed join
plan (:mod:`repro.datalog.plan`), and the cascade executes those plans
against the store's secondary hash indexes, so a triggering tuple
touches only the tuples that can actually join with it.
The scan-based strategy survives as the tests' reference evaluator
(``tests/naive.py``), which this engine is property-tested against.

Every ``+τ/−τ`` runs to fixpoint as a delta — the triggering tuple is
the singleton delta side of each plan's join — and retraction is serviced
by the store's support counts, never by snapshot-restore.

What does not change per event is resolved once: :class:`Program` files
each body relation's triggers with their compiled join plans
(:meth:`Program.triggers_for`), and each :class:`DatalogApp` resolves
every rule's seed bindings at its node when it is built. A worklist
event is one flat ``(kind, tup, rule_name, support)`` tuple, and a
min/max recompute reads a member's canonical key only when it ties the
best value so far.

Aggregate-group **membership** is maintained, not rescanned: every
guard-passing member transition — including the ones the min/max
dirty-marking short-circuit skips — updates a ``(rule_index, group_key)
-> {tup: bindings}`` map, and a dirty group's recompute reads its members
off it. The map is derived state: never snapshotted, rebuilt from the
store on :meth:`DatalogApp.restore`.
"""

from collections import deque

from repro.datalog.analysis import ProgramAnalysisError, analyze
from repro.datalog.ast import Var, Rule, AggregateRule, MaybeRule
from repro.datalog.plan import compile_rule
from repro.datalog.store import TupleStore
from repro.model import Ack, Der, Snd, StateMachine, Und, MINUS, PLUS
from repro.util.errors import ConfigurationError


class Program:
    """An ordered collection of rules, indexed by body relation.

    Every rule is compiled at :meth:`add` time into an indexed join plan
    (:mod:`repro.datalog.plan`); ``plans[i]`` is the compiled form of
    ``rules[i]``.

    *inputs* optionally declares the base relations the deployment
    inserts (``{relation: arity-or-None}``); it enables the analyzer's
    closed-world check (:mod:`repro.datalog.analysis`).
    """

    def __init__(self, rules=(), inputs=None):
        self.rules = []
        self.plans = []
        self._by_body_relation = {}
        self.declared_inputs = inputs
        self._checked = False
        for rule in rules:
            self.add(rule)

    def add(self, rule):
        if not isinstance(rule, (Rule, AggregateRule, MaybeRule)):
            raise ConfigurationError(f"not a rule: {rule!r}")
        index = len(self.rules)
        self.rules.append(rule)
        plan = compile_rule(rule)
        self.plans.append(plan)
        for pos, atom in enumerate(rule.body):
            join = plan.joins[pos] if plan.kind == "join" else None
            self._by_body_relation.setdefault(atom.relation, []).append(
                (index, rule, pos, join)
            )
        self._checked = False   # a new rule needs a new analysis
        return rule

    def ensure_checked(self):
        """Gate: analyze once and raise on any diagnostic.

        Memoized per instance — programs are shared across nodes and
        replays, so the fleet pays for one analysis. Raises
        :class:`~repro.datalog.analysis.ProgramAnalysisError` (a
        :class:`ConfigurationError`) when the program is ill-formed.
        """
        if not self._checked:
            diagnostics = analyze(self.rules, self.declared_inputs)
            if diagnostics:
                raise ProgramAnalysisError(diagnostics)
            self._checked = True

    def triggers_for(self, relation):
        """``(rule_index, rule, body_position, join)`` per body atom over
        *relation*, in rule order: *join* is the rule's compiled
        :class:`~repro.datalog.plan.JoinPlan` for that trigger position,
        None for an aggregate rule."""
        return self._by_body_relation.get(relation, ())

    def index_requirements(self):
        """All (relation, positions) secondary indexes the join plans
        probe (aggregate plans read the membership map, not the store)."""
        requirements = set()
        for plan in self.plans:
            if plan.kind == "join":
                requirements |= plan.index_requirements()
        return requirements


def _seed_bindings(rule, node_id):
    """Bind the rule's shared body location to this node (or None if the
    rule cannot evaluate here because its body location is a different
    constant)."""
    loc = rule.body_loc
    if isinstance(loc, Var):
        return {loc.name: node_id}
    return {} if loc == node_id else None


def _optimum(rule, var, members):
    """The ``(bindings, tup)`` member a min/max *rule* picks: the least
    (greatest) in the order (value key, then canonical tie-break). A
    member's canonical key — an encode, for a fresh tuple — is read only
    when it ties the best so far on the value."""
    lowest = rule.func == "min"
    value_key = rule.key
    best = best_value = best_canon = None
    for member in members:
        value = member[0][var]
        if value_key is not None:
            value = value_key(value)
        if best is None:
            best, best_value = member, value
        elif value is best_value or value == best_value:
            if best_canon is None:
                best_canon = best[1].canonical_key()
            canon = member[1].canonical_key()
            if canon < best_canon if lowest else canon > best_canon:
                best, best_value, best_canon = member, value, canon
        elif value < best_value if lowest else value > best_value:
            best, best_value, best_canon = member, value, None
    return best


class DatalogApp(StateMachine):
    """A deterministic Datalog state machine for one node."""

    def __init__(self, node_id, program):
        super().__init__(node_id)
        # The analyzer's gate: refuse an ill-formed program (memoized
        # on the shared Program instance).
        program.ensure_checked()
        self.program = program
        self.store = TupleStore(node_id)
        for relation, positions in program.index_requirements():
            self.store.register_index(relation, positions)
        # Each rule's seed bindings at this node, resolved once (None: the
        # rule's body lives on another node). Nothing writes to a seed.
        self._seeds = tuple(
            _seed_bindings(rule, node_id) for rule in program.rules)
        # (rule_index, group_key) -> (head_tup, support) for aggregate heads
        self._agg_current = {}
        # (rule_index, group_key) -> {member_tup: bindings}. Derived from
        # the store's visible set; excluded from snapshots, rebuilt on
        # restore.
        self._members = {}
        #: Evaluation counters (not part of snapshots): candidate tuples
        #: enumerated by join steps, and partial/full matches a guard
        #: rejected. tests/integration/test_engine_schedules.py pins them
        #: on the four application schedules (indexed ≤ naive).
        self.join_candidates = 0
        self.guard_prunes = 0
        #: Delta cost counters (not part of snapshots, all
        #: deterministic): input presence toggles consumed, derivation
        #: changes (Der/Und) emitted, derivation instances dropped
        #: because a support disappeared, and min/max group recomputes a
        #: disappearing support forced (the support re-derivation path).
        #: ``delta_tuples_out`` is the engine's *semantic* work metric —
        #: test_engine_schedules.py gates the 1-event refresh against it.
        self.delta_tuples_in = 0
        self.delta_tuples_out = 0
        self.retractions_applied = 0
        self.support_rederivations = 0

    # ------------------------------------------------------------------ API

    def handle_insert(self, tup, t):
        outputs = []
        if self.store.add_base(tup, t):
            self.delta_tuples_in += 1
            self._run_cascade(("appear", tup, None, None), t, outputs)
        return outputs

    def handle_delete(self, tup, t):
        outputs = []
        if self.store.remove_base(tup):
            self.delta_tuples_in += 1
            self._run_cascade(("disappear", tup, None, None), t, outputs)
        return outputs

    def handle_receive(self, msg, t):
        if isinstance(msg, Ack):
            return []
        outputs = []
        if msg.polarity == PLUS:
            if self.store.add_belief(msg.tup, msg.src, t):
                self.delta_tuples_in += 1
                self._run_cascade(("appear", msg.tup, None, None), t,
                                  outputs)
        else:
            if self.store.remove_belief(msg.tup, msg.src):
                self.delta_tuples_in += 1
                self._run_cascade(("disappear", msg.tup, None, None), t,
                                  outputs)
        return outputs

    # ------------------------------------------------------- cascade engine

    def _run_cascade(self, first_event, t, outputs):
        """Drain the derivation worklist to a fixpoint, deterministically.

        Events are ``("appear"|"disappear", tup, rule_name, support)``.
        *rule_name* and *support* name the derivation when the event is
        one this cascade produced (so the Der/Und output can be
        emitted); both are None for base/belief changes, whose vertices
        come from the triggering log event itself.
        """
        worklist = deque((first_event,))
        dirty_groups = []
        dirty_seen = set()
        while worklist or dirty_groups:
            if not worklist:
                # Recompute one aggregate group; may enqueue more events.
                key = dirty_groups.pop(0)
                dirty_seen.discard(key)
                self._recompute_group(key, t, worklist)
                continue
            kind, tup, rule_name, support = worklist.popleft()
            if kind == "appear":
                self._emit_appear(tup, rule_name, support, t, outputs)
                self._match_rules_on_appear(tup, t, worklist, dirty_groups,
                                            dirty_seen)
            else:
                self._emit_disappear(tup, rule_name, support, t, outputs)
                self._retract_on_disappear(tup, t, worklist, dirty_groups,
                                           dirty_seen)

    def _emit_appear(self, tup, rule_name, support, t, outputs):
        if rule_name is not None:
            outputs.append(Der(tup, rule_name, support))
            self.delta_tuples_out += 1
        if tup.loc != self.node_id:
            outputs.append(Snd(self.make_msg(PLUS, tup, tup.loc, t)))

    def _emit_disappear(self, tup, rule_name, support, t, outputs):
        if rule_name is not None:
            outputs.append(Und(tup, rule_name, support))
            self.delta_tuples_out += 1
        if tup.loc != self.node_id:
            outputs.append(Snd(self.make_msg(MINUS, tup, tup.loc, t)))

    # -- appearance: find newly satisfied rule instances ---------------------

    def _match_rules_on_appear(self, tup, t, worklist, dirty_groups, dirty_seen):
        if tup.loc != self.node_id:
            return  # not visible here; only the head's node can match it
        store = self.store
        seeds = self._seeds
        for rule_index, rule, pos, join in self.program.triggers_for(
                tup.relation):
            seed = seeds[rule_index]
            if seed is None:
                continue
            if join is None:
                self._mark_dirty(rule_index, rule, tup,
                                 dirty_groups, dirty_seen, "appear")
                continue
            bound = join.trigger.unify(tup, seed)
            if bound is None:
                continue
            name = rule.name
            for bindings, support in self._matches_from(rule_index, rule,
                                                        pos, bound, tup):
                head = rule.head.instantiate(bindings)
                is_new, appeared = store.add_derivation(head, name, support,
                                                        t)
                if is_new and appeared:
                    worklist.append(("appear", head, name, support))

    def _matches_from(self, rule_index, rule, pos, bound, tup):
        """Full, guard-passing body matches with position *pos* pinned.

        Delegates to the rule's compiled per-trigger
        :meth:`~repro.datalog.plan.JoinPlan.execute` — the delta-lifted
        join ΔR⋈S: the triggering tuple is the singleton delta side, the
        remaining body atoms probe the store's secondary hash indexes in
        SIPS order, and results come back in the canonical support order
        that keeps replay byte-identical (DESIGN.md).
        """
        return self.program.plans[rule_index].joins[pos].execute(
            self.store, bound, tup, self
        )

    # -- disappearance: retract dependent derivations -------------------------

    def _retract_on_disappear(self, tup, t, worklist, dirty_groups, dirty_seen):
        if tup.loc != self.node_id:
            return
        seeds = self._seeds
        for rule_index, rule, _pos, join in self.program.triggers_for(
                tup.relation):
            if join is None and seeds[rule_index] is not None:
                self._mark_dirty(rule_index, rule, tup,
                                 dirty_groups, dirty_seen, "disappear")
        removed = self.store.remove_derivations_supported_by(tup)
        self.retractions_applied += len(removed)
        for head, rule_name, support, disappeared in removed:
            if disappeared:
                worklist.append(("disappear", head, rule_name, support))

    # -- aggregates ---------------------------------------------------------

    def _mark_dirty(self, rule_index, rule, tup, dirty_groups, dirty_seen,
                    cause):
        """Schedule one aggregate group for recompute after *tup*'s
        *cause* ("appear"/"disappear") transition."""
        member = self._membership(rule_index, rule, tup)
        if member is None:
            return
        group_key, bindings = member
        key = (rule_index, group_key)
        # Membership bookkeeping must see every member transition, even
        # the ones the dirty-marking below skips.
        self._note_membership(key, tup, bindings, cause)
        if key in dirty_seen:
            return
        if rule.func in ("min", "max"):
            if self._agg_unaffected(rule_index, rule, key, tup, bindings):
                return
            if cause == "disappear":
                # The group may have lost its witness: the recompute
                # re-derives the optimum from the support set.
                self.support_rederivations += 1
        dirty_seen.add(key)
        dirty_groups.append(key)

    def _membership(self, rule_index, rule, tup):
        """``(group_key, bindings)`` if *tup* is a member of one of
        aggregate *rule*'s groups at this node (where the rule has seed
        bindings), else None. An aggregate body is a single atom, so the
        bindings are complete: a guard rejecting them means the tuple is
        no group's member, and its change cannot move any group's
        value."""
        bindings = self.program.plans[rule_index].member.unify(
            tup, self._seeds[rule_index])
        if bindings is None:
            return None
        for guard in rule.guards:
            if not guard(bindings):
                return None
        group_key = []
        for var in rule.group_vars:
            group_key.append(bindings.get(var.name))
        return tuple(group_key), bindings

    def _note_membership(self, key, tup, bindings, cause):
        if cause == "appear":
            self._members.setdefault(key, {})[tup] = bindings
        else:
            group = self._members.get(key)
            if group is not None:
                group.pop(tup, None)
                if not group:
                    del self._members[key]

    def _agg_unaffected(self, rule_index, rule, key, tup, bindings):
        """True when a min/max group provably cannot change.

        A candidate strictly *worse* than the stored optimum — in the full
        deterministic ordering (value key, then canonical tie-break) — can
        neither beat the current witness on appear nor *be* the witness on
        disappear, so the recompute would be a no-op. Ties and improvements
        always recompute (a tie may silently re-support the head with a
        different witness, exactly as a full recompute would). Only valid
        while the group is clean: callers check ``dirty_seen`` first, and a
        dirty group keeps its pending recompute regardless.
        """
        stored = self._agg_current.get(key)
        if stored is None:
            return False
        head, support = stored
        plan = self.program.plans[rule_index]
        if plan.head_agg_pos is None or not support:
            return False
        candidate = bindings[rule.agg_var.name]
        current = plan.head_agg_value(head)
        if rule.key is not None:
            candidate = rule.key(candidate)
            current = rule.key(current)
        if candidate is current or candidate == current:
            # Tie on the value: the canonical tie-break decides. Only now
            # are the keys needed — a fresh tuple's is an encode.
            candidate = tup.canonical_key()
            current = support[0].canonical_key()
        if rule.func == "min":
            return candidate > current
        return candidate < current

    def _recompute_group(self, key, t, worklist):
        rule_index, group_key = key
        rule = self.program.rules[rule_index]
        members = self._group_members(key, rule)

        old = self._agg_current.get(key)
        new_head, new_support, new_bindings = self._aggregate(
            rule, group_key, members
        )
        old_head = old[0] if old else None
        if new_head == old_head:
            if old and new_head is not None and old[1] != new_support:
                # Same value, different witness: silently re-support (the
                # head never ceased to hold, so no der/und churn).
                self._agg_current[key] = (new_head, new_support)
            return
        if old_head is not None:
            if self.store.remove_derivation(old_head, rule.name, ()):
                worklist.append(("disappear", old_head, rule.name, old[1]))
            del self._agg_current[key]
        if new_head is not None:
            _is_new, appeared = self.store.add_derivation(
                new_head, rule.name, (), t)
            self._agg_current[key] = (new_head, new_support)
            if appeared:
                worklist.append(("appear", new_head, rule.name, new_support))

    def _group_members(self, key, rule):
        """One group's members as ``[(bindings, tup)]``, read off the
        membership map."""
        group = self._members.get(key)
        if not group:
            return []
        if rule.func in ("min", "max"):
            # Chooser key is total (value key, canonical tie-break):
            # enumeration order cannot change the winner.
            return [(bindings, tup) for tup, bindings in group.items()]
        # sum/count: first member's bindings and the full support order
        # are observable — canonical order, always.
        return sorted(
            ((bindings, tup) for tup, bindings in group.items()),
            key=lambda member: member[1].canonical_key(),
        )

    def _rebuild_members(self):
        """Recompute the membership map from the store's visible set."""
        self._members = {}
        for rule_index, rule in enumerate(self.program.rules):
            if (not isinstance(rule, AggregateRule)
                    or self._seeds[rule_index] is None):
                continue
            for tup in self.store.visible_set(rule.body[0].relation):
                member = self._membership(rule_index, rule, tup)
                if member is not None:
                    group_key, bindings = member
                    self._members.setdefault(
                        (rule_index, group_key), {}
                    )[tup] = bindings

    def _aggregate(self, rule, group_key, members):
        """Compute (head, support, bindings) for a group; head None if empty."""
        if not members:
            return None, (), None
        var = rule.agg_var.name
        if rule.func in ("min", "max"):
            bindings, witness = _optimum(rule, var, members)
            head = rule.head.instantiate(bindings)
            return head, (witness,), bindings
        if rule.func == "sum":
            value = sum(m[0][var] for m in members)
        else:  # count
            value = len(members)
        bindings = dict(members[0][0])
        bindings[var] = value
        head = rule.head.instantiate(bindings)
        support = tuple(m[1] for m in members)
        return head, support, bindings

    # ------------------------------------------------------------ checkpoints

    def snapshot(self):
        snap = super().snapshot()
        snap["store"] = self.store.snapshot()
        snap["agg"] = {
            key: (head, support)
            for key, (head, support) in self._agg_current.items()
        }
        return snap

    def restore(self, snap):
        super().restore(snap)
        self.store.restore(snap["store"])
        self._agg_current = {
            key: (head, support) for key, (head, support) in snap["agg"].items()
        }
        self._rebuild_members()

    def extant_tuples(self):
        return self.store.all_local()

    def believed_tuples(self):
        return self.store.all_beliefs()

    # ------------------------------------------------------------- inspection

    def has_tuple(self, tup):
        return self.store.present(tup)

    def tuples_of(self, relation):
        """All present tuples of *relation* visible at this node."""
        return self.store.visible(relation)
