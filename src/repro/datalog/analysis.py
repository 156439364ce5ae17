"""ndlint: multi-pass static analysis for NDlog programs.

SNP's guarantees hold only for well-formed programs: an unsafe rule (a
head variable never bound by the body), unstratified aggregation, or a
wrong-arity literal makes the provenance graph ill-defined, so a
micro-query could return an unsound verdict without any node
misbehaving. This module moves those failures to load time. It runs five
passes over the rule AST (:mod:`repro.datalog.ast`) and produces
structured :class:`Diagnostic`\\ s:

1. **Safety / range restriction** — every head variable, declared guard
   variable, and declared head-expression input must be bound by a
   positive body literal (ND101/ND102/ND103; undeclared read sets are
   ND104 infos because they force full-binding scheduling).
2. **Arity & column types** — each predicate must be used with one arity
   everywhere (rules, declarations) and each column unifies to one value
   type across the program, via union-find over (relation, position)
   slots (ND201/ND202).
3. **Stratification** — the predicate dependency graph is condensed into
   strongly connected components; a cycle through a non-monotone
   aggregate (sum/count) is rejected (ND301), recursion through min/max
   is legal but flagged for a finiteness guard (ND302) and for its
   retraction cost — deleting a group's witness makes the differential
   engine re-derive the optimum from the remaining supports, cascading
   around the cycle (ND305) — and the
   topological order of the condensation is the stratum order. The
   dialect has no negation construct, so the classic negation check is
   vacuous by construction.
4. **Binding order (SIPS)** — the per-rule, per-trigger
   sideways-information-passing schedule (:func:`sip_join`) that
   :mod:`repro.datalog.plan` compiles into join plans. The pass
   re-validates every schedule: a guard placed before its declared
   variables bind is rejected (ND401; unreachable for schedules built
   here, but the validator also covers externally supplied annotations).
5. **Liveness** — dead rules whose bodies can never be populated from
   the declared inputs (ND501), relations that cannot reach any declared
   output (ND502), single-occurrence variables (ND503), body predicates
   unknown under the closed world of declared inputs (ND504), and
   declared inputs nothing consumes (ND505).

Only *error*-severity diagnostics gate execution:
``Program.ensure_checked`` (:mod:`repro.datalog.engine`) raises
:class:`ProgramAnalysisError` for them, and both evaluators refuse to
run a program that has them.
"""

from repro.datalog.ast import (
    AggregateRule, CHOICE_PREFIX, Expr, Var, guard_vars,
)
from repro.util.errors import ConfigurationError

ERROR = "error"
WARNING = "warning"
INFO = "info"

#: Diagnostic codes with their one-line meanings (see DESIGN.md).
CODES = {
    "ND101": "head variable not bound by any positive body literal",
    "ND102": "guard variable not bound by any positive body literal",
    "ND103": "head-expression variable not bound by the body",
    "ND104": "undeclared read set (opaque guard or expression)",
    "ND201": "predicate used with inconsistent arity",
    "ND202": "column unifies to conflicting value types",
    "ND301": "cycle through a non-monotone aggregate (sum/count)",
    "ND302": "recursion through a min/max aggregate",
    "ND305": "recursive min/max retraction re-derives from supports",
    "ND401": "guard scheduled before its variables bind",
    "ND501": "dead rule: body can never be populated from the inputs",
    "ND502": "relation unreachable from any declared output",
    "ND503": "single-occurrence variable (wildcard?)",
    "ND504": "body predicate unknown under the declared inputs",
    "ND505": "declared input consumed by no rule",
}


class Diagnostic:
    """One analyzer finding, precise enough to render with a caret."""

    __slots__ = ("code", "severity", "message", "rule", "predicate",
                 "variable", "span", "hint")

    def __init__(self, code, severity, message, rule=None, predicate=None,
                 variable=None, span=None, hint=None):
        self.code = code
        self.severity = severity
        self.message = message
        self.rule = rule
        self.predicate = predicate
        self.variable = variable
        self.span = span
        self.hint = hint

    def format(self, filename=None):
        """One-line rendering: ``file:line:col: error ND101: message``."""
        prefix = ""
        if filename is not None:
            prefix = f"{filename}:"
        if self.span is not None:
            prefix += f"{self.span.line}:{self.span.col}:"
        if prefix:
            prefix += " "
        return f"{prefix}{self.severity} {self.code}: {self.message}"

    def __repr__(self):
        return f"Diagnostic({self.code}, {self.severity}, {self.message!r})"


class ProgramAnalysisError(ConfigurationError):
    """A program failed static analysis with error-severity diagnostics.

    Subclasses :class:`ConfigurationError` so existing "bad program"
    handlers keep working; ``diagnostics`` carries the structured errors.
    """

    def __init__(self, diagnostics):
        self.diagnostics = tuple(diagnostics)
        lines = "\n  ".join(d.format() for d in self.diagnostics)
        super().__init__("program failed static analysis:\n  " + lines)


# ---------------------------------------------------------------- helpers


def atom_arity(atom):
    return 1 + len(atom.terms)


def term_at(atom, position):
    return atom.loc if position == 0 else atom.terms[position - 1]


def atom_var_names(atom):
    """The variable names an atom binds when matched."""
    return {
        term.name
        for term in (atom.loc,) + atom.terms
        if isinstance(term, Var)
    }


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


def _body_var_names(rule):
    names = set()
    for atom in rule.body:
        names |= atom_var_names(atom)
    return names


def _count_output_var(rule):
    """The aggregation-bound variable of a ``count`` rule, else None.

    ``count<N>`` is the one aggregate whose variable is an *output*: the
    engine binds it to the group size, so it need not (and usually does
    not) occur in the body.
    """
    if isinstance(rule, AggregateRule) and rule.func == "count":
        return rule.agg_var.name
    return None


def _term_span(term, rule):
    span = getattr(term, "span", None)
    return span if span is not None else getattr(rule, "span", None)


# ------------------------------------------------- pass 4: SIPS schedules


class SipStep:
    """One join step of a SIPS schedule: probe body atom *body_pos*.

    ``bound_before``/``bound_after`` are the variable-name sets known
    entering and leaving the step; ``guards`` are indexes into
    ``rule.guards`` fired on each match of this step.
    """

    __slots__ = ("body_pos", "bound_before", "bound_after", "guards")

    def __init__(self, body_pos, bound_before, bound_after, guards):
        self.body_pos = body_pos
        self.bound_before = bound_before
        self.bound_after = bound_after
        self.guards = guards

    def __repr__(self):
        return f"SipStep(pos={self.body_pos}, guards={self.guards})"


class SipJoin:
    """The SIPS annotation for one rule triggered at one body position:
    the join order plus the earliest-firing guard schedule. ``pre_guards``
    are guard indexes decidable on the trigger bindings alone."""

    __slots__ = ("trigger_pos", "pre_guards", "steps")

    def __init__(self, trigger_pos, pre_guards, steps):
        self.trigger_pos = trigger_pos
        self.pre_guards = pre_guards
        self.steps = steps

    def __repr__(self):
        return f"SipJoin(@{self.trigger_pos}: {list(self.steps)!r})"


def sip_join(rule, trigger_pos):
    """The SIPS schedule for *rule* when body atom *trigger_pos* appears.

    Greedy most-bound-first atom ordering (the atom with the most known
    positions gets the most selective index; ties keep body order), with
    each declared guard fired at the earliest point its variables are all
    bound. Opaque guards — and declared guards over variables the body
    never binds, which pass 1 rejects — run after the final step on full
    bindings. :mod:`repro.datalog.plan` compiles exactly this schedule
    into the executable :class:`~repro.datalog.plan.JoinPlan`.
    """
    bound = set()
    if isinstance(rule.body_loc, Var):
        bound.add(rule.body_loc.name)  # seeded with the node id at runtime
    bound |= atom_var_names(rule.body[trigger_pos])

    pending = [(index, guard_vars(guard))
               for index, guard in enumerate(rule.guards)]

    def ready_guards():
        fired = []
        remaining = []
        for index, names in pending:
            if names is not None and set(names) <= bound:
                fired.append(index)
            else:
                remaining.append((index, names))
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
        before = frozenset(bound)
        bound |= atom_var_names(atom)
        steps.append(SipStep(best, before, frozenset(bound), ready_guards()))

    leftovers = tuple(index for index, _names in pending)
    if leftovers:
        if steps:
            last = steps[-1]
            steps[-1] = SipStep(last.body_pos, last.bound_before,
                                last.bound_after, last.guards + leftovers)
        else:
            pre_guards = pre_guards + leftovers
    return SipJoin(trigger_pos, pre_guards, tuple(steps))


def rule_sips(rule):
    """All SIPS schedules of a (non-aggregate) rule, one per trigger."""
    return tuple(sip_join(rule, pos) for pos in range(len(rule.body)))


def sip_violations(rule, join):
    """Guard indexes of *join* scheduled before their variables bind.

    Always empty for schedules built by :func:`sip_join` on a rule that
    passed the safety pass; this is the validator for annotations that
    arrive from anywhere else.
    """
    bound = set()
    if isinstance(rule.body_loc, Var):
        bound.add(rule.body_loc.name)
    bound |= atom_var_names(rule.body[join.trigger_pos])
    violations = []

    def check(guard_indexes):
        for index in guard_indexes:
            names = guard_vars(rule.guards[index])
            if names is not None and not set(names) <= bound:
                violations.append(index)

    check(join.pre_guards)
    for step in join.steps:
        bound |= atom_var_names(rule.body[step.body_pos])
        check(step.guards)
    return violations


# ----------------------------------------------------------------- passes


def _pass_safety(rules, diags):
    """Range restriction. Returns {(rule_index, guard_index)} of guards
    rejected by ND102 so the binding pass does not re-report them."""
    unsafe_guards = set()
    unsafe_head_vars = set()
    for rule_index, rule in enumerate(rules):
        body_vars = _body_var_names(rule)
        if _count_output_var(rule) is not None:
            # count<N> *defines* N as the group size; the engine binds it
            # during aggregation, so the head occurrence is safe even
            # though no body literal carries it.
            body_vars = body_vars | {rule.agg_var.name}
        head = rule.head
        for position in range(atom_arity(head)):
            term = term_at(head, position)
            if isinstance(term, Var):
                if term.name not in body_vars:
                    unsafe_head_vars.add((rule_index, term.name))
                    diags.append(Diagnostic(
                        "ND101", ERROR,
                        f"rule {rule.name}: head variable '{term.name}' is "
                        "not bound by any positive body literal",
                        rule=rule.name, predicate=head.relation,
                        variable=term.name, span=_term_span(term, rule),
                        hint=f"bind '{term.name}' in a body atom or replace "
                             "it with a constant",
                    ))
            elif isinstance(term, Expr):
                if term.vars is None:
                    diags.append(Diagnostic(
                        "ND104", INFO,
                        f"rule {rule.name}: head expression "
                        f"'{term.label}' does not declare the variables it "
                        "reads",
                        rule=rule.name, predicate=head.relation,
                        span=_term_span(term, rule),
                        hint="pass vars=(...) so the analyzer can check "
                             "its inputs are bound",
                    ))
                else:
                    for name in term.vars:
                        if name not in body_vars:
                            diags.append(Diagnostic(
                                "ND103", ERROR,
                                f"rule {rule.name}: head expression "
                                f"'{term.label}' reads '{name}', which the "
                                "body never binds",
                                rule=rule.name, predicate=head.relation,
                                variable=name, span=_term_span(term, rule),
                                hint=f"bind '{name}' in a body atom",
                            ))
        for guard_index, guard in enumerate(rule.guards):
            names = guard_vars(guard)
            if names is None:
                label = getattr(guard, "label", None) or "<callable>"
                diags.append(Diagnostic(
                    "ND104", INFO,
                    f"rule {rule.name}: guard '{label}' has an undeclared "
                    "read set, so it only runs once the body is fully bound",
                    rule=rule.name, span=_term_span(guard, rule),
                    hint="use Guard(fn, vars=(...)) to enable early "
                         "scheduling",
                ))
                continue
            for name in names:
                if name not in body_vars:
                    unsafe_guards.add((rule_index, guard_index))
                    diags.append(Diagnostic(
                        "ND102", ERROR,
                        f"rule {rule.name}: guard "
                        f"'{getattr(guard, 'label', '<guard>')}' reads "
                        f"'{name}', which the body never binds (the guard "
                        "could never be scheduled)",
                        rule=rule.name, variable=name,
                        span=_term_span(guard, rule),
                        hint=f"bind '{name}' in a body atom or drop it "
                             "from vars=",
                    ))
    return unsafe_guards, unsafe_head_vars


def _pass_arity(rules, inputs, diags):
    seen = {}  # relation -> (arity, description, span)

    def record(relation, arity, where, span):
        previous = seen.get(relation)
        if previous is None:
            seen[relation] = (arity, where, span)
            return
        prev_arity, prev_where, _prev_span = previous
        if prev_arity != arity:
            diags.append(Diagnostic(
                "ND201", ERROR,
                f"'{relation}' used with arity {arity} in {where} but "
                f"arity {prev_arity} in {prev_where} (arity counts the "
                "@location)",
                predicate=relation, span=span,
                hint="make every literal of a relation carry the same "
                     "number of arguments",
            ))

    for relation in sorted(inputs):
        arity = inputs[relation]
        if arity is not None:
            record(relation, arity, f"the input declaration '{relation}/"
                                    f"{arity}'", None)
    for rule in rules:
        for atom in rule.body:
            record(atom.relation, atom_arity(atom),
                   f"the body of rule {rule.name}", _term_span(atom, rule))
        record(rule.head.relation, atom_arity(rule.head),
               f"the head of rule {rule.name}",
               _term_span(rule.head, rule))


def _type_tag(value):
    if isinstance(value, bool) or isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, tuple):
        return "tuple"
    return None  # exotic constant: no constraint


def _pass_types(rules, diags):
    """Unify column value types across the program.

    Union-find over (relation, position) slots: a variable occurring in
    several slots of one rule links those slots program-wide; constants
    pin a slot to a type tag. Conflicting tags on one equivalence class
    are ND202. The aggregate head slot of a ``count`` never links to its
    body slot (counting strings is fine); ``sum`` additionally pins both
    to numbers.
    """
    parent = {}
    tags = {}      # root -> (tag, description)
    reported = set()

    def find(slot):
        parent.setdefault(slot, slot)
        root = slot
        while parent[root] != root:
            root = parent[root]
        while parent[slot] != root:
            parent[slot], slot = root, parent[slot]
        return root

    def describe(slot):
        relation, position = slot
        return f"'{relation}' column {position}"

    def conflict(slot, tag, where, prev_tag, prev_where, span):
        key = (slot, frozenset((tag, prev_tag)))
        if key in reported:
            return
        reported.add(key)
        diags.append(Diagnostic(
            "ND202", ERROR,
            f"{describe(slot)} is used as {tag} ({where}) but as "
            f"{prev_tag} ({prev_where})",
            predicate=slot[0], span=span,
            hint="a column must carry one value type in every rule and "
                 "fact",
        ))

    def set_tag(slot, tag, where, span):
        root = find(slot)
        previous = tags.get(root)
        if previous is None:
            tags[root] = (tag, where)
        elif previous[0] != tag:
            conflict(slot, tag, where, previous[0], previous[1], span)

    def union(a, b, span):
        ra, rb = find(a), find(b)
        if ra == rb:
            return
        tag_a, tag_b = tags.get(ra), tags.get(rb)
        parent[rb] = ra
        if tag_a is None:
            if tag_b is not None:
                tags[ra] = tag_b
        elif tag_b is not None and tag_a[0] != tag_b[0]:
            conflict(a, tag_b[0], tag_b[1], tag_a[0], tag_a[1], span)

    for rule in rules:
        agg = rule if isinstance(rule, AggregateRule) else None
        var_slots = {}

        def collect(atom, is_head, rule=rule, agg=agg, var_slots=var_slots):
            where = f"rule {rule.name}"
            for position in range(atom_arity(atom)):
                term = term_at(atom, position)
                slot = (atom.relation, position)
                if isinstance(term, Var):
                    if (is_head and agg is not None
                            and term.name == agg.agg_var.name
                            and agg.func in ("sum", "count")):
                        # The aggregate output is a number regardless of
                        # (count) or in addition to (sum) the body column.
                        set_tag(slot, "number", where,
                                _term_span(term, rule))
                        continue
                    var_slots.setdefault(term.name, []).append(
                        (slot, _term_span(term, rule)))
                elif isinstance(term, Expr):
                    continue  # computed: no static constraint
                else:
                    tag = _type_tag(term)
                    if tag is not None:
                        set_tag(slot, tag, where, _term_span(atom, rule))

        for atom in rule.body:
            collect(atom, is_head=False)
        collect(rule.head, is_head=True)
        if agg is not None and agg.func == "sum":
            for slot, span in var_slots.get(agg.agg_var.name, ()):
                set_tag(slot, "number", f"rule {rule.name} (sum)", span)
        for _name, slots in sorted(var_slots.items()):
            first_slot, first_span = slots[0]
            for slot, span in slots[1:]:
                union(first_slot, slot, span or first_span)


def _pass_stratification(rules, diags):
    """SCC-condense the predicate dependency graph.

    Returns the stratum order: relations grouped by component, listed
    dependencies-first. Cycles through sum/count are ND301 errors; cycles
    through min/max are ND302 infos (monotone, but derivations must be
    kept finite by a guard — exactly what the example programs do), each
    paired with an ND305 info calling out the retraction cost: on these
    rules a disappearing witness forces the engine's support
    re-derivation path, and the recursion can cascade it.
    """
    relations = set()
    edges = {}     # src -> {dst}
    edge_kinds = {}  # (src, dst) -> {"plain", "mono", "nonmono"}
    edge_rules = {}  # (src, dst) -> first rule name
    for rule in rules:
        head_rel = rule.head.relation
        relations.add(head_rel)
        if isinstance(rule, AggregateRule):
            kind = "nonmono" if rule.func in ("sum", "count") else "mono"
        else:
            kind = "plain"
        for atom in rule.body:
            relations.add(atom.relation)
            edges.setdefault(atom.relation, set()).add(head_rel)
            edge_kinds.setdefault((atom.relation, head_rel), set()).add(kind)
            edge_rules.setdefault((atom.relation, head_rel), rule.name)

    # Iterative Tarjan: emits components dependents-first; reversing the
    # emission order lists dependencies (lower strata) first.
    index_of = {}
    lowlink = {}
    on_stack = {}
    stack = []
    components = []
    counter = [0]

    for start in sorted(relations):
        if start in index_of:
            continue
        work = [(start, iter(sorted(edges.get(start, ()))))]
        index_of[start] = lowlink[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        on_stack[start] = True
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index_of:
                    index_of[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack[succ] = True
                    work.append((succ, iter(sorted(edges.get(succ, ())))))
                    advanced = True
                    break
                if on_stack.get(succ):
                    lowlink[node] = min(lowlink[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent_node = work[-1][0]
                lowlink[parent_node] = min(lowlink[parent_node],
                                           lowlink[node])
            if lowlink[node] == index_of[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                components.append(tuple(sorted(component)))

    strata = tuple(reversed(components))
    for component in strata:
        members = set(component)
        internal = [
            (src, dst) for (src, dst) in edge_kinds
            if src in members and dst in members
        ]
        cyclic = len(component) > 1 or any(src == dst for src, dst
                                           in internal)
        if not cyclic:
            continue
        kinds = set()
        for edge in internal:
            kinds |= edge_kinds[edge]
        cycle = ", ".join(component)
        if "nonmono" in kinds:
            rule_name = next(
                edge_rules[edge] for edge in sorted(internal)
                if "nonmono" in edge_kinds[edge]
            )
            diags.append(Diagnostic(
                "ND301", ERROR,
                f"unstratifiable aggregation: {{{cycle}}} is a dependency "
                f"cycle through the sum/count aggregate of rule "
                f"{rule_name}, so the fixpoint is not well-defined",
                rule=rule_name, predicate=component[0],
                hint="break the cycle, or aggregate with min/max plus a "
                     "finiteness guard",
            ))
        elif "mono" in kinds:
            rule_name = next(
                edge_rules[edge] for edge in sorted(internal)
                if "mono" in edge_kinds[edge]
            )
            diags.append(Diagnostic(
                "ND302", INFO,
                f"{{{cycle}}} recurses through the min/max aggregate of "
                f"rule {rule_name}; legal, but a guard must keep "
                "derivations finite",
                rule=rule_name, predicate=component[0],
                hint="bound the recursion (e.g. a max-cost or "
                     "path-length guard)",
            ))
            diags.append(Diagnostic(
                "ND305", INFO,
                f"retractions reaching the min/max aggregate of rule "
                f"{rule_name} take the support re-derivation path: when "
                "the group's witness disappears, the engine re-derives "
                "the optimum from the group's remaining members, and the "
                f"{{{cycle}}} recursion can cascade that through "
                "dependent groups",
                rule=rule_name, predicate=component[0],
                hint="expected under churn-heavy inputs; the engine's "
                     "support_rederivations counter measures how often "
                     "it happens",
            ))
    return strata


def _pass_binding(rules, unsafe_guards, diags):
    """Compute the SIPS annotations and validate every guard placement.

    Returns a tuple aligned with *rules*: per ordinary rule the tuple of
    :class:`SipJoin` schedules (one per trigger position), ``None`` for
    aggregate rules (their single body atom needs no join order).
    """
    sips = []
    for rule_index, rule in enumerate(rules):
        if isinstance(rule, AggregateRule):
            sips.append(None)
            continue
        joins = rule_sips(rule)
        for join in joins:
            for guard_index in sip_violations(rule, join):
                if (rule_index, guard_index) in unsafe_guards:
                    continue  # already an ND102
                guard = rule.guards[guard_index]
                diags.append(Diagnostic(
                    "ND401", ERROR,
                    f"rule {rule.name}: guard "
                    f"'{getattr(guard, 'label', '<guard>')}' is scheduled "
                    f"at trigger {join.trigger_pos} before its variables "
                    "bind",
                    rule=rule.name, span=_term_span(guard, rule),
                    hint="this schedule is inconsistent; rebuild it with "
                         "sip_join",
                ))
        sips.append(joins)
    return tuple(sips)


def _pass_liveness(rules, inputs, outputs, unsafe_head_vars, diags):
    head_rels = {rule.head.relation for rule in rules}

    # Single-occurrence variables (pure wildcards) — always on.
    for rule_index, rule in enumerate(rules):
        counts = {}
        spans = {}

        def count(name, span, counts=counts, spans=spans):
            counts[name] = counts.get(name, 0) + 1
            if name not in spans and span is not None:
                spans[name] = span

        for atom in list(rule.body) + [rule.head]:
            for position in range(atom_arity(atom)):
                term = term_at(atom, position)
                if isinstance(term, Var):
                    count(term.name, term.span)
                elif isinstance(term, Expr) and term.vars is not None:
                    for name in term.vars:
                        count(name, term.span)
        for guard in rule.guards:
            for name in (guard_vars(guard) or ()):
                count(name, getattr(guard, "span", None))
        for name in sorted(counts):
            if counts[name] != 1 or name.startswith("_"):
                continue
            if (rule_index, name) in unsafe_head_vars:
                continue  # already an ND101
            if name == _count_output_var(rule):
                continue  # count<N> defines N; a lone head use is the norm
            diags.append(Diagnostic(
                "ND503", INFO,
                f"rule {rule.name}: variable '{name}' occurs only once "
                "(a wildcard?)",
                rule=rule.name, variable=name, span=spans.get(name),
                hint=f"prefix it as '_{name}' to mark the wildcard "
                     "intentional",
            ))

    # The remaining liveness checks need a closed world: without declared
    # inputs, any relation might be populated by base-tuple inserts, so
    # no rule is provably dead and no predicate provably unknown.
    if inputs is not None and rules:
        populated = set(inputs)
        populated |= {
            atom.relation
            for rule in rules for atom in rule.body
            if atom.relation.startswith(CHOICE_PREFIX)
        }
        for rule in rules:
            for atom in rule.body:
                if (atom.relation not in head_rels
                        and atom.relation not in populated):
                    diags.append(Diagnostic(
                        "ND504", ERROR,
                        f"rule {rule.name}: body predicate "
                        f"'{atom.relation}' is neither derived by any rule "
                        "nor a declared input",
                        rule=rule.name, predicate=atom.relation,
                        span=_term_span(atom, rule),
                        hint=f"declare 'input {atom.relation}/"
                             f"{atom_arity(atom)}.' or fix the name",
                    ))
        live = set()
        changed = True
        while changed:
            changed = False
            for rule_index, rule in enumerate(rules):
                if rule_index in live:
                    continue
                if all(atom.relation in populated for atom in rule.body):
                    live.add(rule_index)
                    changed = True
                    if rule.head.relation not in populated:
                        populated.add(rule.head.relation)
        for rule_index, rule in enumerate(rules):
            if rule_index not in live:
                diags.append(Diagnostic(
                    "ND501", WARNING,
                    f"rule {rule.name} is dead: its body can never be "
                    "fully populated from the declared inputs",
                    rule=rule.name, predicate=rule.head.relation,
                    span=getattr(rule, "span", None),
                    hint="it needs a base case, or an input declaration "
                         "for a body predicate",
                ))

    if outputs and rules:
        useful = set(outputs)
        changed = True
        while changed:
            changed = False
            for rule in rules:
                if rule.head.relation not in useful:
                    continue
                for atom in rule.body:
                    if atom.relation not in useful:
                        useful.add(atom.relation)
                        changed = True
        flagged = set()
        for rule in rules:
            relation = rule.head.relation
            if relation in useful or relation in flagged:
                continue
            flagged.add(relation)
            diags.append(Diagnostic(
                "ND502", WARNING,
                f"'{relation}' (rule {rule.name}) cannot reach any "
                "declared output",
                rule=rule.name, predicate=relation,
                span=getattr(rule, "span", None),
                hint=f"declare 'output {relation}.' or remove the rule",
            ))
        if inputs is not None:
            for relation in sorted(inputs):
                if relation not in useful:
                    diags.append(Diagnostic(
                        "ND505", WARNING,
                        f"declared input '{relation}' is consumed by no "
                        "rule on a path to an output",
                        predicate=relation,
                        hint="drop the declaration or use the input",
                    ))


# ------------------------------------------------------------ entry point


class ProgramAnalysis:
    """The analyzer's full result: diagnostics, strata, SIPS annotations.

    ``strata`` lists relation groups dependencies-first (the evaluation
    order a stratified engine would use); ``sips[i]`` is the tuple of
    per-trigger :class:`SipJoin` schedules for ``rules[i]`` (``None`` for
    aggregate rules).
    """

    def __init__(self, rules, diagnostics, strata, sips):
        self.rules = tuple(rules)
        self.diagnostics = tuple(diagnostics)
        self.strata = strata
        self.sips = sips

    @property
    def errors(self):
        return tuple(d for d in self.diagnostics if d.severity == ERROR)

    @property
    def warnings(self):
        return tuple(d for d in self.diagnostics if d.severity == WARNING)

    @property
    def infos(self):
        return tuple(d for d in self.diagnostics if d.severity == INFO)

    @property
    def ok(self):
        """True when nothing gates execution (no error diagnostics)."""
        return not self.errors

    def by_code(self, code):
        return tuple(d for d in self.diagnostics if d.code == code)

    def raise_if_errors(self):
        if not self.ok:
            raise ProgramAnalysisError(self.errors)
        return self

    def render(self, source=None, filename=None):
        """Human-readable report; with *source*, adds caret excerpts."""
        lines = []
        source_lines = source.splitlines() if source is not None else None
        for diag in self.diagnostics:
            lines.append(diag.format(filename=filename))
            span = diag.span
            if (source_lines is not None and span is not None
                    and 1 <= span.line <= len(source_lines)):
                text = source_lines[span.line - 1]
                lines.append(f"    {text}")
                caret = " " * (span.col - 1) + "^" * max(1, span.length)
                lines.append(f"    {caret}")
            if diag.hint:
                lines.append(f"    hint: {diag.hint}")
        if not self.diagnostics:
            lines.append("clean: no diagnostics")
        return "\n".join(lines)


def _normalize_inputs(inputs):
    if inputs is None:
        return None
    if isinstance(inputs, dict):
        return dict(inputs)
    return {name: None for name in inputs}


def analyze(program_or_rules, inputs=None, outputs=None):
    """Run every pass over a :class:`~repro.datalog.engine.Program` or a
    plain rule list; returns a :class:`ProgramAnalysis`.

    *inputs* (``{relation: arity-or-None}`` or an iterable of names)
    declares the base relations the deployment inserts — enabling the
    closed-world liveness checks — and *outputs* the relations consumed
    outside the program. Both default to the program's own declarations
    (``input r/3.`` / ``output r.`` in parsed text) when present.
    """
    rules = getattr(program_or_rules, "rules", program_or_rules)
    rules = list(rules)
    if inputs is None:
        inputs = getattr(program_or_rules, "declared_inputs", None)
    if outputs is None:
        outputs = getattr(program_or_rules, "declared_outputs", None)
    inputs = _normalize_inputs(inputs)
    outputs = tuple(outputs) if outputs else ()

    diags = []
    unsafe_guards, unsafe_head_vars = _pass_safety(rules, diags)
    _pass_arity(rules, inputs or {}, diags)
    _pass_types(rules, diags)
    strata = _pass_stratification(rules, diags)
    sips = _pass_binding(rules, unsafe_guards, diags)
    _pass_liveness(rules, inputs, outputs, unsafe_head_vars, diags)
    return ProgramAnalysis(rules, diags, strata, sips)
