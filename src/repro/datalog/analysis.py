"""The load-time gate for NDlog programs.

SNP's guarantees hold only for well-formed programs: an unsafe rule (a
head variable never bound by the body), unstratified aggregation, or a
wrong-arity literal makes the provenance graph ill-defined, so a
micro-query could return an unsound verdict without any node
misbehaving. This module moves those failures to load time. Four passes
over the rule AST (:mod:`repro.datalog.ast`) produce structured
:class:`Diagnostic`\\ s, and every one of them gates:

1. **Safety / range restriction** — every head variable, declared guard
   variable, and declared head-expression input must be bound by a
   positive body literal (ND101/ND102/ND103). A guard or expression that
   declares no read set is not checked; the planner runs it on full
   bindings.
2. **Arity & column types** — each predicate must be used with one arity
   everywhere (rules, declarations) and each column unifies to one value
   type across the program, via union-find over (relation, position)
   slots (ND201/ND202).
3. **Stratification** — a dependency cycle through a non-monotone
   aggregate (sum/count) is rejected (ND301). Recursion through min/max
   is legal. The dialect has no negation construct, so the classic
   negation check is vacuous by construction.
4. **Closed world** — with declared inputs, a body predicate that no
   rule derives and no input declares is rejected (ND504).

``Program.ensure_checked`` (:mod:`repro.datalog.engine`) raises
:class:`ProgramAnalysisError` when any diagnostic is found, and the
engine refuses to run such a program. The analyzer plans nothing: join
schedules are :mod:`repro.datalog.plan`'s.
"""

from repro.datalog.ast import (
    AggregateRule, CHOICE_PREFIX, Expr, Var, atom_arity, atom_var_names,
    guard_vars, term_at,
)
from repro.util.errors import ConfigurationError

#: Diagnostic codes with their one-line meanings (see DESIGN.md).
CODES = {
    "ND101": "head variable not bound by any positive body literal",
    "ND102": "guard variable not bound by any positive body literal",
    "ND103": "head-expression variable not bound by the body",
    "ND201": "predicate used with inconsistent arity",
    "ND202": "column unifies to conflicting value types",
    "ND301": "cycle through a non-monotone aggregate (sum/count)",
    "ND504": "body predicate unknown under the declared inputs",
}


class Diagnostic:
    """One analyzer finding and where it points."""

    __slots__ = ("code", "message", "rule", "predicate", "variable", "span")

    def __init__(self, code, message, rule=None, predicate=None,
                 variable=None, span=None):
        self.code = code
        self.message = message
        self.rule = rule
        self.predicate = predicate
        self.variable = variable
        self.span = span

    def __str__(self):
        where = ""
        if self.span is not None:
            where = f"{self.span.line}:{self.span.col}: "
        return f"{where}{self.code}: {self.message}"

    def __repr__(self):
        return f"Diagnostic({self.code}, {self.message!r})"


class ProgramAnalysisError(ConfigurationError):
    """A program failed static analysis.

    Subclasses :class:`ConfigurationError` so existing "bad program"
    handlers keep working; ``diagnostics`` carries the structured findings.
    """

    def __init__(self, diagnostics):
        self.diagnostics = tuple(diagnostics)
        lines = "\n  ".join(str(d) for d in self.diagnostics)
        super().__init__("program failed static analysis:\n  " + lines)


def _term_span(term, rule):
    span = getattr(term, "span", None)
    return span if span is not None else getattr(rule, "span", None)


# ----------------------------------------------------------------- passes


def _pass_safety(rules, diags):
    """Range restriction (ND101/ND102/ND103)."""
    for rule in rules:
        body_vars = set()
        for atom in rule.body:
            body_vars |= atom_var_names(atom)
        if isinstance(rule, AggregateRule) and rule.func == "count":
            # count<N> *defines* N as the group size; the engine binds it
            # during aggregation, so the head occurrence is safe even
            # though no body literal carries it.
            body_vars.add(rule.agg_var.name)
        head = rule.head
        for position in range(atom_arity(head)):
            term = term_at(head, position)
            if isinstance(term, Var):
                if term.name not in body_vars:
                    diags.append(Diagnostic(
                        "ND101",
                        f"rule {rule.name}: head variable '{term.name}' is "
                        "not bound by any positive body literal",
                        rule=rule.name, predicate=head.relation,
                        variable=term.name, span=_term_span(term, rule),
                    ))
            elif isinstance(term, Expr):
                for name in term.vars or ():
                    if name not in body_vars:
                        diags.append(Diagnostic(
                            "ND103",
                            f"rule {rule.name}: head expression "
                            f"'{term.label}' reads '{name}', which the "
                            "body never binds",
                            rule=rule.name, predicate=head.relation,
                            variable=name, span=_term_span(term, rule),
                        ))
        for guard in rule.guards:
            for name in guard_vars(guard) or ():
                if name not in body_vars:
                    diags.append(Diagnostic(
                        "ND102",
                        f"rule {rule.name}: guard "
                        f"'{getattr(guard, 'label', '<guard>')}' reads "
                        f"'{name}', which the body never binds (the guard "
                        "could never be scheduled)",
                        rule=rule.name, variable=name,
                        span=_term_span(guard, rule),
                    ))


def _pass_arity(rules, inputs, diags):
    seen = {}  # relation -> (arity, description)

    def record(relation, arity, where, span):
        previous = seen.get(relation)
        if previous is None:
            seen[relation] = (arity, where)
            return
        prev_arity, prev_where = previous
        if prev_arity != arity:
            diags.append(Diagnostic(
                "ND201",
                f"'{relation}' used with arity {arity} in {where} but "
                f"arity {prev_arity} in {prev_where} (arity counts the "
                "@location)",
                predicate=relation, span=span,
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

    def conflict(slot, tag, where, prev_tag, prev_where, span):
        key = (slot, frozenset((tag, prev_tag)))
        if key in reported:
            return
        reported.add(key)
        relation, position = slot
        diags.append(Diagnostic(
            "ND202",
            f"'{relation}' column {position} is used as {tag} ({where}) "
            f"but as {prev_tag} ({prev_where})",
            predicate=relation, span=span,
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
    """A sum/count rule whose head reaches one of its own body relations
    closes a dependency cycle through a non-monotone aggregate (ND301):
    its fixpoint is not well-defined. The message names the cycle's
    strongly connected component."""
    edges = {}  # body relation -> {head relations}
    for rule in rules:
        for atom in rule.body:
            edges.setdefault(atom.relation, set()).add(rule.head.relation)

    def reachable(start):
        seen, stack = set(), [start]
        while stack:
            for succ in edges.get(stack.pop(), ()):
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return seen

    for rule in rules:
        if not (isinstance(rule, AggregateRule)
                and rule.func in ("sum", "count")):
            continue
        head = rule.head.relation
        downstream = reachable(head)
        if not any(atom.relation in downstream for atom in rule.body):
            continue
        component = sorted(relation for relation in downstream
                           if head in reachable(relation))
        diags.append(Diagnostic(
            "ND301",
            f"unstratifiable aggregation: {{{', '.join(component)}}} is a "
            f"dependency cycle through the {rule.func} aggregate of rule "
            f"{rule.name}, so the fixpoint is not well-defined",
            rule=rule.name, predicate=head,
            span=getattr(rule, "span", None),
        ))


def _pass_closed_world(rules, inputs, diags):
    """With declared inputs, every body predicate must be derived by a
    rule, declared, or a maybe rule's choice relation (ND504). Without
    them any relation may be populated by base-tuple inserts."""
    if inputs is None:
        return
    known = set(inputs) | {rule.head.relation for rule in rules}
    for rule in rules:
        for atom in rule.body:
            if (atom.relation in known
                    or atom.relation.startswith(CHOICE_PREFIX)):
                continue
            diags.append(Diagnostic(
                "ND504",
                f"rule {rule.name}: body predicate '{atom.relation}' is "
                "neither derived by any rule nor a declared input",
                rule=rule.name, predicate=atom.relation,
                span=_term_span(atom, rule),
            ))


# ------------------------------------------------------------ entry point


def analyze(rules, inputs=None):
    """Run every pass over *rules*; returns the tuple of diagnostics,
    empty when the program may run.

    *inputs* (``{relation: arity-or-None}``) declares the base relations
    the deployment inserts; it enables the closed-world check and the
    declared arities.
    """
    rules = list(rules)
    diags = []
    _pass_safety(rules, diags)
    _pass_arity(rules, inputs or {}, diags)
    _pass_types(rules, diags)
    _pass_stratification(rules, diags)
    _pass_closed_world(rules, inputs, diags)
    return tuple(diags)
