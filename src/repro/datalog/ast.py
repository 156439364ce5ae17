"""Embedded DSL for derivation rules.

Rules are constructed programmatically (there is no text parser; programs
are small and a Python DSL keeps them type-checked):

    X, Y, K = Var("X"), Var("Y"), Var("K")
    r1 = Rule(
        "R1",
        head=Atom("cost", X, Y, Y, K),
        body=[Atom("link", X, Y, K)],
    )

The first term of every atom is its location (the ``@`` argument). All body
atoms of one rule must share the same location term; the head location may
differ (a remote-headed rule, which makes the engine send ``+τ/−τ``
notifications to the head's node).
"""

from repro.model import Tup
from repro.util.errors import ConfigurationError


class Span:
    """A source location: 1-based line/column plus the rule's index.

    The text parser attaches one to every AST node it builds so analyzer
    diagnostics (:mod:`repro.datalog.analysis`) and parse errors can point
    at real source locations; DSL-built nodes carry ``span=None``.
    """

    __slots__ = ("line", "col", "length", "rule_index")

    def __init__(self, line, col, length=1, rule_index=None):
        self.line = line
        self.col = col
        self.length = length
        self.rule_index = rule_index

    def __repr__(self):
        return f"Span({self.line}:{self.col})"

    def __eq__(self, other):
        return (isinstance(other, Span)
                and (self.line, self.col, self.length, self.rule_index)
                == (other.line, other.col, other.length, other.rule_index))

    def __hash__(self):
        return hash((self.line, self.col, self.length, self.rule_index))


class Var:
    """A rule variable, matched by unification.

    Equality and hashing are by name only; *span* (when the variable came
    from parsed text) records the occurrence's source location.
    """

    __slots__ = ("name", "span")

    def __init__(self, name, span=None):
        self.name = name
        self.span = span

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, Var) and self.name == other.name

    def __hash__(self):
        return hash(("var", self.name))


class Expr:
    """A computed head term: a pure function of the bound variables.

    ``Expr(lambda b: b["K1"] + b["K2"], "K1+K2")`` — the label is only used
    for display. Expressions must be deterministic and side-effect free
    (assumption 6 in the paper: node computation is deterministic).
    *vars* optionally declares the variables the function reads (the text
    parser fills it in so comparison guards over expressions can be
    scheduled early; None = unknown).
    """

    __slots__ = ("fn", "label", "vars", "span")

    def __init__(self, fn, label="<expr>", vars=None, span=None):
        self.fn = fn
        self.label = label
        self.vars = None if vars is None else tuple(
            v.name if isinstance(v, Var) else v for v in vars
        )
        self.span = span

    def __repr__(self):
        return self.label

    def evaluate(self, bindings):
        return self.fn(bindings)


class Guard:
    """A guard predicate with declared variable dependencies.

    ``Guard(lambda b: b["C"] != b["D"], vars=("C", "D"))`` — *vars* names
    every binding the predicate reads, which lets the plan compiler fire
    the guard at the earliest join step where those variables are bound
    (pruning partial matches instead of full cross products). The
    predicate must be pure and deterministic, and must not read bindings
    outside *vars*. ``vars=None`` (and any plain callable used as a guard)
    means the read set is unknown, so the guard only runs once the body is
    fully bound.
    """

    __slots__ = ("fn", "vars", "label", "span")

    def __init__(self, fn, vars=None, label="<guard>", span=None):
        self.fn = fn
        self.vars = None if vars is None else tuple(
            v.name if isinstance(v, Var) else v for v in vars
        )
        self.label = label
        self.span = span

    def __call__(self, bindings):
        return self.fn(bindings)

    def __repr__(self):
        shown = "?" if self.vars is None else ", ".join(self.vars)
        return f"Guard({self.label}: {shown})"


def guard_vars(guard):
    """Declared variable names of *guard*, or None when unknown.

    None means the guard is an opaque callable (or an undeclared Guard)
    that may read any binding, so it can only be scheduled after the body
    is fully bound.
    """
    return guard.vars if isinstance(guard, Guard) else None


class Atom:
    """A relation pattern: ``relation(@loc_term, *terms)``.

    Terms may be :class:`Var`, constants, or (in heads only) :class:`Expr`.
    The constructor precomputes the two recipes the engine runs: the
    unify recipe :meth:`match` follows (per position, a constant to
    compare or a variable to check or bind) and the instantiate recipe
    :meth:`instantiate` follows (per position, a variable to read, an
    expression to evaluate or a constant).
    """

    __slots__ = ("relation", "loc", "terms", "span", "_unify", "_build")

    def __init__(self, relation, loc, *terms, span=None):
        self.relation = relation
        self.loc = loc
        self.terms = tuple(terms)
        self.span = span
        unify = []
        build = []
        for index, term in enumerate((loc,) + self.terms):
            if isinstance(term, Var):
                if unify is not None:
                    unify.append((index - 1, True, term.name))
                build.append((_READ, term.name))
            elif isinstance(term, Expr):
                unify = None  # expressions are head-only: never matches
                build.append((_EVAL, term.evaluate))
            else:
                if unify is not None:
                    unify.append((index - 1, False, term))
                build.append((_CONST, term))
        self._unify = None if unify is None else tuple(unify)
        self._build = tuple(build)

    def __repr__(self):
        inner = ", ".join([f"@{self.loc!r}"] + [repr(t) for t in self.terms])
        return f"{self.relation}({inner})"

    def match(self, tup, bindings):
        """Unify this atom against *tup* given existing *bindings*.

        Returns the extended bindings dict, or None on mismatch. Does not
        mutate *bindings*.
        """
        args = tup.args
        unify = self._unify
        if (tup.relation != self.relation or len(args) != len(self.terms)
                or unify is None):
            return None
        new = dict(bindings)
        for index, is_var, term in unify:
            # index -1 is the location; the others index args.
            value = args[index] if index >= 0 else tup.loc
            if is_var:
                bound = new.get(term, _FREE)
                if bound is _FREE:
                    new[term] = value
                elif bound != value:
                    return None
            elif term != value:
                return None
        return new

    def instantiate(self, bindings):
        """Build a ground :class:`Tup` from *bindings* (head atoms)."""
        values = []
        try:
            for kind, term in self._build:
                if kind is _READ:
                    values.append(bindings[term])
                elif kind is _EVAL:
                    values.append(term(bindings))
                else:
                    values.append(term)
        except KeyError:
            missing = [term for kind, term in self._build
                       if kind is _READ and term not in bindings]
            if not missing:
                raise
            raise ConfigurationError(
                f"unbound head variable {missing[0]} in {self!r}"
            ) from None
        return Tup(self.relation, *values)


#: Kinds of an :class:`Atom`'s instantiate recipe, and the mark of a
#: variable the bindings do not hold yet.
_READ, _EVAL, _CONST = "read", "eval", "const"
_FREE = object()


def atom_arity(atom):
    """Arity of *atom*, counting the ``@`` location."""
    return 1 + len(atom.terms)


def term_at(atom, position):
    """The term at 0-based *position* over ``(loc,) + terms``."""
    return atom.loc if position == 0 else atom.terms[position - 1]


def atom_var_names(atom):
    """The variable names an atom binds when matched."""
    return {
        term.name
        for term in (atom.loc,) + atom.terms
        if isinstance(term, Var)
    }


def _check_colocated(name, body):
    if not body:
        raise ConfigurationError(f"rule {name}: empty body")
    loc = body[0].loc
    for atom in body[1:]:
        if atom.loc != loc:
            raise ConfigurationError(
                f"rule {name}: body atoms must share one location term "
                f"(localization convention); got {body[0]!r} vs {atom!r}"
            )
    return loc


class Rule:
    """An ordinary derivation rule ``head ← body [where guards]``.

    *guards* is a list of predicates over the bindings dict, evaluated after
    the body is fully bound; a binding only derives the head if every guard
    returns True. Guards must be pure and deterministic.
    """

    kind = "rule"

    def __init__(self, name, head, body, guards=(), span=None):
        self.name = name
        self.head = head
        self.body = list(body)
        self.guards = tuple(guards)
        self.body_loc = _check_colocated(name, self.body)
        self.span = span

    def __repr__(self):
        return f"Rule({self.name}: {self.head!r} :- {self.body!r})"


class AggregateRule:
    """An aggregate rule, e.g. ``bestCost(@X,Y,min<K>) ← cost(@X,Y,Z,K)``.

    The head contains exactly one :class:`Agg` marker term produced by the
    ``agg`` argument: ``AggregateRule("R3", head=Atom("bestCost", X, Y, K),
    body=[Atom("cost", X, Y, Z, K)], agg_var=K, func="min")``. Group keys are
    the head's non-aggregated variables. Supported functions: min, max, sum,
    count. For min/max the reported provenance support is the single witness
    tuple achieving the optimum (deterministic tie-break); for sum/count it
    is the full group.
    """

    kind = "aggregate"
    FUNCS = ("min", "max", "sum", "count")

    def __init__(self, name, head, body, agg_var, func, guards=(), key=None,
                 span=None):
        if func not in self.FUNCS:
            raise ConfigurationError(f"rule {name}: unknown aggregate {func}")
        self.span = span
        #: Optional comparison key for min/max (e.g. shortest-path-first for
        #: path vectors); must be pure and deterministic.
        self.key = key
        if len(body) != 1:
            raise ConfigurationError(
                f"rule {name}: aggregate rules take exactly one body atom"
            )
        self.name = name
        self.head = head
        self.body = list(body)
        self.agg_var = agg_var
        self.func = func
        self.guards = tuple(guards)
        self.body_loc = _check_colocated(name, self.body)
        head_vars = [t for t in (head.loc,) + head.terms if isinstance(t, Var)]
        if agg_var not in head_vars:
            raise ConfigurationError(
                f"rule {name}: aggregate variable {agg_var} must appear in head"
            )
        self.group_vars = tuple(v for v in head_vars if v != agg_var)

    def __repr__(self):
        return (
            f"AggregateRule({self.name}: {self.head!r} :- "
            f"{self.func}<{self.agg_var!r}> {self.body!r})"
        )


CHOICE_PREFIX = "__choice__"


def choice_tuple(rule_name, node, *args):
    """The choice token that activates a :class:`MaybeRule` binding.

    Per Appendix A.1 of the paper, a maybe rule is equivalent to an ordinary
    rule with an extra base tuple β that the node inserts or deletes when it
    decides to (stop) deriving the head. This constructs that β for the given
    head argument values.
    """
    return Tup(CHOICE_PREFIX + rule_name, node, *args)


class MaybeRule:
    """A 'maybe' rule (Section 3.4): derivation is at the node's discretion.

    The engine adds a hidden body atom — the choice token over the head's
    argument terms — so the head is derived exactly while both the body holds
    *and* the node has inserted the matching :func:`choice_tuple`. The token
    shows up in provenance as a base-tuple insert, which is the paper's
    intended meaning: the node's (possibly confidential or black-box)
    decision is itself a root cause.
    """

    kind = "maybe"

    def __init__(self, name, head, body, guards=(), span=None):
        self.name = name
        self.head = head
        self.guards = tuple(guards)
        self.span = span
        head_terms = (head.loc,) + head.terms
        for term in head_terms:
            if isinstance(term, Expr):
                raise ConfigurationError(
                    f"maybe rule {name}: head expressions unsupported "
                    "(the choice token must mirror head terms)"
                )
        token_atom = Atom(CHOICE_PREFIX + name, *head_terms)
        self.body = list(body) + [token_atom]
        self.body_loc = _check_colocated(name, self.body)

    def __repr__(self):
        return f"MaybeRule({self.name}: {self.head!r} maybe:- {self.body!r})"
