"""A text parser for the rule DSL (DDlog-style surface syntax).

The paper's prototype expresses programs in Distributed Datalog. This
parser accepts a compact textual form and produces a :class:`Program`:

    # MinCost (paper Section 3.3)
    input link/3.
    R1: cost(@X, Y, Y, K) :- link(@X, Y, K).
    R2: cost(@C, D, X, K1+K2) :- link(@X, C, K1), bestCost(@X, D, K2),
        C != D.
    R3: bestCost(@X, D, min<K>) :- cost(@X, D, Z, K).

Syntax:

* ``Name: head :- body.`` — one rule per ``.``-terminated clause; ``#``
  starts a comment.
* Identifiers starting with an upper-case letter or ``_`` are variables
  (a leading ``_`` marks an intentional wildcard);
  quoted strings and numerals are constants; the first argument of every
  atom must be the ``@location``.
* Head arguments may be arithmetic expressions over variables
  (``K1+K2``, ``K*2``); they compile to :class:`Expr`.
* Comparisons in the body (``X != Y``, ``K < 10``) become guards.
* ``min<K>`` / ``max<K>`` / ``sum<K>`` / ``count<K>`` in the head makes
  the rule an :class:`AggregateRule`.
* ``:~`` instead of ``:-`` declares a :class:`MaybeRule`.
* ``input link/3.`` declares a base relation (with its arity, counting
  the @location; the arity is optional). The declarations feed the
  analyzer's closed-world check, so ``input`` is a reserved word at
  clause starts.

Every AST node is built with a :class:`~repro.datalog.ast.Span` (line,
column, rule index), so parse errors and analyzer diagnostics point at
real source locations. :func:`parse_program` always runs the static
analyzer's gate (:mod:`repro.datalog.analysis`).
"""

import re

from repro.datalog.ast import (
    AggregateRule, Atom, Expr, Guard, MaybeRule, Rule, Span, Var,
)
from repro.datalog.engine import Program
from repro.util.errors import ParseError

_TOKEN = re.compile(r"""
      (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<number>-?\d+(\.\d+)?)
    | (?P<string>'[^']*'|"[^\"]*")
    | (?P<op><=|>=|!=|==|:-|:~|[-+*/(),.@<>:])
    | (?P<ws>\s+)
""", re.VERBOSE)

_COMPARE_OPS = {"<", ">", "<=", ">=", "!=", "=="}
_AGG_FUNCS = ("min", "max", "sum", "count")


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col

    def span(self, rule_index=None):
        return Span(self.line, self.col, length=max(1, len(self.value)),
                    rule_index=rule_index)


_EOF = _Token(None, "", 0, 0)


def _tokenize(text):
    tokens = []
    position = 0
    line = 1
    line_start = 0
    while position < len(text):
        match = _TOKEN.match(text, position)
        if match is None:
            raise ParseError(
                f"rule syntax error at {text[position:position + 20]!r}",
                line=line, col=position - line_start + 1,
            )
        if match.lastgroup == "ws":
            chunk = match.group()
            newlines = chunk.count("\n")
            if newlines:
                line += newlines
                line_start = position + chunk.rindex("\n") + 1
        else:
            tokens.append(_Token(match.lastgroup, match.group(), line,
                                 position - line_start + 1))
        position = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.position = 0
        self.rule_index = 0

    def peek(self, offset=0):
        index = self.position + offset
        return self.tokens[index] if index < len(self.tokens) else _EOF

    def take(self, expected=None):
        token = self.peek()
        if token.kind is None:
            last = self.tokens[-1] if self.tokens else _EOF
            raise ParseError("unexpected end of rule",
                             line=last.line or None, col=last.col or None)
        if expected is not None and token.value != expected:
            raise ParseError(
                f"expected {expected!r}, got {token.value!r}",
                line=token.line, col=token.col,
            )
        self.position += 1
        return token

    def at_end(self):
        return self.position >= len(self.tokens)

    def span(self, token):
        return token.span(rule_index=self.rule_index)

    # --------------------------------------------------------- components

    def parse_declaration(self):
        """``input name/arity.`` or ``input name.`` → (name, arity)."""
        self.take("input")
        name_token = self.take()
        if name_token.kind != "name":
            raise ParseError(
                "expected a relation name after 'input', got "
                f"{name_token.value!r}",
                line=name_token.line, col=name_token.col,
            )
        arity = None
        if self.peek().value == "/":
            self.take("/")
            arity_token = self.take()
            if arity_token.kind != "number" or "." in arity_token.value:
                raise ParseError(
                    f"expected an integer arity, got {arity_token.value!r}",
                    line=arity_token.line, col=arity_token.col,
                )
            arity = int(arity_token.value)
        self.take(".")
        return name_token.value, arity

    def parse_rule(self):
        name_token = self.take()
        name = name_token.value
        rule_span = self.span(name_token)
        self.take(":")
        head, agg = self.parse_atom(allow_expr=True, allow_agg=True)
        arrow_token = self.take()
        arrow = arrow_token.value
        if arrow not in (":-", ":~"):
            raise ParseError(f"expected ':-' or ':~', got {arrow!r}",
                             line=arrow_token.line, col=arrow_token.col)
        body = []
        guards = []
        while True:
            if self.peek().value == ".":
                self.take(".")
                break
            if self._next_is_comparison():
                guards.append(self.parse_comparison())
            else:
                atom, body_agg = self.parse_atom()
                if body_agg is not None:
                    raise ParseError(
                        f"rule {name}: aggregates are head-only",
                        line=atom.span.line, col=atom.span.col,
                    )
                body.append(atom)
            if self.peek().value == ",":
                self.take(",")
        self.rule_index += 1
        if agg is not None:
            func, agg_var = agg
            if arrow == ":~":
                raise ParseError(
                    f"rule {name}: a maybe rule cannot aggregate",
                    line=rule_span.line, col=rule_span.col,
                )
            return AggregateRule(name, head, body, agg_var=agg_var,
                                 func=func, guards=tuple(guards),
                                 span=rule_span)
        if arrow == ":~":
            return MaybeRule(name, head, body, guards=tuple(guards),
                             span=rule_span)
        return Rule(name, head, body, guards=tuple(guards), span=rule_span)

    def _next_is_comparison(self):
        """A comparison clause starts with a term followed by a compare op
        (an atom starts with name + '(')."""
        token = self.peek()
        if token.kind == "name" and self.peek(1).value == "(":
            return False
        return True

    def parse_atom(self, allow_expr=True, allow_agg=False):
        relation_token = self.take()
        relation = relation_token.value
        atom_span = self.span(relation_token)
        self.take("(")
        self.take("@")
        loc = self.parse_term(allow_expr=False)
        terms = []
        agg = None
        while self.peek().value != ")":
            self.take(",")
            token = self.peek()
            if (allow_agg and token.kind == "name"
                    and token.value in _AGG_FUNCS
                    and self.peek(1).value == "<"):
                func_token = self.take()          # func
                self.take("<")
                var_token = self.take()
                self.take(">")
                agg_var = Var(var_token.value, span=self.span(var_token))
                agg = (func_token.value, agg_var)
                terms.append(agg_var)
            else:
                terms.append(self.parse_term(allow_expr=allow_expr))
        self.take(")")
        return Atom(relation, loc, *terms, span=atom_span), agg

    def parse_term(self, allow_expr=True):
        """A term: constant, variable, or (head-only) arithmetic over
        variables and constants."""
        first_token = self.peek()
        expr_tokens = [self.parse_operand()]
        while allow_expr and self.peek().value in ("+", "-", "*", "/"):
            expr_tokens.append(self.take().value)
            expr_tokens.append(self.parse_operand())
        if len(expr_tokens) == 1:
            return expr_tokens[0]
        return _compile_expression(expr_tokens, span=self.span(first_token))

    def parse_operand(self):
        token = self.take()
        kind, value = token.kind, token.value
        if kind == "number":
            return float(value) if "." in value else int(value)
        if kind == "string":
            return value[1:-1]
        if kind == "name":
            if value[0].isupper() or value[0] == "_":
                return Var(value, span=self.span(token))
            return value  # lower-case bare word: a constant symbol
        raise ParseError(f"unexpected token {value!r} in term",
                         line=token.line, col=token.col)

    def parse_comparison(self):
        first_token = self.peek()
        left = self.parse_term()
        op_token = self.take()
        op = op_token.value
        if op not in _COMPARE_OPS:
            raise ParseError(f"expected comparison, got {op!r}",
                             line=op_token.line, col=op_token.col)
        right = self.parse_term()
        return _compile_guard(left, op, right, span=self.span(first_token))


def _value_of(term, bindings):
    if isinstance(term, Var):
        return bindings[term.name]
    if isinstance(term, Expr):
        return term.evaluate(bindings)
    return term


def _compile_expression(parts, span=None):
    """Fold [operand, op, operand, ...] left to right into an Expr."""
    label = "".join(
        part if isinstance(part, str) else repr(part) for part in parts
    )
    var_names = tuple(
        part.name for part in parts if isinstance(part, Var)
    )

    def evaluate(bindings):
        accumulator = _value_of(parts[0], bindings)
        index = 1
        while index < len(parts):
            op = parts[index]
            value = _value_of(parts[index + 1], bindings)
            if op == "+":
                accumulator = accumulator + value
            elif op == "-":
                accumulator = accumulator - value
            elif op == "*":
                accumulator = accumulator * value
            else:
                accumulator = accumulator / value
            index += 2
        return accumulator

    return Expr(evaluate, label, vars=var_names, span=span)


def _term_vars(term):
    """Variable names a comparison side reads (None when unknown)."""
    if isinstance(term, Var):
        return (term.name,)
    if isinstance(term, Expr):
        return term.vars
    return ()


def _compile_guard(left, op, right, span=None):
    import operator
    fn = {
        "<": operator.lt, ">": operator.gt, "<=": operator.le,
        ">=": operator.ge, "!=": operator.ne, "==": operator.eq,
    }[op]

    def guard(bindings):
        return fn(_value_of(left, bindings), _value_of(right, bindings))

    left_vars = _term_vars(left)
    right_vars = _term_vars(right)
    declared = (
        None if left_vars is None or right_vars is None
        else left_vars + right_vars
    )
    return Guard(guard, vars=declared, label=f"{left!r}{op}{right!r}",
                 span=span)


def _strip_comments(text):
    return "\n".join(
        line.split("#", 1)[0] for line in text.splitlines()
    )


def _parse(text):
    """(rules, inputs) from program text."""
    parser = _Parser(_tokenize(_strip_comments(text)))
    rules = []
    inputs = {}
    while not parser.at_end():
        token = parser.peek()
        if token.value == "input" and parser.peek(1).kind == "name":
            name, arity = parser.parse_declaration()
            inputs[name] = arity
        else:
            rules.append(parser.parse_rule())
    return rules, inputs


def parse_rules(text):
    """Parse a program text into a list of rules."""
    return _parse(text)[0]


def parse_program(text):
    """Parse a program text into a :class:`Program` that passed the
    static analyzer, else raise
    :class:`~repro.datalog.analysis.ProgramAnalysisError`."""
    rules, inputs = _parse(text)
    program = Program(rules, inputs=inputs or None)
    program.ensure_checked()
    return program
