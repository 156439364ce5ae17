"""Distributed Datalog (DDlog/ExSPAN-style) engine.

The paper's primary systems are modeled as tuples plus derivation rules
(Section 3.1): ``τ@n ← τ1@n1 ∧ … ∧ τk@nk``. This package provides:

* :mod:`repro.datalog.ast` — an embedded rule DSL (variables, guards, head
  expressions, aggregate and ``maybe`` rules);
* :mod:`repro.datalog.analysis` — ndlint, the five-pass static analyzer
  (safety, arity/types, stratification, SIPS binding order, liveness)
  whose error diagnostics gate every program before it runs;
* :mod:`repro.datalog.store` — per-node tuple storage with derivation
  refcounts and believed remote tuples;
* :mod:`repro.datalog.plan` — the rule compiler: at ``Program.add`` time
  every rule becomes an indexed :class:`~repro.datalog.plan.JoinPlan`
  (deterministic body ordering per trigger position, precomputed index
  keys, earliest-step guard schedule);
* :mod:`repro.datalog.engine` — :class:`DatalogApp`, a deterministic
  :class:`repro.model.StateMachine` that incrementally maintains derivations
  by executing the compiled plans over the store's secondary indexes
  (delta-lifted joins, incrementally maintained aggregate-group
  membership) and emits ``+τ/−τ`` notifications for rules whose head
  lives on another node — the production engine for recording and
  replay. Its scan-based reference evaluator, which the property tests
  hold it to, lives with them (``tests/naive.py``).

Rules follow the standard declarative-networking localization convention:
every body atom of a rule shares one location term, which is bound to the
evaluating node; the head's location may name a different node, in which
case the derived tuple is pushed there with an update message (exactly the
structure of Figure 2 in the paper, where node b derives ``cost(@c,d,b,5)``
and sends it to c).
"""

from repro.datalog.analysis import (
    Diagnostic, ProgramAnalysis, ProgramAnalysisError, analyze,
)
from repro.datalog.ast import (
    Var, Expr, Atom, Guard, Rule, AggregateRule, MaybeRule, Span,
    choice_tuple,
)
from repro.datalog.engine import DatalogApp, Program
from repro.datalog.parser import ParseError, parse_program

__all__ = [
    "Var",
    "Expr",
    "Atom",
    "Guard",
    "Rule",
    "AggregateRule",
    "MaybeRule",
    "Span",
    "choice_tuple",
    "DatalogApp",
    "Program",
    "Diagnostic",
    "ProgramAnalysis",
    "ProgramAnalysisError",
    "analyze",
    "ParseError",
    "parse_program",
]
