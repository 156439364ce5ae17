"""repro — a reproduction of "Secure Network Provenance" (SOSP 2011).

SNP lets the operator of a distributed system ask *why* the system is in a
given state — and get answers that remain trustworthy even when an
adversary controls an arbitrary subset of the nodes. This package
implements the SNooPy system from the paper: a tamper-evident graph
recorder, deterministic-replay microqueries, and a macroquery processor
over a provenance graph with black/red/yellow trust colors, plus the three
applications the paper evaluates (BGP behind a proxy, a declarative Chord,
and MapReduce with reported provenance).

Start with :mod:`repro.core` for the public API, or run
``examples/quickstart.py``.
"""

from repro.core import (
    Tup, Msg, Ack, Der, Und, Snd, StateMachine, PLUS, MINUS,
    Var, Expr, Atom, Rule, AggregateRule, MaybeRule, choice_tuple,
    Program, DatalogApp,
    ProvenanceGraph, GraphConstructor, Event, Vertex, Color,
    Deployment, SNooPyNode, MicroQuerier, QueryProcessor, QueryResult,
)

__version__ = "0.8.0"

__all__ = [
    "Tup", "Msg", "Ack", "Der", "Und", "Snd", "StateMachine",
    "PLUS", "MINUS",
    "Var", "Expr", "Atom", "Rule", "AggregateRule", "MaybeRule",
    "choice_tuple", "Program", "DatalogApp",
    "ProvenanceGraph", "GraphConstructor", "Event", "Vertex", "Color",
    "Deployment", "SNooPyNode", "MicroQuerier", "QueryProcessor",
    "QueryResult",
    "__version__",
]
