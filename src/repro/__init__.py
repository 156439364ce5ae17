"""repro — a reproduction of "Secure Network Provenance" (SOSP 2011).

SNP lets the operator of a distributed system ask *why* the system is in a
given state — and get answers that remain trustworthy even when an
adversary controls an arbitrary subset of the nodes. This package
implements the SNooPy system from the paper: a tamper-evident graph
recorder, deterministic-replay microqueries, and a macroquery processor
over a provenance graph with black/red/yellow trust colors, plus the three
applications the paper evaluates (BGP behind a proxy, a declarative Chord,
and MapReduce with reported provenance).

Typical usage (or run ``examples/quickstart.py``)::

    from repro import Deployment, QueryProcessor, Tup

    dep = Deployment(seed=1)
    dep.add_node("r1", my_app_factory)
    ...
    dep.run()
    qp = QueryProcessor(dep)
    result = qp.why(Tup("route", "r1", "10.0.0.0/8"), scope=5)
    print(result.pretty())
    if result.faulty_nodes():
        print("compromised:", result.faulty_nodes())

Layer map (see DESIGN.md):

* model vocabulary: :class:`Tup`, :class:`Msg`, :class:`Ack`,
  :class:`StateMachine` and its outputs :class:`Der`/:class:`Und`/
  :class:`Snd`;
* the provenance graph and GCA: :class:`ProvenanceGraph`,
  :class:`GraphConstructor`, :class:`Vertex`, :class:`Color`;
* the secure layer: :class:`Deployment`, :class:`SNooPyNode`,
  :class:`MicroQuerier`, :class:`QueryProcessor`;
* the Datalog substrate for building primary systems:
  :class:`Program`, :class:`DatalogApp`, :class:`Rule`,
  :class:`AggregateRule`, :class:`MaybeRule`, :class:`Atom`,
  :class:`Var`, :class:`Expr`.
"""

from repro.model import (
    Tup, Msg, Ack, Der, Und, Snd, StateMachine, PLUS, MINUS,
)
from repro.datalog import (
    Var, Expr, Atom, Rule, AggregateRule, MaybeRule, choice_tuple,
    Program, DatalogApp,
)
from repro.provgraph import (
    ProvenanceGraph, GraphConstructor, Event, Vertex, Color,
)
from repro.snp import Deployment, SNooPyNode, MicroQuerier, QueryProcessor
from repro.snp.query import QueryResult

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
