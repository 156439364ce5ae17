"""Path-vector routing (paper Section 3.1's routing example).

A simplified form of the protocol BGP uses: routes carry the full path, and
a router never accepts a route whose path already contains it (loop
freedom guarantees finite derivations, satisfying the paper's requirement).

Rules:

* **P1** ``route(@X,Y,(X,Y)) ← link(@X,Y)`` — one-hop routes;
* **P2** ``route(@Y,D,(Y,)+P) ← link(@X,Y) ∧ bestRoute(@X,D,P)`` with the
  guard ``Y ∉ P`` — a neighbor extends X's best route (evaluated at X,
  pushed to Y);
* **P3** ``bestRoute(@X,D,min<P>) ← route(@X,D,P)`` — shortest path wins,
  ties broken lexicographically.
"""

from repro.datalog import (
    Var, Expr, Atom, Guard, Rule, AggregateRule, Program, DatalogApp,
)
from repro.model import Tup


def pathvector_program(max_path_len=16):
    X, Y, D, P = Var("X"), Var("Y"), Var("D"), Var("P")
    p1 = Rule(
        "P1",
        head=Atom("route", X, Y,
                  Expr(lambda b: (b["X"], b["Y"]), "(X,Y)", vars=(X, Y))),
        body=[Atom("link", X, Y)],
    )
    p2 = Rule(
        "P2",
        head=Atom("route", Y, D,
                  Expr(lambda b: (b["Y"],) + b["P"], "(Y,)+P",
                       vars=(Y, P))),
        body=[Atom("link", X, Y), Atom("bestRoute", X, D, P)],
        guards=[
            Guard(lambda b: b["Y"] not in b["P"], vars=(Y, P),
                  label="Y not in P"),
            Guard(lambda b: len(b["P"]) < max_path_len, vars=(P,),
                  label="len(P)<max"),
            Guard(lambda b: b["Y"] != b["D"], vars=(Y, D), label="Y!=D"),
        ],
    )
    p3 = AggregateRule(
        "P3",
        head=Atom("bestRoute", X, D, P),
        body=[Atom("route", X, D, P)],
        agg_var=P, func="min",
        key=lambda path: (len(path), path),
    )
    return Program([p1, p2, p3],
                   inputs={"link": 2}, outputs=("bestRoute",))


def build_pathvector_app_factory(max_path_len=16):
    """Registry builder (see :mod:`repro.apps`): compiles the program once
    and returns the plain per-node factory."""
    program = pathvector_program(max_path_len=max_path_len)
    return lambda node_id: DatalogApp(node_id, program)


def pathvector_factory(max_path_len=16):
    from repro.apps import AppFactory
    return AppFactory("pathvector", max_path_len=max_path_len)


def link(x, y):
    return Tup("link", x, y)


def route(x, dest, path):
    return Tup("route", x, dest, tuple(path))


def best_route(x, dest, path):
    return Tup("bestRoute", x, dest, tuple(path))


def build_network(deployment, edges, node_overrides=None):
    """Create nodes for every endpoint in *edges* and insert symmetric
    links, letting the protocol converge between insertions."""
    node_overrides = node_overrides or {}
    factory = pathvector_factory()
    names = sorted({n for pair in edges for n in pair})
    nodes = {}
    for name in names:
        cls = node_overrides.get(name)
        if cls is None:
            nodes[name] = deployment.add_node(name, factory)
        else:
            nodes[name] = deployment.add_node(name, factory, node_cls=cls)
    for x, y in sorted(edges):
        nodes[x].insert(link(x, y))
        deployment.run()
        nodes[y].insert(link(y, x))
        deployment.run()
    return nodes
