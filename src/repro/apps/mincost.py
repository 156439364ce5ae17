"""MinCost routing — the paper's running example (Section 3.3).

Five routers connected by weighted links; each finds its lowest-cost path
to every destination. Three rules:

* **R1** — a router knows the cost of its direct links:
  ``cost(@X,Y,Y,K) ← link(@X,Y,K)``
* **R2** — it learns advertised routes from neighbors:
  ``cost(@C,D,X,K1+K2) ← link(@X,C,K1) ∧ bestCost(@X,D,K2)``
  (evaluated at X; the head lives at the neighbor C, so X pushes the
  derived tuple to C — exactly the ``cost(@c,d,b,5)`` flow of Figure 2)
* **R3** — it picks the cheapest known path:
  ``bestCost(@X,D,min<K>) ← cost(@X,D,Z,K)``

A ``max_cost`` guard bounds derivations (the paper requires all derivations
to be finite; without the bound, link deletions could count to infinity).
"""

from repro.datalog import (
    Var, Expr, Atom, Guard, Rule, AggregateRule, Program, DatalogApp,
)
from repro.model import Tup

#: The link costs of the example network in Section 3.3's figure.
PAPER_TOPOLOGY = {
    ("a", "b"): 6,
    ("a", "e"): 3,
    ("a", "d"): 10,
    ("b", "c"): 2,
    ("b", "d"): 3,
    ("c", "d"): 5,
    ("d", "e"): 5,
    ("c", "e"): 1,
}


def mincost_program(max_cost=255):
    """Build the three-rule MinCost program."""
    X, Y, Z, K, K1, K2, C, D = (Var(n) for n in
                                ("X", "Y", "_Z", "K", "K1", "K2", "C", "D"))
    r1 = Rule(
        "R1",
        head=Atom("cost", X, Y, Y, K),
        body=[Atom("link", X, Y, K)],
    )
    r2 = Rule(
        "R2",
        head=Atom("cost", C, D, X,
                  Expr(lambda b: b["K1"] + b["K2"], "K1+K2",
                       vars=(K1, K2))),
        body=[Atom("link", X, C, K1), Atom("bestCost", X, D, K2)],
        guards=[
            Guard(lambda b: b["C"] != b["D"], vars=(C, D), label="C!=D"),
            Guard(lambda b: b["K1"] + b["K2"] <= max_cost,
                  vars=(K1, K2), label="K1+K2<=max"),
        ],
    )
    r3 = AggregateRule(
        "R3",
        head=Atom("bestCost", X, D, K),
        body=[Atom("cost", X, D, Z, K)],
        agg_var=K, func="min",
    )
    return Program([r1, r2, r3], inputs={"link": 3})


def build_mincost_app_factory(max_cost=255):
    """Registry builder (see :mod:`repro.apps`): compiles the program once
    and returns the plain per-node factory."""
    program = mincost_program(max_cost=max_cost)
    return lambda node_id: DatalogApp(node_id, program)


def mincost_factory(max_cost=255):
    """State-machine factory usable with Deployment.add_node."""
    from repro.apps import AppFactory
    return AppFactory("mincost", max_cost=max_cost)


def link(x, y, cost):
    """The base tuple ``link(@x, y, cost)``."""
    return Tup("link", x, y, cost)


def best_cost(x, dest, cost):
    """The derived tuple ``bestCost(@x, dest, cost)``."""
    return Tup("bestCost", x, dest, cost)


def cost(x, dest, via, k):
    return Tup("cost", x, dest, via, k)


def build_paper_network(deployment, topology=None, node_cls=None,
                        node_overrides=None):
    """Create the five-router network and insert its links.

    *node_overrides* maps node ids to SNooPyNode subclasses (adversaries).
    Links are inserted in both directions (the paper assumes symmetric
    links). Returns the node dict. Call ``deployment.run()`` afterwards to
    let the protocol converge.
    """
    topology = PAPER_TOPOLOGY if topology is None else topology
    node_overrides = node_overrides or {}
    factory = mincost_factory()
    names = sorted({n for pair in topology for n in pair})
    nodes = {}
    for name in names:
        cls = node_overrides.get(name)
        if cls is None:
            nodes[name] = deployment.add_node(name, factory)
        else:
            nodes[name] = deployment.add_node(name, factory, node_cls=cls)
    for (x, y), k in sorted(topology.items()):
        nodes[x].insert(link(x, y, k))
        deployment.run()
        nodes[y].insert(link(y, x, k))
        deployment.run()
    return nodes
