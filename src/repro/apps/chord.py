"""A declarative Chord DHT (paper Section 6.1).

The paper's first application is a declarative Chord running on RapidNet,
with provenance *inferred* automatically from the rules (extraction method
#1). This module implements Chord as a Datalog program over this library's
engine, covering:

* successor/predecessor selection over the known-node set (ring distance
  minimization);
* finger entries (one per power-of-two offset, seeded by ``fingerIndex``
  base tuples);
* gossip-based stabilization driven by periodic tick base tuples — each
  tick re-derives per-tick ``ping`` tuples toward the successor (keep-alive
  traffic) and pushes ``shareNode`` facts that extend the neighborhood's
  knowledge;
* iterative lookups: a ``lookup`` tuple hops node to node, each hop picking
  the known node that minimizes the remaining ring distance to the key
  (strictly decreasing, so lookups terminate), and resolving to a
  ``lookupResult`` at the requester when the key falls in the current
  node's (id, successor-id] arc.

The Eclipse attack of Section 7.2 is modeled in two flavors:
``poison_known_nodes`` (the attacker lies about its *inputs*, inserting
bogus knownNode base tuples — undetectable automatically, but the
provenance query exposes the attacker as the root of the poisoned finger)
and fabricated ``lookupResult`` messages via
:class:`repro.snp.adversary.FabricatorNode` (detected: red send vertex).
"""

from repro.datalog import (
    Var, Expr, Atom, Guard, Rule, AggregateRule, Program, DatalogApp,
)
from repro.model import Tup


def ring_distance(a, b, ring_bits):
    """Clockwise distance from id *a* to id *b* on the 2^ring_bits ring."""
    return (b - a) % (1 << ring_bits)


def in_halfopen_arc(key, left, right, ring_bits):
    """True iff *key* lies in the half-open ring arc (left, right].

    The left endpoint is excluded: a key equal to a node's own id is owned
    by that node, not by its successor (Chord's successor(k) is the first
    node with id ≥ k).
    """
    if left == right:
        return True  # a single-node ring owns everything
    distance = ring_distance(left, key, ring_bits)
    return 0 < distance <= ring_distance(left, right, ring_bits)


def chord_program(ring_bits=16):
    """Build the Chord rule set for a 2^ring_bits identifier ring."""
    size = 1 << ring_bits
    N, Id, M, MId, S, SId, D = (Var(v) for v in
                                ("N", "Id", "M", "MId", "S", "SId", "D"))
    K, R, Q, T, J, Off, P = (Var(v) for v in
                             ("K", "R", "Q", "T", "J", "Off", "P"))
    # Leading-underscore variables mark intentional wildcards for ndlint
    # (each occurs at most once per rule, so no accidental self-joins).
    _M, _MId, _S, _SId, _R = (Var(v) for v in
                              ("_M", "_MId", "_S", "_SId", "_R"))

    def dist(b):
        return (b["MId"] - b["Id"]) % size

    # --- successor selection -------------------------------------------------
    succ_cand = Rule(
        "SC",
        head=Atom("succCand", N, M, MId,
                  Expr(dist, "dist(Id,MId)", vars=(Id, MId))),
        body=[Atom("knownNode", N, M, MId), Atom("node", N, Id)],
        guards=[Guard(lambda b: b["M"] != b["N"], vars=(M, N),
                      label="M!=N")],
    )
    succ_dist = AggregateRule(
        "SD",
        head=Atom("succDist", N, D),
        body=[Atom("succCand", N, _M, _MId, D)],
        agg_var=D, func="min",
    )
    succ = Rule(
        "S1",
        head=Atom("succ", N, M, MId),
        body=[Atom("succCand", N, M, MId, D), Atom("succDist", N, D)],
    )

    # --- predecessor ---------------------------------------------------------
    pred_cand = Rule(
        "PC",
        head=Atom("predCand", N, M, MId,
                  Expr(lambda b: (b["Id"] - b["MId"]) % size, "dist(MId,Id)",
                       vars=(Id, MId))),
        body=[Atom("knownNode", N, M, MId), Atom("node", N, Id)],
        guards=[Guard(lambda b: b["M"] != b["N"], vars=(M, N),
                      label="M!=N")],
    )
    pred_dist = AggregateRule(
        "PD",
        head=Atom("predDist", N, D),
        body=[Atom("predCand", N, _M, _MId, D)],
        agg_var=D, func="min",
    )
    pred = Rule(
        "P1",
        head=Atom("pred", N, M, MId),
        body=[Atom("predCand", N, M, MId, D), Atom("predDist", N, D)],
    )

    # --- fingers ---------------------------------------------------------------
    # fingerIndex(@N, J, Off) base tuples carry the 2^J offsets.
    finger_cand = Rule(
        "FC",
        head=Atom("fingerCand", N, J, M, MId,
                  Expr(lambda b: (b["MId"] - (b["Id"] + b["Off"])) % size,
                       "dist(Id+Off,MId)", vars=(Id, Off, MId))),
        body=[Atom("fingerIndex", N, J, Off), Atom("knownNode", N, M, MId),
              Atom("node", N, Id)],
        guards=[Guard(lambda b: b["M"] != b["N"], vars=(M, N),
                      label="M!=N")],
    )
    finger_dist = AggregateRule(
        "FD",
        head=Atom("fingerDist", N, J, D),
        body=[Atom("fingerCand", N, J, _M, _MId, D)],
        agg_var=D, func="min",
    )
    finger = Rule(
        "F1",
        head=Atom("finger", N, J, M, MId),
        body=[Atom("fingerCand", N, J, M, MId, D),
              Atom("fingerDist", N, J, D)],
    )

    # --- stabilization gossip ---------------------------------------------------
    # Per-tick keep-alive to the successor (periodic traffic), and
    # knowledge propagation over the *static* bootstrap peer set. Gossiping
    # over derived succ/pred pointers would create a cross-node retraction
    # cycle (learning a node moves succ, which retracts earlier gossip,
    # which can flap forever); over gossipPeer base tuples the propagation
    # is monotone, so it terminates — and the bootstrap ring still reaches
    # every member transitively.
    ping = Rule(
        "G1",
        head=Atom("ping", S, N, T),
        body=[Atom("stabTick", N, T), Atom("succ", N, S, _SId)],
    )
    share = Rule(
        "G2",
        head=Atom("shareNode", P, M, MId),
        body=[Atom("gossipPeer", N, P), Atom("knownNode", N, M, MId)],
        guards=[Guard(lambda b: b["M"] != b["P"], vars=(M, P),
                      label="M!=P")],
    )
    learn = Rule(
        "G4",
        head=Atom("knownNode", N, M, MId),
        body=[Atom("shareNode", N, M, MId)],
        guards=[Guard(lambda b: b["M"] != b["N"], vars=(M, N),
                      label="M!=N")],
    )

    # --- lookups -----------------------------------------------------------------
    start = Rule(
        "L0",
        head=Atom("lookup", N, K, N, Q),
        body=[Atom("lookupReq", N, K, Q)],
    )
    resolve = Rule(
        "L1",
        head=Atom("lookupResult", R, Q, K, S, SId),
        body=[Atom("lookup", N, K, R, Q), Atom("node", N, Id),
              Atom("succ", N, S, SId)],
        guards=[Guard(lambda b: in_halfopen_arc(b["K"], b["Id"], b["SId"],
                                                ring_bits),
                      vars=(K, Id, SId), label="K in (Id,SId]")],
    )
    hop_cand = Rule(
        "L2",
        head=Atom("hopCand", N, K, R, Q, M,
                  Expr(lambda b: (b["K"] - b["MId"]) % size, "dist(MId,K)",
                       vars=(K, MId))),
        body=[Atom("lookup", N, K, R, Q), Atom("node", N, Id),
              Atom("succ", N, _S, SId), Atom("knownNode", N, M, MId)],
        guards=[
            Guard(lambda b: not in_halfopen_arc(b["K"], b["Id"], b["SId"],
                                                ring_bits),
                  vars=(K, Id, SId), label="K not in (Id,SId]"),
            Guard(lambda b: b["M"] != b["N"], vars=(M, N), label="M!=N"),
            # Strict progress toward the key guarantees termination.
            Guard(lambda b: ((b["K"] - b["MId"]) % size)
                            < ((b["K"] - b["Id"]) % size),
                  vars=(K, MId, Id), label="closer(M,K)"),
        ],
    )
    hop_best = AggregateRule(
        "L3",
        head=Atom("hopBest", N, K, Q, D),
        body=[Atom("hopCand", N, K, _R, Q, _M, D)],
        agg_var=D, func="min",
    )
    forward = Rule(
        "L4",
        head=Atom("lookup", M, K, R, Q),
        body=[Atom("hopCand", N, K, R, Q, M, D), Atom("hopBest", N, K, Q, D)],
    )

    return Program(
        [
            succ_cand, succ_dist, succ,
            pred_cand, pred_dist, pred,
            finger_cand, finger_dist, finger,
            ping, share, learn,
            start, resolve, hop_cand, hop_best, forward,
        ],
        inputs={"node": 2, "knownNode": 3, "fingerIndex": 3,
                "gossipPeer": 2, "stabTick": 2, "lookupReq": 3},
        outputs=("lookupResult", "finger", "pred", "ping"),
    )


def build_chord_app_factory(ring_bits=16):
    """Registry builder (see :mod:`repro.apps`): compiles the program once
    and returns the plain per-node factory."""
    program = chord_program(ring_bits=ring_bits)
    return lambda node_id: DatalogApp(node_id, program)


def chord_factory(ring_bits=16):
    from repro.apps import AppFactory
    return AppFactory("chord", ring_bits=ring_bits)


# ----------------------------------------------------------------- tuples

def node_tuple(n, node_id_hash):
    return Tup("node", n, node_id_hash)


def known_node(n, m, m_id):
    return Tup("knownNode", n, m, m_id)


def finger_index(n, j, offset):
    return Tup("fingerIndex", n, j, offset)


def gossip_peer(n, p):
    return Tup("gossipPeer", n, p)


def stab_tick(n, t):
    return Tup("stabTick", n, t)


def lookup_req(n, key, req_id):
    return Tup("lookupReq", n, key, req_id)


def lookup_result(r, req_id, key, owner, owner_id):
    return Tup("lookupResult", r, req_id, key, owner, owner_id)


class ChordNetwork:
    """Drives a Chord ring inside a deployment.

    Node ids are spread deterministically around the ring. ``bootstrap``
    seeds each node with knowledge of a few ring neighbors; stabilization
    rounds then gossip the rest.
    """

    def __init__(self, deployment, n_nodes, ring_bits=16, finger_count=None,
                 seed=7, node_overrides=None):
        self.deployment = deployment
        self.ring_bits = ring_bits
        self.size = 1 << ring_bits
        self.finger_count = (
            min(ring_bits, 8) if finger_count is None else finger_count
        )
        factory = chord_factory(ring_bits=ring_bits)
        import random
        rng = random.Random(seed)
        ids = sorted(rng.sample(range(self.size), n_nodes))
        self.members = []           # [(name, ring_id)] sorted by ring id
        node_overrides = node_overrides or {}
        for index, ring_id in enumerate(ids):
            name = f"n{index}"
            cls = node_overrides.get(name)
            if cls is None:
                self.deployment.add_node(name, factory)
            else:
                self.deployment.add_node(name, factory, node_cls=cls)
            self.members.append((name, ring_id))
        self._tick_counter = {}

    def node(self, name):
        return self.deployment.node(name)

    def ring_id(self, name):
        for member, ring_id in self.members:
            if member == name:
                return ring_id
        raise KeyError(name)

    def owner_of(self, key):
        """Ground truth: the ring member whose arc contains *key*."""
        for name, ring_id in self.members:
            if ring_id >= key:
                return name, ring_id
        return self.members[0]

    def bootstrap(self, neighbors=2):
        """Insert node/finger-index base tuples plus initial ring
        knowledge (each node learns its *neighbors* ring successors)."""
        count = len(self.members)
        for index, (name, ring_id) in enumerate(self.members):
            node = self.node(name)
            node.insert(node_tuple(name, ring_id))
            for j in range(self.finger_count):
                offset = 1 << (self.ring_bits - self.finger_count + j)
                node.insert(finger_index(name, j, offset))
            for step in range(1, neighbors + 1):
                peer, peer_id = self.members[(index + step) % count]
                node.insert(known_node(name, peer, peer_id))
                node.insert(gossip_peer(name, peer))
            prev, _prev_id = self.members[(index - 1) % count]
            node.insert(gossip_peer(name, prev))
        self.deployment.run()

    def stabilize(self, rounds=3):
        """Run gossip rounds: each round bumps every node's tick."""
        for _round in range(rounds):
            for name, _ring_id in self.members:
                node = self.node(name)
                old = self._tick_counter.get(name)
                new = 0 if old is None else old + 1
                if old is not None:
                    node.delete(stab_tick(name, old))
                node.insert(stab_tick(name, new))
                self._tick_counter[name] = new
            self.deployment.run()

    def lookup(self, from_name, key, req_id):
        """Issue a lookup and run the network to quiescence; returns the
        lookupResult tuples that arrived at the requester."""
        node = self.node(from_name)
        node.insert(lookup_req(from_name, key, req_id))
        self.deployment.run()
        return [
            t for t in node.app.tuples_of("lookupResult")
            if t.args[0] == req_id
        ]

    # ------------------------------------------------------------ attacks

    def poison_known_nodes(self, attacker_name, claimed_id=None,
                           victim_name=None):
        """Eclipse-attack flavor 2: the attacker lies about its *inputs*,
        claiming to be a node at *claimed_id*. By default the claimed id is
        placed exactly on the *victim*'s largest finger target, so once the
        lie gossips around, the victim's finger points at the attacker.
        Undetectable automatically (Section 4.2 limitation), but provenance
        queries expose the attacker's insert as the poisoned finger's
        origin."""
        attacker = self.node(attacker_name)
        if victim_name is None:
            victim_name = next(name for name, _r in self.members
                               if name != attacker_name)
        if claimed_id is None:
            largest_offset = 1 << (self.ring_bits - 1)
            claimed_id = (self.ring_id(victim_name)
                          + largest_offset) % self.size
            taken = {rid for _n, rid in self.members}
            while claimed_id in taken:
                claimed_id = (claimed_id + 1) % self.size
        attacker.insert(known_node(attacker_name, attacker_name,
                                   claimed_id))
        self.deployment.run()
        return claimed_id
