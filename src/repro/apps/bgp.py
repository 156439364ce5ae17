"""BGP with a SNooPy proxy — the paper's Quagga application (Section 6.3).

The paper treats the Quagga daemon as a **black box**: a small proxy
intercepts its BGP messages, converts them to tuples, and infers provenance
from an *external specification* of four rules (extraction method #3),
one of which is a 'maybe' rule because the daemon's route-selection policy
may be confidential. We reproduce that structure:

* :class:`BgpDaemon` — a self-contained BGP decision process (RIB, local
  preference by business relationship, Gao-Rexford export policy, optional
  preference overrides and export filters). SNooPy never replays it: it is
  the black box.
* the proxy rule set (:func:`bgp_proxy_program`):

  - **M0** (maybe): ``route(@X,Pfx,P) maybe← originate(@X,Pfx)`` with
    ``P=(X,)`` — a network may originate its own prefix;
  - **M1** (maybe): ``route(@X,Pfx,P) maybe← announce(@X,Pfx,Path,Nbr)``
    with ``P=(X,)+Path`` — a selected route must extend a route that was
    previously advertised to X (the paper's fourth rule);
  - **M2** (maybe): ``exportRoute(@X,Nbr,Pfx,P) maybe←
    route(@X,Pfx,P) ∧ neighbor(@X,Nbr)`` — exporting is at the policy's
    discretion;
  - **E1**: ``announce(@Nbr,Pfx,P,X) ← exportRoute(@X,Nbr,Pfx,P)`` — how
    announcements propagate between networks (the paper's first rule).

  The constraint that a network exports at most one route per prefix at a
  time (the paper's second and third rules) is enforced by the driver's
  token management and surfaces in the provenance graph as Section 3.4
  replacement edges (disappear-of-old → appear-of-new), which
  :class:`BgpProxyApp` annotates.

* :class:`BgpNetwork` — the driver: it relays believed announcements into
  each daemon, lets the daemon decide, and mirrors the daemon's selections
  and exports as maybe-rule choice tokens (logged base-tuple inserts, so
  replay is exact).

Scenario builders reproduce the two Section 7.2 queries:
:func:`build_disappear_scenario` (Quagga-Disappear) and
:func:`build_bad_gadget` (Quagga-BadGadget, the [11] oscillation).
"""

from repro.datalog import (
    Var, Atom, Guard, Rule, MaybeRule, Program, DatalogApp,
    choice_tuple,
)
from repro.model import Tup, Der, Und

CUSTOMER = "customer"
PEER = "peer"
PROVIDER = "provider"

#: Classic local-preference ladder: customer routes are revenue, provider
#: routes cost money.
RELATIONSHIP_PREF = {CUSTOMER: 100, PEER: 90, PROVIDER: 80}

#: Average Quagga BGP message size from the paper (Section 7.4): 68 bytes.
NATIVE_BGP_MESSAGE_BYTES = 68


# --------------------------------------------------------------------- rules

def bgp_proxy_program():
    X, Nbr, Pfx, Path, P, From = (Var(v) for v in
                                  ("X", "Nbr", "Pfx", "Path", "P", "_From"))
    m0 = MaybeRule(
        "M0",
        head=Atom("route", X, Pfx, P),
        body=[Atom("originate", X, Pfx)],
        guards=[Guard(lambda b: b["P"] == (b["X"],), vars=(P, X),
                      label="P==(X,)")],
    )
    m1 = MaybeRule(
        "M1",
        head=Atom("route", X, Pfx, P),
        body=[Atom("announce", X, Pfx, Path, From)],
        guards=[
            Guard(lambda b: b["P"] == (b["X"],) + b["Path"],
                  vars=(P, X, Path), label="P==(X,)+Path"),
            Guard(lambda b: b["X"] not in b["Path"], vars=(X, Path),
                  label="X not in Path"),
        ],
    )
    m2 = MaybeRule(
        "M2",
        head=Atom("exportRoute", X, Nbr, Pfx, P),
        body=[Atom("route", X, Pfx, P), Atom("neighbor", X, Nbr)],
    )
    e1 = Rule(
        "E1",
        head=Atom("announce", Nbr, Pfx, P, X),
        body=[Atom("exportRoute", X, Nbr, Pfx, P)],
    )
    return Program([m0, m1, m2, e1],
                   inputs={"originate": 2, "neighbor": 2},
                   outputs=("announce",))


class BgpProxyApp(DatalogApp):
    """The proxy's state machine, with Section 3.4 replacement edges.

    When the daemon switches routes, the driver deletes the old choice
    token and inserts the new one at the same instant; this subclass pairs
    the resulting underive/derive so the new route's appearance is causally
    linked to the old route's disappearance.
    """

    TRACKED = {"route": 1, "exportRoute": 2}  # relation -> key arity

    def __init__(self, node_id, program=None):
        super().__init__(node_id, program or bgp_proxy_program())
        self._recently_undone = {}

    def _group_key(self, tup):
        arity = self.TRACKED.get(tup.relation)
        if arity is None:
            return None
        return (tup.relation, tup.loc) + tup.args[:arity]

    def _postprocess(self, outputs, t):
        for out in outputs:
            if isinstance(out, Und):
                key = self._group_key(out.tup)
                if key is not None:
                    self._recently_undone[key] = out.tup
            elif isinstance(out, Der):
                key = self._group_key(out.tup)
                if key is None:
                    continue
                undone = self._recently_undone.pop(key, None)
                if undone is not None and undone != out.tup:
                    out.replaces = undone
        return outputs

    def handle_insert(self, tup, t):
        return self._postprocess(super().handle_insert(tup, t), t)

    def handle_delete(self, tup, t):
        return self._postprocess(super().handle_delete(tup, t), t)

    def handle_receive(self, msg, t):
        return self._postprocess(super().handle_receive(msg, t), t)

    def snapshot(self):
        snap = super().snapshot()
        snap["recently_undone"] = dict(self._recently_undone)
        return snap

    def restore(self, snap):
        super().restore(snap)
        self._recently_undone = dict(snap.get("recently_undone", {}))


def build_bgp_app_factory():
    """Registry builder (see :mod:`repro.apps`): compiles the proxy's
    external specification once and returns the per-node factory."""
    program = bgp_proxy_program()
    return lambda node_id: BgpProxyApp(node_id, program)


def bgp_app_factory():
    from repro.apps import AppFactory
    return AppFactory("bgp")


def bgp_native_sizer(msg):
    """Traffic model: the unmodified daemon would have sent a compact BGP
    update (~68 bytes on average, per the paper); the tuple encoding on the
    wire is proxy overhead."""
    return NATIVE_BGP_MESSAGE_BYTES, "proxy"


# -------------------------------------------------------------------- daemon

class BgpDaemon:
    """A deterministic BGP decision process (the black box).

    *neighbors* maps neighbor AS → relationship (from this AS's point of
    view: CUSTOMER means the neighbor is our customer). *pref_override*
    maps (prefix, first_hop_as) → local-pref, which is how BadGadget-style
    dispute wheels are configured. *export_filter(nbr, prefix, path)* may
    veto individual exports (the Quagga-Disappear scenario).
    """

    def __init__(self, asn, neighbors, originated=(),
                 pref_override=None, export_filter=None):
        self.asn = asn
        self.neighbors = dict(neighbors)
        self.originated = set(originated)
        self.pref_override = pref_override or {}
        self.export_filter = export_filter

    def local_pref(self, prefix, path, from_nbr):
        override = self.pref_override.get((prefix, path[0] if path else None))
        if override is not None:
            return override
        return RELATIONSHIP_PREF[self.neighbors[from_nbr]]

    def select(self, prefix, candidates):
        """Pick the best route. *candidates* is a list of (path, from_nbr)
        as advertised (path starts with from_nbr); returns (full_path,
        from_nbr) or None. Origination always wins for own prefixes."""
        if prefix in self.originated:
            return (self.asn,), None
        valid = [
            (path, nbr) for path, nbr in candidates
            if self.asn not in path
        ]
        if not valid:
            return None
        def rank(entry):
            path, nbr = entry
            return (-self.local_pref(prefix, path, nbr), len(path), path)
        path, nbr = min(valid, key=rank)
        return (self.asn,) + path, nbr

    def should_export(self, nbr, prefix, full_path, learned_from):
        """Gao-Rexford export policy plus the optional custom filter."""
        if nbr == learned_from:
            return False  # never send a route back where it came from
        if learned_from is not None:
            learned_rel = self.neighbors[learned_from]
            nbr_rel = self.neighbors[nbr]
            # Routes from peers/providers are exported only to customers.
            if learned_rel in (PEER, PROVIDER) and nbr_rel != CUSTOMER:
                return False
        if self.export_filter is not None \
                and not self.export_filter(nbr, prefix, full_path):
            return False
        return True


# -------------------------------------------------------------------- tuples

def originate(asn, prefix):
    return Tup("originate", asn, prefix)


def neighbor(asn, nbr):
    return Tup("neighbor", asn, nbr)


def route(asn, prefix, path):
    return Tup("route", asn, prefix, tuple(path))


def announce(asn, prefix, path, from_nbr):
    return Tup("announce", asn, prefix, tuple(path), from_nbr)


def route_token(asn, prefix, path):
    return choice_tuple("M0" if len(path) == 1 and path[0] == asn else "M1",
                        asn, prefix, tuple(path))


def export_token(asn, nbr, prefix, path):
    return choice_tuple("M2", asn, nbr, prefix, tuple(path))


# -------------------------------------------------------------------- driver

class BgpNetwork:
    """Runs BGP daemons behind SNooPy proxies inside a deployment."""

    def __init__(self, deployment, node_overrides=None):
        self.deployment = deployment
        self.daemons = {}
        self.selected = {}   # asn -> {prefix: (full_path, from_nbr)}
        self.exported = {}   # asn -> {(nbr, prefix): full_path}
        self.route_changes = []   # (round, asn, prefix, old, new) flutter log
        self._node_overrides = node_overrides or {}
        self._round = 0

    def add_as(self, daemon):
        factory = bgp_app_factory()
        cls = self._node_overrides.get(daemon.asn)
        kwargs = {"native_sizer": bgp_native_sizer}
        if cls is None:
            node = self.deployment.add_node(daemon.asn, factory, **kwargs)
        else:
            node = self.deployment.add_node(daemon.asn, factory,
                                            node_cls=cls, **kwargs)
        self.daemons[daemon.asn] = daemon
        self.selected[daemon.asn] = {}
        self.exported[daemon.asn] = {}
        for nbr in sorted(daemon.neighbors):
            node.insert(neighbor(daemon.asn, nbr))
        for prefix in sorted(daemon.originated):
            node.insert(originate(daemon.asn, prefix))
        return node

    # ------------------------------------------------------------- decisions

    def _believed_announces(self, asn):
        node = self.deployment.node(asn)
        out = {}
        for tup in node.app.tuples_of("announce"):
            prefix, path, from_nbr = tup.args
            out.setdefault(prefix, []).append((path, from_nbr))
        return out

    def _decide_as(self, asn):
        """Run one decision pass of *asn*'s daemon; mirror the outcome as
        choice-token changes on its proxy. Returns True if anything
        changed."""
        daemon = self.daemons[asn]
        node = self.deployment.node(asn)
        announces = self._believed_announces(asn)
        prefixes = set(announces) | set(daemon.originated) \
            | set(self.selected[asn])
        changed = False
        for prefix in sorted(prefixes, key=str):
            best = daemon.select(prefix, announces.get(prefix, []))
            current = self.selected[asn].get(prefix)
            if best != current:
                changed = True
                self.route_changes.append(
                    (self._round, asn, prefix,
                     current[0] if current else None,
                     best[0] if best else None)
                )
                # Withdraw exports that depended on the old selection first.
                if current is not None:
                    self._sync_exports(asn, prefix, None, None)
                    node.delete(route_token(asn, prefix, current[0]))
                if best is not None:
                    node.insert(route_token(asn, prefix, best[0]))
                self.selected[asn][prefix] = best
                if best is None:
                    del self.selected[asn][prefix]
            selection = self.selected[asn].get(prefix)
            if selection is not None:
                full_path, learned_from = selection
                if self._sync_exports(asn, prefix, full_path, learned_from):
                    changed = True
        return changed

    def _sync_exports(self, asn, prefix, full_path, learned_from):
        """Align the proxy's export tokens with the daemon's export policy
        for *prefix*; full_path None withdraws everything."""
        daemon = self.daemons[asn]
        node = self.deployment.node(asn)
        changed = False
        for nbr in sorted(daemon.neighbors):
            key = (nbr, prefix)
            current = self.exported[asn].get(key)
            want = None
            if full_path is not None \
                    and daemon.should_export(nbr, prefix, full_path,
                                             learned_from):
                want = full_path
            if want == current:
                continue
            changed = True
            if current is not None:
                node.delete(export_token(asn, nbr, prefix, current))
                del self.exported[asn][key]
            if want is not None:
                node.insert(export_token(asn, nbr, prefix, want))
                self.exported[asn][key] = want
        return changed

    def converge(self, max_rounds=30):
        """Alternate message delivery and daemon decisions until a fixpoint
        (or until *max_rounds*, which a BadGadget never reaches). Returns
        the number of rounds executed."""
        for round_index in range(max_rounds):
            self._round = round_index
            self.deployment.run()
            changed = False
            for asn in sorted(self.daemons, key=str):
                if self._decide_as(asn):
                    changed = True
            self.deployment.run()
            if not changed:
                return round_index + 1
        return max_rounds

    def routing_table(self, asn):
        return dict(self.selected[asn])


# ----------------------------------------------------------------- scenarios

def build_disappear_scenario(deployment):
    """The Quagga-Disappear setup (Section 7.2, after Teixeira et al.):

    ``origin`` announces a prefix reachable via two of AS ``j``'s customers,
    ``c1`` (long path) and ``c2`` (short path, but j's export policy filters
    paths through c2 toward its peer ``alice``). c2's announcement arrives
    later; j switches to it, and — because of the filter — withdraws the
    route from alice, whose table entry disappears.

    Returns (network, prefix). Drive it with
    ``net.converge()`` / :func:`trigger_disappear`.
    """
    prefix = "10.0.0.0/8"
    net = BgpNetwork(deployment)
    net.add_as(BgpDaemon("origin", {"mid": PROVIDER},
                         originated=[prefix]))
    net.add_as(BgpDaemon("mid", {"origin": CUSTOMER, "c1": PROVIDER}))
    net.add_as(BgpDaemon("c1", {"mid": CUSTOMER, "j": PROVIDER}))
    net.add_as(BgpDaemon(
        "c2", {"origin": CUSTOMER, "j": PROVIDER},
    ))
    net.add_as(BgpDaemon(
        "j", {"c1": CUSTOMER, "c2": CUSTOMER, "alice": PEER},
        export_filter=lambda nbr, pfx, path:
            not (nbr == "alice" and "c2" in path),
    ))
    net.add_as(BgpDaemon("alice", {"j": PEER}))
    return net, prefix


def trigger_disappear(net, prefix):
    """Activate c2's shorter path by connecting origin→c2 (a new
    announcement), causing j to switch and alice's route to vanish."""
    origin_node = net.deployment.node("origin")
    daemon = net.daemons["origin"]
    if "c2" not in daemon.neighbors:
        daemon.neighbors["c2"] = PROVIDER
        origin_node.insert(neighbor("origin", "c2"))
    return net.converge()


def build_bad_gadget(deployment):
    """BadGadget (Griffin et al. [11]): AS 0 originates; ASes 1, 2, 3 each
    prefer the route through their clockwise neighbor over their direct
    route to 0. No stable assignment exists, so routes flutter forever.

    Returns (network, prefix).
    """
    prefix = "20.0.0.0/8"
    net = BgpNetwork(deployment)
    net.add_as(BgpDaemon(
        "as0", {"as1": PROVIDER, "as2": PROVIDER, "as3": PROVIDER},
        originated=[prefix],
    ))
    # The dispute wheel: as1 prefers routes through as2, as2 through as3,
    # as3 through as1 — each over its direct route to the origin. Business
    # relationships are arranged so every wheel edge is exportable: each
    # ring AS treats the neighbor that prefers routes through it as a
    # customer (provider routes may be exported to customers).
    ring = {"as1": "as2", "as2": "as3", "as3": "as1"}
    for asn, preferred in ring.items():
        prev = next(a for a in ring if ring[a] == asn)
        net.add_as(BgpDaemon(
            asn, {"as0": CUSTOMER, preferred: PROVIDER, prev: CUSTOMER},
            pref_override={
                (prefix, preferred): 200,   # the wheel: via neighbor wins
                (prefix, "as0"): 50,
            },
        ))
    return net, prefix
