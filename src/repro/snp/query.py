"""The macroquery processor (paper Sections 2.2, 5.1, 7.2).

Macroqueries answer the operator's forensic questions by repeatedly invoking
microquery and assembling the explored subgraph:

* :meth:`QueryProcessor.why` — provenance of an extant tuple ("Why does τ
  exist?"), or a *historical* query when ``at`` names a past instant ("Why
  did τ exist at time t?");
* :meth:`QueryProcessor.why_appear` / :meth:`why_disappear` — *dynamic*
  queries about state changes;
* :meth:`QueryProcessor.effects` — *causal* (forward) queries for damage
  assessment ("What state on other nodes was derived from τ?").

Every query takes ``scope=k`` (Section 5.1): only vertices within graph
distance k of the root are explored — matching how an analyst zooms in one
neighborhood at a time (Section 7.3).
"""

from repro.provgraph.graph import ProvenanceGraph, _clone_vertex
from repro.provgraph.vertices import APPEAR, DISAPPEAR, EXIST, BELIEVE
from repro.snp.microquery import MicroQuerier, OK
from repro.util.errors import QueryError


class QueryResult:
    """The explored subgraph plus verdicts and cost accounting."""

    def __init__(self, root, graph, stats, direction):
        self.root = root
        self.graph = graph
        self.stats = stats
        self.direction = direction

    # ------------------------------------------------------------ verdicts

    def red_vertices(self):
        return self.graph.red_vertices()

    def yellow_vertices(self):
        return self.graph.yellow_vertices()

    def faulty_nodes(self):
        """Nodes with at least one red vertex in the explored subgraph."""
        return sorted({v.node for v in self.red_vertices()}, key=str)

    def suspect_nodes(self):
        """Nodes that are red or unresponsive (yellow) — the paper's 'at
        least one faulty or misbehaving node' starting point."""
        nodes = {v.node for v in self.red_vertices()}
        nodes.update(v.node for v in self.yellow_vertices())
        return sorted(nodes, key=str)

    def is_clean(self):
        return not self.red_vertices() and not self.yellow_vertices()

    def verdict(self):
        """The whole-result verdict, ordered worst-first: ``"red"`` when
        any explored vertex is proven faulty, ``"yellow"`` when judgment
        is withheld anywhere, else ``"green"``. This is the scalar the
        service plane's subscriptions watch for downgrades."""
        if self.red_vertices():
            return "red"
        if self.yellow_vertices():
            return "yellow"
        return "green"

    def summary(self):
        """A JSON-ready, deterministic projection of the result: every
        vertex rendering with its color, plus the verdict rollup. Two
        audits that explored the same provenance produce byte-identical
        summaries — the equality the service e2e gate checks between a
        daemon-served query and a direct in-process one. (Cost counters
        live in ``stats`` and are intentionally excluded: they depend on
        what the querier had cached and fetched before.)"""
        return {
            "root": self.root.describe(),
            "direction": self.direction,
            "verdict": self.verdict(),
            "vertices": sorted(
                [v.describe(), v.color] for v in self.graph.vertices()
            ),
            "faulty_nodes": [str(n) for n in self.faulty_nodes()],
        }

    def vertices(self):
        return self.graph.vertices()

    def base_causes(self):
        """The root causes: insert/delete vertices in the explored graph."""
        return [
            v for v in self.graph.vertices()
            if v.vtype in ("insert", "delete")
        ]

    # ------------------------------------------------------------ display

    def pretty(self, max_depth=None):
        """ASCII rendering in the style of the paper's Figures 2 and 4."""
        lines = []
        seen = set()

        def walk(vertex, depth, prefix):
            marker = {"black": " ", "red": "!", "yellow": "?"}[vertex.color]
            lines.append(f"{prefix}{marker} {vertex.describe()}")
            if vertex.key() in seen:
                return
            seen.add(vertex.key())
            if max_depth is not None and depth >= max_depth:
                return
            if self.direction == "backward":
                neighbors = self.graph.predecessors(vertex)
            else:
                neighbors = self.graph.successors(vertex)
            for neighbor in sorted(neighbors, key=lambda v: v.sort_key()):
                walk(neighbor, depth + 1, prefix + "  ")

        walk(self.root, 0, "")
        return "\n".join(lines)

    def __repr__(self):
        return (
            f"QueryResult(root={self.root.describe()}, "
            f"|V|={len(self.graph)}, red={len(self.red_vertices())}, "
            f"yellow={len(self.yellow_vertices())})"
        )


class QueryProcessor:
    """Evaluates macroqueries against a deployment.

    Exploration builds each BFS level's unvisited hosts as one batch
    (:meth:`repro.snp.microquery.MicroQuerier.build_views`). The processor
    is usable as a context manager; :meth:`close` releases nothing today.
    """

    def __init__(self, deployment, use_checkpoints=False):
        self.deployment = deployment
        self.mq = MicroQuerier(deployment, use_checkpoints=use_checkpoints)
        #: Monotone view-generation counter: bumped by :meth:`refresh`, so
        #: callers can tag results with the epoch they were computed in.
        self.epoch = 0

    def close(self):
        """Nothing to release — builds run inline — but a processor
        scopes like a resource (``with``), so callers need not know
        that."""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # ------------------------------------------------------------ freshness

    def prefetch(self, nodes=None):
        """Build verified views for *nodes* (default: every deployment
        node) as one batch — the standing auditor's cold start.

        Exploration builds views lazily as the BFS frontier reaches new
        hosts, one batch per level. Prefetching instead builds the whole
        node set at once; the macroquery that follows runs entirely
        against cached views. Returns ``{node_id: view}``.
        """
        if nodes is None:
            nodes = sorted(self.deployment.nodes, key=str)
        return self.mq.build_views(nodes)

    def refresh(self, node_id=None):
        """Advance cached node views to the deployment's current state and
        start a new query epoch.

        Repeated macroqueries against a *running* deployment would
        otherwise answer from stale views (the cache has no TTL) — or pay
        a full log re-fetch, re-verification and re-replay per node after
        an ``invalidate()``. Refresh instead extends each verified view by
        only the log suffix appended since it was built (see
        :meth:`repro.snp.microquery.MicroQuerier.refresh`). Returns the
        new epoch number; the per-node refresh cost lands in ``mq.stats``
        like any other retrieval, so the next query's stats delta includes
        it only if the caller measures across the refresh. The epoch's
        semantic change set is exposed as :attr:`last_refresh_changed`.
        """
        self.mq.refresh(node_id)
        self.epoch += 1
        return self.epoch

    @property
    def last_refresh_changed(self):
        """Nodes whose view changed in the most recent :meth:`refresh`
        (verdict flipped or verified head advanced) — the per-epoch
        output delta. ``None`` before the first refresh: consumers must
        then assume anything may have changed."""
        return self.mq.last_refresh_changed

    def low_water_marks(self):
        """Per-node verified heads, advertised to the retention handshake
        when this processor is registered via
        ``Deployment.register_querier`` (see
        :meth:`repro.snp.microquery.MicroQuerier.low_water_marks`)."""
        return self.mq.low_water_marks()

    # ---------------------------------------------------------- entry points

    def why(self, tup, node=None, at=None, scope=None):
        """Provenance of τ on *node* (extant, or historical when ``at`` is
        given). The root is the exist (or believe) vertex whose interval
        covers the instant."""
        node = tup.loc if node is None else node
        stats_before = self.mq.stats.copy()
        root = self._find_interval_vertex(node, tup, at)
        if root is None:
            raise QueryError(
                f"{tup!r} does not exist on {node!r}"
                + (f" at t={at:g}" if at is not None else "")
            )
        return self._explore(root, "backward", scope, stats_before)

    def why_appear(self, tup, node=None, before=None, scope=None):
        """Dynamic query: why did τ appear (most recent appearance ≤
        *before*)?"""
        node = tup.loc if node is None else node
        stats_before = self.mq.stats.copy()
        root = self._find_change_vertex(node, tup, APPEAR, before)
        if root is None:
            raise QueryError(f"no appearance of {tup!r} on {node!r}")
        return self._explore(root, "backward", scope, stats_before)

    def why_disappear(self, tup, node=None, before=None, scope=None):
        """Dynamic query: why did τ disappear?"""
        node = tup.loc if node is None else node
        stats_before = self.mq.stats.copy()
        root = self._find_change_vertex(node, tup, DISAPPEAR, before)
        if root is None:
            raise QueryError(f"no disappearance of {tup!r} on {node!r}")
        return self._explore(root, "backward", scope, stats_before)

    def effects(self, tup, node=None, at=None, scope=None):
        """Causal (forward) query: what was derived from τ?"""
        node = tup.loc if node is None else node
        stats_before = self.mq.stats.copy()
        roots = []
        interval = self._find_interval_vertex(node, tup, at)
        if interval is None:
            interval = self._find_latest_interval(node, tup)
        if interval is not None:
            roots.append(interval)
        # Derivations made at the instant the tuple appeared hang off the
        # (believe-)appear vertex rather than the interval vertex, and the
        # tuple's *disappearance* has downstream effects of its own (−τ
        # notifications, underivations), so the forward exploration seeds
        # all of the tuple's change vertices alongside the interval vertex.
        for kind in (APPEAR, DISAPPEAR):
            change = self._find_change_vertex(node, tup, kind, None)
            if change is not None:
                roots.append(change)
        if not roots:
            raise QueryError(f"{tup!r} was never on {node!r}")
        return self._explore(roots[0], "forward", scope, stats_before,
                             extra_roots=roots[1:])

    def history_of(self, tup, node=None):
        """All exist intervals of τ on *node* (historical inspection)."""
        node = tup.loc if node is None else node
        view = self.mq.view_of(node)
        if view.status != OK:
            return []
        vertices = view.graph.find_all(vtype=EXIST, node=node, tup=tup)
        return [(v.t, v.t_end) for v in vertices]

    # ------------------------------------------------------------- lookup

    def _find_interval_vertex(self, node, tup, at):
        view = self.mq.view_of(node)
        if view.status != OK:
            raise QueryError(
                f"cannot query {node!r}: {view.status} "
                f"({view.verdict_reason})"
            )
        if at is None:
            # The extant vertex is the one the GCA still holds open: two
            # map reads, where a historical instant has to scan. A
            # believe outranks an exist of the same tuple, as in the
            # GCA's own support lookup.
            for vtype in (BELIEVE, EXIST):
                vertex = view.graph.open_interval(vtype, node, tup)
                if vertex is not None:
                    return vertex
            return None
        candidates = view.graph.find_all(vtype=EXIST, node=node, tup=tup)
        candidates += view.graph.find_all(vtype=BELIEVE, node=node, tup=tup)
        best = None
        for vertex in candidates:
            if vertex.t <= at and (vertex.t_end is None
                                   or at <= vertex.t_end):
                best = vertex
        return best

    def _find_latest_interval(self, node, tup):
        """The most recent exist/believe vertex of τ on *node*, open or
        closed (used by effects queries on tuples that are already gone)."""
        view = self.mq.view_of(node)
        if view.status != OK:
            return None
        candidates = view.graph.find_all(vtype=EXIST, node=node, tup=tup)
        candidates += view.graph.find_all(vtype=BELIEVE, node=node, tup=tup)
        if not candidates:
            return None
        return max(candidates, key=lambda v: v.t)

    def _find_change_vertex(self, node, tup, vtype, before):
        view = self.mq.view_of(node)
        if view.status != OK:
            raise QueryError(
                f"cannot query {node!r}: {view.status} "
                f"({view.verdict_reason})"
            )
        kinds = [vtype]
        kinds.append(
            "believe-appear" if vtype == APPEAR else "believe-disappear"
        )
        best = None
        for kind in kinds:
            for vertex in view.graph.find_all(vtype=kind, node=node, tup=tup):
                if before is not None and vertex.t > before:
                    continue
                if best is None or vertex.t > best.t:
                    best = vertex
        return best

    # ---------------------------------------------------------- exploration

    def _explore(self, root, direction, scope, stats_before=None,
                 extra_roots=()):
        """BFS from the root(s), one *level* at a time.

        Level synchronization is what lets view builds batch: all of a
        level's vertices are microqueried first (their hosts' views are
        already cached — every vertex entered the level through
        ``resolve``), the hosts of every discovered neighbor are
        prefetched as one ``build_views`` batch, and only then are the
        neighbors resolved and attached. The visit order, the explored
        subgraph and the verdicts are identical to vertex-at-a-time
        exploration; only the build scheduling changes.
        """
        if stats_before is None:
            stats_before = self.mq.stats.copy()
        graph = ProvenanceGraph()
        self.mq.build_views([root.node]
                            + [extra.node for extra in extra_roots])
        resolved_root, _color = self.mq.resolve(root)
        graph.add_vertex(_clone_vertex(resolved_root))
        level = [resolved_root]
        visited = {resolved_root.key()}
        for extra in extra_roots:
            resolved, _c = self.mq.resolve(extra)
            if resolved.key() in visited:
                continue
            graph.add_vertex(_clone_vertex(resolved))
            visited.add(resolved.key())
            level.append(resolved)
        depth = 0
        while level and (scope is None or depth < scope):
            expansions = []
            for vertex in level:
                result = self.mq.microquery(vertex)
                neighbors = (
                    result.predecessors if direction == "backward"
                    else result.successors
                )
                if len(neighbors) > 1:
                    # A sort key is a canonical encoding; three rows in
                    # four have at most one neighbour and need none.
                    neighbors = sorted(neighbors,
                                       key=lambda v: v.sort_key())
                expansions.append((vertex, neighbors))
            self.mq.build_views([n.node for _v, neighbors in expansions
                                 for n in neighbors])
            next_level = []
            for vertex, neighbors in expansions:
                here = graph.get(vertex.key())
                for neighbor in neighbors:
                    resolved, _c = self.mq.resolve(neighbor)
                    mine = graph.add_vertex(_clone_vertex(resolved))
                    if direction == "backward":
                        graph.add_edge(mine, here)
                    else:
                        graph.add_edge(here, mine)
                    if resolved.key() not in visited:
                        visited.add(resolved.key())
                        next_level.append(resolved)
            level = next_level
            depth += 1
        stats = self.mq.stats.delta_since(stats_before)
        return QueryResult(graph.get(resolved_root.key()), graph, stats,
                           direction)

