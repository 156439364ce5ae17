"""The tests' oracle: the naive scan-based reference evaluator, plus the
retraction oracle.

:class:`NaiveDatalogApp` is the pre-plan evaluation strategy kept as an
executable specification: every trigger re-enumerates every visible tuple
of every body relation (guards applied only on fully bound bodies), and
every dirty aggregate group rescans its whole relation (the production
engine reads a maintained membership map instead). It must produce
**byte-identical** outputs to the indexed :class:`~repro.datalog.engine.
DatalogApp` — the property suites (tests/property/) check exactly that on
randomized programs and event schedules, and
``tests/integration/test_engine_schedules.py`` on the four real application
schedules.

:func:`scratch_model` is the *reference retraction semantics*: the model
any mixed insert/retract schedule must converge to is the one obtained by
folding the schedule into its net base multiset (:func:`net_base_counts`)
and evaluating that multiset from scratch on a fresh mesh, with no
deletion ever issued. The incremental engines service a retraction by
support-counted instance removal plus aggregate re-derivation; this
recompute-from-scratch oracle is what proves those
shortcuts sound on arbitrary schedules, not just monotone runs.

None of this is the library: it lives beside the tests that use it, to
keep the optimized engine honest.

Like :class:`~repro.datalog.engine.DatalogApp`, construction runs the
ndlint gate (``Program.ensure_checked``) — the reference evaluator
refuses unsafe programs too.
"""

from collections import deque

from repro.datalog.engine import DatalogApp, _seed_bindings
from repro.datalog.store import TupleStore
from repro.model import Snd


class NaiveDatalogApp(DatalogApp):
    """Reference evaluator: interpretive scans, no secondary indexes."""

    def __init__(self, node_id, program):
        super().__init__(node_id, program)
        # A store with no index registered: every lookup scans.
        self.store = TupleStore(node_id)

    def _matches_from(self, rule_index, rule, pos, bound, tup):
        results = []

        def recurse(body_pos, current, support):
            if body_pos == len(rule.body):
                results.append((current, tuple(support)))
                return
            if body_pos == pos:
                support.append(tup)
                recurse(body_pos + 1, current, support)
                support.pop()
                return
            atom = rule.body[body_pos]
            for candidate in self.store.visible(atom.relation):
                self.join_candidates += 1
                extended = atom.match(candidate, current)
                if extended is not None:
                    support.append(candidate)
                    recurse(body_pos + 1, extended, support)
                    support.pop()

        recurse(0, bound, [])
        results.sort(
            key=lambda pair: tuple(s.canonical_key() for s in pair[1])
        )
        kept = []
        for bindings, support in results:
            if all(guard(bindings) for guard in rule.guards):
                kept.append((bindings, support))
            else:
                self.guard_prunes += 1
        return kept

    def _group_members(self, key, rule):
        """One group's members as ``[(bindings, tup)]`` in canonical
        order, by rescanning the whole relation: every visible tuple is
        re-unified against the body atom, guard-checked, and filtered to
        the exact group key."""
        _rule_index, group_key = key
        # Never None: only groups _mark_dirty matched here get recomputed.
        seed = _seed_bindings(rule, self.node_id)
        members = []
        atom = rule.body[0]
        for candidate in sorted(
            self.store.visible_set(atom.relation),
            key=lambda c: c.canonical_key(),
        ):
            bindings = atom.match(candidate, seed)
            if bindings is None:
                continue
            if not all(guard(bindings) for guard in rule.guards):
                continue
            cand_key = tuple(bindings.get(v.name) for v in rule.group_vars)
            if cand_key != group_key:
                continue
            members.append((bindings, candidate))
        return members

    def _rebuild_members(self):
        pass  # membership is rescanned per recompute, never kept

    def _mark_dirty(self, rule_index, rule, tup, dirty_groups, dirty_seen,
                    cause):
        # Seed semantics: mark unconditionally (no guard filtering, no
        # min/max short-circuit). Recompute re-derives membership anyway,
        # so the indexed engine's skips must never change outputs — which
        # is precisely what comparing against this version checks.
        seed = _seed_bindings(rule, self.node_id)
        if seed is None:
            return
        bindings = rule.body[0].match(tup, seed)
        if bindings is None:
            return
        group_key = tuple(bindings.get(v.name) for v in rule.group_vars)
        key = (rule_index, group_key)
        if key not in dirty_seen:
            if cause == "disappear" and rule.func in ("min", "max"):
                self.support_rederivations += 1
            dirty_seen.add(key)
            dirty_groups.append(key)


# --------------------------------------------- recompute-from-scratch oracle


def net_base_counts(ops):
    """Fold a mixed insert/retract schedule into its net base multiset.

    *ops* is a sequence of ``(kind, node, tup)`` with kind ``"ins"`` or
    ``"del"``. This is the specification of deletion at the input
    boundary: an insert adds one copy, a delete removes one copy *if any
    is present* (deleting an absent tuple is a no-op, exactly like
    :meth:`~repro.datalog.store.TupleStore.remove_base`). Returns
    ``{(node, tup): count}`` with zero-count entries dropped.
    """
    counts = {}
    for kind, node, tup in ops:
        key = (node, tup)
        if kind == "ins":
            counts[key] = counts.get(key, 0) + 1
        elif kind == "del":
            if counts.get(key, 0) > 0:
                counts[key] -= 1
        else:
            raise ValueError(f"unknown schedule op {kind!r}")
    return {key: count for key, count in counts.items() if count > 0}


def model_state(app):
    """An engine's order-insensitive model projection.

    Visible/local tuple sets, beliefs as (tuple, net per-peer
    notification counts), and the derivation-instance keys per tuple —
    everything the fixpoint model determines. Deliberately excluded as
    schedule history, not model content: appear *times* (when the
    schedule last made a tuple appear) and the ``believe_peer``
    creator attribution (which peer's notification happened to arrive
    while the tuple was absent — reordering the same net schedule
    legitimately changes it). Same-schedule runs compare both
    bit-exactly through the engines' snapshots instead.
    """
    return {
        "local": sorted(repr(t) for t, _at in app.extant_tuples()),
        "beliefs": sorted(
            (repr(t), tuple(sorted(
                (peer, count) for peer, count in peers.items()
                if count > 0
            )))
            for t, peers in app.store._beliefs.items()
            if any(count > 0 for count in peers.values())
        ),
        "derivations": sorted(
            (repr(t), sorted(repr(i.key()) for i in
                             app.store.derivation_instances(t)))
            for t, _at in app.extant_tuples()
        ),
    }


def scratch_model(program, nodes, base_counts, app_cls=NaiveDatalogApp):
    """Reference retraction semantics: evaluate a net base multiset from
    scratch on a fresh mesh and return its per-node model projection.

    *base_counts* is ``{(node, tup): count}`` (see
    :func:`net_base_counts`); insertions are issued in canonical order,
    each followed by a full FIFO message pump, and no deletion is ever
    issued. Because the fixpoint is confluent — the final tuple, belief
    and derivation-instance sets are a function of the net base multiset
    alone, not of arrival order — the result is *the* model every
    incremental engine must have converged to after any schedule with
    this net effect. Returns ``{node: model_state(app)}``.
    """
    apps = {node: app_cls(node, program) for node in nodes}
    queue = deque()

    def pump(outputs):
        for out in outputs:
            if isinstance(out, Snd):
                queue.append(out.msg)
        while queue:
            msg = queue.popleft()
            for out in apps[msg.dst].handle_receive(msg, 0.0):
                if isinstance(out, Snd):
                    queue.append(out.msg)

    ordered = sorted(
        base_counts.items(),
        key=lambda item: (str(item[0][0]), item[0][1].canonical_key()),
    )
    for (node, tup), count in ordered:
        for _ in range(count):
            pump(apps[node].handle_insert(tup, 0.0))
    return {node: model_state(app) for node, app in apps.items()}
