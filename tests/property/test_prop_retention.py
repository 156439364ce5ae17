"""Checkpoint GC never corrupts audit verdicts (hypothesis).

For randomized runs (link activity, optional fabricated evidence),
randomized GC floors (checkpoint placement × auditor refresh schedule
drive what the retention handshake may truncate), and randomized query
schedules, truncation must only ever *withhold* judgment. Per vertex,
with ``before`` the verdict of a cold full-log querier and ``after``
that of a cold post-GC querier (both through ``resolve``):

* truncation never *creates* a conviction: ``after`` is red only if
  ``before`` was red;
* green inside retained coverage stays green: black flips to yellow
  only for vertices below the host's checkpoint base (evidence gone),
  never to red;
* yellow stays yellow — a post-GC querier knows strictly less;
* red below the base fades to honest yellow — never to a silent black;
* red inside retained coverage stays red — *unless* the host's
  divergence source (its earliest red) itself fell below the floor: a
  checkpoint commits the node's true state, so the retained suffix may
  legitimately re-resolve from it (the replay-cascade reds downstream
  of a truncated divergence are over-approximations, and the true
  fault, being below the base, resolves yellow — never green);
* serial ≡ wire (the process boundary's serialization
  contract) builds of the post-GC deployment are bit-identical in
  colors, statuses and merged counters.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps.mincost import (
    build_paper_network, cost, link,
)
from repro.provgraph.graph import _clone_vertex
from repro.snp import Deployment, QueryProcessor
from repro.snp.adversary import FabricatorNode
from repro.snp.microquery import OK
from repro.provgraph.vertices import Color

#: Fresh links the random phases may insert (absent from the paper
#: topology, so inserts are always new tuples).
EXTRA_LINKS = (("a", "x"), ("b", "y"), ("c", "w"), ("d", "v"), ("e", "u"))


@st.composite
def schedules(draw):
    seed = draw(st.integers(0, 10_000))
    phases = []
    for _ in range(draw(st.integers(1, 3))):
        phases.append({
            "ops": draw(st.lists(
                st.tuples(st.sampled_from(range(len(EXTRA_LINKS))),
                          st.integers(1, 9)),
                min_size=0, max_size=2, unique_by=lambda op: op[0],
            )),
            "checkpoint": draw(st.booleans()),
            "refresh": draw(st.booleans()),
            "fabricate": draw(st.booleans()),
        })
    # At least one eligible floor: some phase must checkpoint and some
    # later-or-same phase must let the auditor refresh past it.
    phases[0]["checkpoint"] = True
    phases[-1]["refresh"] = True
    audited = draw(st.lists(st.sampled_from("abcde"), min_size=1,
                            max_size=3, unique=True))
    return {"seed": seed, "phases": phases, "audited": audited}


def _run_schedule(schedule):
    dep = Deployment(seed=schedule["seed"], key_bits=256)
    nodes = build_paper_network(dep, node_overrides={"b": FabricatorNode})
    dep.run()
    auditor = QueryProcessor(dep)
    dep.register_querier(auditor)
    auditor.prefetch()
    fabricated = 0
    for phase in schedule["phases"]:
        for which, k in phase["ops"]:
            x, y = EXTRA_LINKS[which]
            nodes[x].insert(link(x, y, k))
            dep.run()
        if phase["fabricate"]:
            fabricated += 1
            nodes["b"].fabricate("+", cost("c", "z", "b", fabricated), "c")
            dep.run()
        if phase["checkpoint"]:
            dep.checkpoint_all()
        if phase["refresh"]:
            auditor.refresh()
    return dep, nodes, auditor


def _pre_gc_colors(dep, audited):
    """Per-vertex verdicts from a cold, full-log querier (the oracle the
    post-GC views are held against), plus each host's *divergence
    source*: the earliest red vertex hosted on it. Verdicts come
    through ``resolve`` — the same mechanism the post-GC side uses — so
    cross-host stub vertices (yellow placeholders in a neighbor's
    partition) are judged by their host's view on both sides of the
    comparison."""
    with QueryProcessor(dep) as qp:
        views = qp.mq.build_views(sorted(dep.nodes, key=str))
        first_red = {}
        for name, view in views.items():
            if view.status != OK:
                continue
            for vertex in view.graph.vertices():
                if vertex.color == Color.RED \
                        and str(vertex.node) == str(name):
                    current = first_red.get(name)
                    if current is None or vertex.t < current:
                        first_red[name] = vertex.t
        colors = {}
        for name in audited:
            view = views[name]
            if view.status != OK:
                continue
            for vertex in view.graph.vertices():
                _resolved, color = qp.mq.resolve(_clone_vertex(vertex))
                colors[(name, vertex.key())] = (vertex, color)
        return colors, first_red


def _post_gc_outcome(dep, audited, executor):
    with QueryProcessor(dep, executor=executor) as qp:
        views = qp.mq.build_views(sorted(dep.nodes, key=str))
        colors = {}
        for name in sorted(audited, key=str):
            view = views[name]
            if view.status != OK:
                continue
            for vertex in view.graph.vertices():
                colors[(str(name), str(vertex.key()))] = vertex.color
        return {
            "statuses": {str(n): v.status for n, v in views.items()},
            "colors": colors,
            "counters": qp.mq.stats.counters(),
        }


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(schedules())
def test_truncation_only_withholds_judgment(schedule):
    dep, _nodes, auditor = _run_schedule(schedule)
    audited = schedule["audited"]
    before, first_red = _pre_gc_colors(dep, audited)
    dep.run_gc(checkpoint=False)
    floors = {name: dep.advertised_floor_of(name) for name in dep.nodes}

    with QueryProcessor(dep) as after:
        for (name, _key), (vertex, color_before) in before.items():
            probe = _clone_vertex(vertex)
            _resolved, color_after = after.mq.resolve(probe)
            detail = (
                f"{vertex.describe()} on {name!r}: {color_before} → "
                f"{color_after} (floors={floors}, schedule={schedule})"
            )
            if color_before != Color.RED:
                assert color_after != Color.RED, \
                    f"truncation created a conviction: {detail}"
            host_view = after.mq.view_of(vertex.node)
            if host_view.status != OK:
                continue  # host verdicts covered by the red rule above
            below_base = vertex.t is not None \
                and vertex.t < host_view.base_time
            if color_before == Color.YELLOW:
                assert color_after == Color.YELLOW, (
                    f"a post-GC querier knows strictly less: {detail}"
                )
            elif color_before == Color.BLACK:
                if below_base:
                    assert color_after in (Color.BLACK, Color.YELLOW), \
                        f"black may only fade to yellow: {detail}"
                else:
                    assert color_after == Color.BLACK, (
                        "green inside retained coverage must stay "
                        f"green: {detail}"
                    )
            elif color_before == Color.RED:
                if below_base:
                    assert color_after == Color.YELLOW, (
                        "a red below the floor must fade to honest "
                        f"yellow, never a silent green: {detail}"
                    )
                else:
                    source_t = first_red.get(vertex.node)
                    source_truncated = source_t is not None \
                        and source_t < host_view.base_time
                    if not source_truncated:
                        assert color_after == Color.RED, (
                            "a red whose divergence source survives "
                            f"truncation must reproduce: {detail}"
                        )


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(schedules())
def test_serial_wire_identical_post_gc(wire_executor, schedule):
    dep, _nodes, _auditor = _run_schedule(schedule)
    dep.run_gc(checkpoint=False)
    audited = schedule["audited"]
    serial = _post_gc_outcome(dep, audited, None)
    assert _post_gc_outcome(dep, audited, wire_executor) == serial
