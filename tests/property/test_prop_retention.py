"""Checkpoint GC never corrupts audit verdicts (hypothesis).

For randomized runs (link activity, optional fabricated evidence),
randomized GC floors (checkpoint placement × auditor refresh schedule
drive what the retention handshake may truncate), and randomized query
schedules, truncation must only ever *withhold* judgment. Per vertex,
with ``before`` the verdict of a cold full-log querier and ``after``
that of a cold post-GC querier (both through ``resolve``):

* truncation never convicts a *node* that was not already convicted:
  on a host with no red vertex before GC, ``after`` is red only if
  ``before`` was red. (A host that already held a red may trade one for
  another: a fabricated message eats a sequence number, so which of a
  fabricator's later sends replay as cascade reds depends on where the
  replay starts, and a checkpoint-seeded replay starts from the true
  counter. ``PINNED_FABRICATOR_SCHEDULE`` is the case; no honest node
  changes colour in it.)
* green inside retained coverage stays green: black flips to yellow
  only for vertices below the host's checkpoint base (evidence gone),
  never to red on a host that had none;
* yellow stays yellow — a post-GC querier knows strictly less;
* red below the base fades to honest yellow — never to a silent black.
  "Below" is the vertex's timestamp against the view's base time,
  except for a send whose ``snd`` entry the host's log still holds above
  the view's checkpoint: a fabricated message carries the simulator's
  clock while log entries carry the node's strictly increasing one, so
  a send logged *after* a checkpoint can claim a time 1 ns before it.
  That send is retained evidence and is judged as such
  (``PINNED_RETAINED_RED_SCHEDULE``);
* red inside retained coverage stays red — *unless* the host's
  divergence source (its earliest red) itself fell below the floor: a
  checkpoint commits the node's true state, so the retained suffix may
  legitimately re-resolve from it (the replay-cascade reds downstream
  of a truncated divergence are over-approximations, and the true
  fault, being below the base, resolves yellow — never green).
"""

from hypothesis import (
    HealthCheck, example, given, settings, strategies as st,
)

from repro.apps.mincost import (
    build_paper_network, cost, link,
)
from repro.provgraph.graph import _clone_vertex
from repro.snp import Deployment, QueryProcessor
from repro.snp.adversary import FabricatorNode
from repro.snp.commitment import snd_entry_content
from repro.snp.log import SND
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


#: Seen 1 run in ~21 under the old per-vertex oracle: the fabricator
#: ``b`` holds 15 reds before GC, and one of its *later* sends goes
#: black → red (another red → black) once replay starts at the
#: checkpoint. Every other node keeps its colours.
PINNED_FABRICATOR_SCHEDULE = {
    "seed": 0,
    "phases": [
        {"ops": [], "checkpoint": True, "refresh": False,
         "fabricate": True},
        {"ops": [(2, 9)], "checkpoint": False, "refresh": False,
         "fabricate": True},
        {"ops": [(2, 1)], "checkpoint": False, "refresh": True,
         "fabricate": False},
    ],
    "audited": ["a", "b"],
}


#: Seen 2 runs in ~270, at the parent too: two checkpoints with nothing
#: between them, then a fabrication. The fabricated send is entry 71 of
#: ``b``'s log, after the checkpoint at entry 70, but its ``t_sent`` is
#: the simulator time both checkpoints were taken at — 1 ns *below* the
#: view's base time. The red is retained evidence and stays red.
PINNED_RETAINED_RED_SCHEDULE = {
    "seed": 0,
    "phases": [
        {"ops": [], "checkpoint": True, "refresh": False,
         "fabricate": False},
        {"ops": [], "checkpoint": True, "refresh": False,
         "fabricate": False},
        {"ops": [], "checkpoint": False, "refresh": True,
         "fabricate": True},
    ],
    "audited": ["c"],
}


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
                    if current is None or vertex.t < current.t:
                        first_red[name] = vertex
        colors = {}
        for name in audited:
            view = views[name]
            if view.status != OK:
                continue
            for vertex in view.graph.vertices():
                _resolved, color = qp.mq.resolve(_clone_vertex(vertex))
                colors[(name, vertex.key())] = (vertex, color)
        return colors, first_red


def _send_is_retained(dep, vertex, host_view):
    """Whether *vertex* is a send whose ``snd`` entry sits in its host's
    log above the view's checkpoint — read from the log itself, not
    from the querier under test."""
    if vertex.msg is None or vertex.node != vertex.msg.src:
        return False
    content = snd_entry_content(vertex.msg)
    return any(
        entry.entry_type == SND and entry.content == content
        for entry in dep.nodes[vertex.node].log.entries
        if entry.index > host_view.base_index
    )


def _below_base(dep, vertex, host_view):
    return vertex.t is not None and vertex.t < host_view.base_time \
        and not _send_is_retained(dep, vertex, host_view)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(schedules())
@example(PINNED_FABRICATOR_SCHEDULE)
@example(PINNED_RETAINED_RED_SCHEDULE)
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
            # The host's earliest red before GC, None for a host that
            # held none (or whose pre-GC view was not OK).
            host_first_red = first_red.get(vertex.node)
            if color_before != Color.RED and host_first_red is None:
                assert color_after != Color.RED, (
                    "truncation convicted a node that was not already "
                    f"convicted: {detail}"
                )
            host_view = after.mq.view_of(vertex.node)
            if host_view.status != OK:
                continue  # host verdicts covered by the red rule above
            below_base = _below_base(dep, vertex, host_view)
            if color_before == Color.YELLOW:
                assert color_after == Color.YELLOW, (
                    f"a post-GC querier knows strictly less: {detail}"
                )
            elif color_before == Color.BLACK:
                if below_base:
                    assert color_after in (Color.BLACK, Color.YELLOW), \
                        f"black may only fade to yellow: {detail}"
                else:
                    # An already-convicted host may trade one cascade
                    # red for another (see the module docstring).
                    allowed = (Color.BLACK,) if host_first_red is None \
                        else (Color.BLACK, Color.RED)
                    assert color_after in allowed, (
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
                    source_truncated = host_first_red is not None \
                        and _below_base(dep, host_first_red, host_view)
                    if not source_truncated:
                        assert color_after == Color.RED, (
                            "a red whose divergence source survives "
                            f"truncation must reproduce: {detail}"
                        )

