"""Allocation budget of the record and audit paths.

The cyclic collector's cost on an audit is set by how many GC-type
objects replay and recording leave behind (DESIGN.md "Allocation and the
collector"), so that count is a tested budget, not an accident: one
small chord ring is recorded and cold-audited with the collector off,
and the objects each phase leaves are counted. Nothing either phase
allocates may need the collector to be freed (no reference cycles).

What the audit's provenance graphs keep is a byte budget as well: a
standing audit holds its graphs for as long as it runs, so the bytes
allocated in ``repro.provgraph`` that the views still hold are traced
and divided by the graphs' vertices plus edges.
"""

import gc
import sys
import tracemalloc

import pytest

from repro.apps.chord import ChordNetwork
from repro.snp import Deployment, QueryProcessor

#: Ceilings sit between what this tree measures (22.3 per appended entry,
#: 20.6 per replayed event on CPython 3.11) and what came before: the
#: closure-based join, the edge-pair set and the per-call derivation keys
#: (51.2 and 64.3), then a stored key tuple per vertex (29.1 per event),
#: then a canonical copy of each entry's tuple or message beside an aux
#: dict holding the objects (24.8 per entry; the aux dict alone, 23.6),
#: then a store of five dicts keyed by the same tuple, with a one-entry
#: dict, a reference tuple and a one-reference set per first derivation
#: (22.8 per entry, 22.9 per event). They are pinned to one minor version
#: because which containers count as GC objects differs slightly across
#: versions.
MAX_TRACKED_PER_ENTRY = 22.6
MAX_TRACKED_PER_EVENT = 21.8
#: Graph bytes per vertex plus edge: 138.5 here, the same before and
#: after the GCA moved to vertex ids, and 211.7 with a key tuple per
#: vertex and a set of integer edge codes. A key tuple per vertex (~32)
#: or an int per edge (~18) coming back crosses the ceiling.
MAX_GRAPH_BYTES_PER_ITEM = 150
PINNED = sys.version_info[:2] == (3, 11)


@pytest.fixture
def collector_off():
    # pytest holds the previous test's exception (an xfail's too) in
    # sys.last_* until this test's call phase starts; dropped then, its
    # traceback's frames would be cyclic garbage counted against us.
    for name in ("last_type", "last_value", "last_traceback", "last_exc"):
        if hasattr(sys, name):
            delattr(sys, name)
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _tracked():
    return len(gc.get_objects())


def _record(dep):
    net = ChordNetwork(dep, n_nodes=5, ring_bits=12, seed=3)
    net.bootstrap(neighbors=2)
    net.stabilize(rounds=2)
    owner = net.members[2][0]
    return net.lookup(net.members[0][0], net.members[2][1] - 1, "q1"), owner


def test_record_and_cold_audit_stay_inside_the_allocation_budget(
        collector_off):
    dep = Deployment(seed=3, key_bits=256)
    before = _tracked()
    results, _owner = _record(dep)
    recorded = _tracked() - before
    entries = sum(len(node.log) for node in dep.nodes.values())
    assert results and entries > 200
    assert gc.collect() == 0, "recording left cyclic garbage"

    before = _tracked()
    qp = QueryProcessor(dep)
    qp.prefetch()
    result = qp.why(results[0], scope=6)
    audited = _tracked() - before
    events = qp.mq.stats.events_replayed
    assert result.summary()["verdict"] == "green" and events > 300
    assert gc.collect() == 0, "the audit left cyclic garbage"

    if PINNED:
        assert recorded / entries < MAX_TRACKED_PER_ENTRY
        assert audited / events < MAX_TRACKED_PER_EVENT


def test_the_audit_graphs_stay_inside_the_byte_budget(collector_off):
    dep = Deployment(seed=3, key_bits=256)
    results, _owner = _record(dep)
    tracemalloc.start()
    try:
        qp = QueryProcessor(dep)
        qp.prefetch()
        result = qp.why(results[0], scope=6)
        snapshot = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, "*/repro/provgraph/*")])
    finally:
        tracemalloc.stop()
    assert result.summary()["verdict"] == "green"
    graphs = [view.graph for view in qp.mq._views.values()]
    items = sum(len(graph) + graph.edge_count() for graph in graphs)
    held = sum(stat.size for stat in snapshot.statistics("filename"))
    assert items > 4000
    if PINNED:
        assert held / items < MAX_GRAPH_BYTES_PER_ITEM
