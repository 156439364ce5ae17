"""Allocation budget of the record and audit paths.

The cyclic collector's cost on an audit is set by how many GC-type
objects replay and recording leave behind (DESIGN.md "Allocation and the
collector"), so that count is a tested budget, not an accident: one
small chord ring is recorded and cold-audited with the collector off,
and the objects each phase leaves are counted. Nothing either phase
allocates may need the collector to be freed (no reference cycles).
"""

import gc
import sys

import pytest

from repro.apps.chord import ChordNetwork
from repro.snp import Deployment, QueryProcessor

#: Ceilings sit between what this tree measures (26.6 per appended entry,
#: 29.1 per replayed event on CPython 3.11) and what the closure-based
#: join, the edge-pair set and the per-call derivation keys measured (51.2
#: and 64.3). They are pinned to one minor version because which
#: containers count as GC objects differs slightly across versions.
MAX_TRACKED_PER_ENTRY = 36
MAX_TRACKED_PER_EVENT = 40
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
    qp.close()

    if PINNED:
        assert recorded / entries < MAX_TRACKED_PER_ENTRY
        assert audited / events < MAX_TRACKED_PER_EVENT
