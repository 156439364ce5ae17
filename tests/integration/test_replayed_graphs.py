"""The replayed provenance graphs, pinned bit for bit.

Every node's whole log of :func:`scenarios.app_deployments` (all five
applications) is replayed through ``replay_segment``, and each
application's graphs are folded into one SHA-256: per node, every
vertex's key, colour, interval end and predecessors in insertion order,
then ``edges()`` in order. A change to the GCA or the graph container
that moves a vertex, an edge, their order, a colour or an interval end
moves a digest. The digests are the graphs' canonical encodings, so they do
not depend on ``PYTHONHASHSEED``.
"""

import hashlib

import pytest

from repro.metrics import QueryStats
from repro.snp.replay import replay_segment
from repro.util.serialization import canonical_bytes

from scenarios import app_deployments

#: Computed before the GCA and the graph container moved to vertex ids.
GOLDEN = {
    "bgp":
        "f6642e12f134ea695f2f7d0ef75227989a7a2d60794ae72b6179283279f2d40c",
    "chord":
        "2745fd58a65e5f36c74aec060a84040df19b5852b12b3f5f12fcf9fd4c65624f",
    "hadoop":
        "4781e50af1e843c02c17ee6ab6b450971b8d688a1bbedf0a552d48a31a36e280",
    "mincost":
        "f35ec860b072c30f565e596f2d5e277633c43be58ea2bbdd8456344959077c8f",
    "pathvector":
        "1eea279583031c7bbfea7682e2494027a25a89502916e5aa4e0c7c1712b4fd05",
}


@pytest.fixture(scope="module")
def deployments():
    return app_deployments()


def graph_digest(dep):
    digest = hashlib.sha256()
    alarms = frozenset(dep.maintainer.alarmed_msg_ids())
    for node_id in sorted(dep.nodes, key=str):
        result = replay_segment(
            node_id, dep.nodes[node_id].retrieve(),
            dep.app_factories[node_id], dep.effective_t_prop(),
            QueryStats(), known_alarm_msg_ids=alarms,
        )
        assert result.ok, result.failure
        graph = result.graph
        digest.update(canonical_bytes(str(node_id)))
        for vertex in graph.vertices():
            digest.update(canonical_bytes(
                (vertex.key(), vertex.color, vertex.t_end,
                 [v.key() for v in graph.predecessors(vertex)])))
        digest.update(canonical_bytes(graph.edges()))
    return digest.hexdigest()


@pytest.mark.parametrize("app", sorted(GOLDEN))
def test_the_replayed_graphs_are_the_pinned_ones(deployments, app):
    assert graph_digest(deployments[app]) == GOLDEN[app]
