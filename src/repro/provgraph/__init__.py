"""The SNP provenance graph (paper Section 3 and Appendix B).

* :mod:`repro.provgraph.vertices` — the twelve vertex types and the three
  colors (black/red/yellow) with their dominance order;
* :mod:`repro.provgraph.graph` — the graph container;
* :mod:`repro.provgraph.gca` — a faithful transcription of the graph
  construction algorithm from Appendix B (Figures 10 and 11); the querier
  applies its ``handle-extra-msg`` rule (``MicroQuerier.resolve``).
"""

from repro.provgraph.vertices import (
    Vertex, Color,
    INSERT, DELETE, APPEAR, DISAPPEAR, EXIST, DERIVE, UNDERIVE,
    SEND, RECEIVE, BELIEVE_APPEAR, BELIEVE_DISAPPEAR, BELIEVE,
)
from repro.provgraph.graph import ProvenanceGraph
from repro.provgraph.gca import GraphConstructor, Event

__all__ = [
    "Vertex",
    "Color",
    "ProvenanceGraph",
    "GraphConstructor",
    "Event",
    "INSERT", "DELETE", "APPEAR", "DISAPPEAR", "EXIST", "DERIVE", "UNDERIVE",
    "SEND", "RECEIVE", "BELIEVE_APPEAR", "BELIEVE_DISAPPEAR", "BELIEVE",
]
