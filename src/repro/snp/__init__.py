"""SNP: secure network provenance (the paper's core contribution).

Layer map (paper Section 5, Figure 3):

* :mod:`repro.snp.log` — the tamper-evident log (hash chain + entries);
* :mod:`repro.snp.evidence` — authenticators and retention-floor adverts;
* :mod:`repro.snp.commitment` — the signed send/ack commitment protocol,
  including the Tbatch batching optimization;
* :mod:`repro.snp.snoopy` — :class:`SNooPyNode`, gluing a primary-system
  state machine to the graph recorder and the commitment protocol;
* :mod:`repro.snp.replay` — log→history conversion and deterministic replay
  through the GCA;
* :mod:`repro.snp.microquery` — ``microquery(v, ε)`` with verification,
  coloring and the equivocation consistency check;
* :mod:`repro.snp.query` — the macroquery processor (why/causal/historical/
  dynamic queries with scope k);
* :mod:`repro.snp.deployment` — assembles simulator, CA, nodes, maintainer;
* :mod:`repro.snp.adversary` — Byzantine node behaviors for fault injection.
"""

from repro.snp.deployment import Deployment
from repro.snp.snoopy import SNooPyNode
from repro.snp.query import QueryProcessor
from repro.snp.microquery import MicroQuerier

__all__ = ["Deployment", "SNooPyNode", "QueryProcessor", "MicroQuerier"]
