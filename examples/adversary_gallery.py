#!/usr/bin/env python
"""Adversary gallery: every lie the tests stage, and what SNP makes of it.

Prints the adversary corpus (``tests/scenarios.py``'s ``CORPUS``) one
row per line: the attacks of the paper's threat model (Section 2.1) on
the MinCost network — fabrication, misexecution, suppression, log
tampering, equivocation, query refusal, over-truncation, input lying,
misreception — one smallest edit per conviction check, and the honest
application runs. Each line is what an investigator's audit sees after
prefetching every node: the views that are not ``ok`` and why, and the
nodes the row's query proves faulty or suspects.

Run:  python examples/adversary_gallery.py
"""

import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "tests"))

from scenarios import CORPUS                                  # noqa: E402


def verdict_line(name, row):
    dep, query, _run_further = row.build()
    qp = row.processor(dep)
    views = qp.prefetch()
    result = query(qp)
    line = (f"{name:38s} faulty={[str(n) for n in result.faulty_nodes()]} "
            f"suspects={[str(n) for n in result.suspect_nodes()]}")
    for node in sorted(views, key=str):
        if views[node].status != "ok":
            line += (f"; {node}: {views[node].status} "
                     f"({views[node].verdict_reason})")
    if "verdict" in row.holes:
        line += f"; known hole: {row.holes['verdict']}"
    return line


if __name__ == "__main__":
    for name, row in CORPUS.items():
        print(verdict_line(name, row))
    print(f"\n{len(CORPUS)} rows. Every *detectable* fault produced red or "
          "yellow evidence; the input lie (by design) did not.")
