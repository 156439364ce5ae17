#!/usr/bin/env python
"""Hadoop-Squirrel: auditing a MapReduce job with a corrupt mapper.

Reproduces paper Section 7.3 / Figure 4: a WordCount job whose output
claims an implausible number of 'squirrel's. The analyst queries the
provenance of the suspicious output tuple, sees one mapper contributing
far more than the others, zooms into that mapper, and finds that replaying
its task against the *registered* map program cannot reproduce what it
shipped — a provably corrupt worker.

Run:  python examples/hadoop_squirrel.py
"""

from repro import Deployment, QueryProcessor
from repro.apps.mapreduce import WordCountJob, OFFSETS
from repro.workloads import ZipfCorpus

N_MAPPERS = 3
BOGUS = 40


def main():
    print("=" * 72)
    print("Hadoop-Squirrel: why does the output say there are so many "
          "squirrels?")
    print("=" * 72)
    dep = Deployment(seed=31)
    job = WordCountJob(
        dep, n_mappers=N_MAPPERS, n_reducers=2,
        granularity=OFFSETS,
        corrupt_mappers={"map2": {"target_word": "squirrel",
                                  "extra_count": BOGUS}},
    )
    corpus = ZipfCorpus(n_words=200, vocabulary=40, seed=3,
                        planted={"squirrel": 5})
    results = job.run(corpus.splits(N_MAPPERS))
    truth = corpus.true_count("squirrel")

    print(f"\nWordCount says 'squirrel' appears {results['squirrel']} "
          f"times; the corpus really contains {truth}.")
    out = job.output_tuple_for("squirrel")
    print(f"suspicious output tuple: {out}")

    qp = QueryProcessor(dep)
    print("\nStep 1 — scope-3 macroquery (the reduce side, Figure 4 top):\n")
    shallow = qp.why(out, scope=3)
    print(shallow.pretty(max_depth=3))
    print("\nOne mapper shuffled far more squirrels than the others. "
          "Zooming in (scope 8):\n")
    deep = qp.why(out, scope=8)
    for vertex in deep.red_vertices():
        print(f"  RED: {vertex.describe()}")
    print(f"\nverdict: faulty nodes = {deep.faulty_nodes()}")

    stats = deep.stats
    print(f"\nquery cost: {stats.downloaded_bytes()/1024:.1f} kB "
          f"downloaded, {stats.events_replayed} events replayed, "
          f"~{stats.turnaround_seconds():.2f}s turnaround")


if __name__ == "__main__":
    main()
