#!/usr/bin/env python
"""Adversary gallery: every Byzantine behavior and how SNP exposes it.

Walks the threat model of paper Section 2.1 one attack at a time on the
MinCost network — fabrication, log tampering, equivocation (log forking),
query refusal, message suppression, input lying, misreception, and a
replica serving a doctored checkpoint — printing what the investigator
sees in each case.

Run:  python examples/adversary_gallery.py
"""

from repro import Deployment, QueryProcessor
from repro.apps.mincost import best_cost, build_paper_network, cost, link
from repro.snp.adversary import (
    FabricatorNode, ForkingNode, InputLiarNode, MisreceivingNode,
    SilentNode, SuppressorNode, TamperingNode,
)
from repro.snp.log import LogEntry


def _banner(title):
    print("\n" + "=" * 72)
    print(title)
    print("=" * 72)


def fabrication():
    _banner("1. Message fabrication -> red send vertex")
    dep = Deployment(seed=41)
    nodes = build_paper_network(dep, node_overrides={"b": FabricatorNode})
    dep.run()
    nodes["b"].fabricate("+", cost("c", "d", "b", 1), "c")
    dep.run()
    res = QueryProcessor(dep).why(best_cost("c", "d", 1))
    print(f"   faulty: {res.faulty_nodes()}")


def tampering():
    _banner("2. Log tampering -> hash chain fails to recompute")
    dep = Deployment(seed=42)
    nodes = build_paper_network(dep, node_overrides={"b": TamperingNode})
    dep.run()
    nodes["b"].tamper_entry(2, ("history, rewritten",))
    qp = QueryProcessor(dep)
    res = qp.why(best_cost("c", "d", 5))
    view = qp.mq.view_of("b")
    print(f"   b's view: {view.status} ({view.verdict_reason})")
    print(f"   faulty: {res.faulty_nodes()}")


def equivocation():
    _banner("3. Equivocation (forked log) -> consistency check")
    dep = Deployment(seed=43)
    nodes = build_paper_network(dep, node_overrides={"b": ForkingNode})
    dep.run()
    nodes["b"].fork_log(keep_upto=3)
    qp = QueryProcessor(dep)
    res = qp.why(best_cost("c", "d", 5))
    view = qp.mq.view_of("b")
    print(f"   b's view: {view.status} ({view.verdict_reason})")
    print(f"   faulty: {res.faulty_nodes()}")


def refusal():
    _banner("4. Query refusal -> yellow vertices (suspect, not proof)")
    dep = Deployment(seed=44)
    nodes = build_paper_network(dep, node_overrides={"b": SilentNode})
    dep.run()
    res = QueryProcessor(dep).why(best_cost("c", "d", 5))
    print(f"   suspects: {res.suspect_nodes()}  "
          f"(proven faulty: {res.faulty_nodes()})")


def suppression():
    _banner("5. Message suppression -> stale peers + red unsent outputs")
    dep = Deployment(seed=45)
    nodes = build_paper_network(dep, node_overrides={"b": SuppressorNode})
    dep.run()
    nodes["b"].suppress_to.add("c")
    nodes["b"].delete(link("b", "d", 3))
    dep.run()
    qp = QueryProcessor(dep)
    stale = nodes["c"].app.has_tuple(cost("c", "d", "b", 5))
    print(f"   c's table is stale: {stale}")
    res = qp.effects(cost("c", "d", "b", 5), node="b", scope=4)
    print(f"   damage assessment on b finds: faulty={res.faulty_nodes()}")


def input_lying():
    _banner("6. Input lying -> black, but the lie is the visible root cause")
    dep = Deployment(seed=46)
    nodes = build_paper_network(dep, node_overrides={"b": InputLiarNode})
    dep.run()
    nodes["b"].lie_insert(link("b", "d", 1))
    dep.run()
    res = QueryProcessor(dep).why(best_cost("c", "d", 3))
    roots = [v.describe() for v in res.base_causes()
             if v.tup == link("b", "d", 1)]
    print(f"   clean={res.is_clean()} (not automatically detectable)")
    print(f"   but the root cause is on display: {roots}")


def misreception():
    _banner("7. Misreception -> the receiver's rcv entry misses the "
            "signed hash")
    dep = Deployment(seed=47)
    nodes = build_paper_network(dep,
                                node_overrides={"c": MisreceivingNode})
    dep.run()
    sent, logged = nodes["c"].misreceived
    print(f"   b sent {sent.tup}, c logged {logged.tup}")
    refused = [w["sender"] for w in dep.maintainer.rejected_wires]
    print(f"   acks b refused, by sender: {refused}")
    qp = QueryProcessor(dep)
    res = qp.why(best_cost("b", "e", 3))
    view = qp.mq.view_of("c")
    print(f"   c's view: {view.status} ({view.verdict_reason})")
    print(f"   faulty: {res.faulty_nodes()}")


def doctored_checkpoint():
    _banner("8. Doctored checkpoint -> a replica cannot turn its origin "
            "red")
    dep = Deployment(seed=48)
    nodes = build_paper_network(dep, node_overrides={"c": SilentNode})
    c = nodes["c"]
    c.refuse_retrieve = c.refuse_consistency = False
    dep.run()
    dep.enable_replication(2.0)
    auditor = QueryProcessor(dep)
    dep.register_querier(auditor)
    auditor.prefetch()
    c.checkpoint()
    gone = link("c", "b", 2)
    c.delete(gone)
    dep.run()
    auditor.refresh()
    dep.run_gc(checkpoint=False)   # the mirrors now start at c's chk
    for replica in dep.nodes.values():
        copy = replica.mirror_of("c")
        if copy is not None:       # serve c's checkpoint without the link
            chk = copy.entries[0]
            snapshot = chk.aux["snapshot"]
            store = dict(snapshot["store"])
            store["base"] = {t: n for t, n in store["base"].items()
                             if t != gone}
            copy.entries[0] = LogEntry(
                chk.index, chk.timestamp, chk.entry_type, chk.content,
                chk.content_hash, chk.entry_hash,
                aux=dict(chk.aux, snapshot=dict(snapshot, store=store)))
    c.refuse_retrieve = True       # c crashes
    qp = QueryProcessor(dep, use_checkpoints=True)
    res = qp.why_disappear(cost("d", "b", "c", 7), node="d")
    view = qp.mq.view_of("c")
    print(f"   c's view: {view.status} ({view.verdict_reason})")
    print(f"   suspects: {res.suspect_nodes()}  "
          f"(proven faulty: {res.faulty_nodes()})")


if __name__ == "__main__":
    fabrication()
    tampering()
    equivocation()
    refusal()
    suppression()
    input_lying()
    misreception()
    doctored_checkpoint()
    print("\nDone. Every *detectable* fault produced red/yellow evidence; "
          "the input lie (by design) did not.")
