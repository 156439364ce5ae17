"""Application-scale scenario builders shared by the tier-1 suites.

One copy of the three application families the paper evaluates — a
tiered-AS BGP network under a RouteViews-style stream (the Quagga
stand-in), a Chord ring, a WordCount job — and of the three standing-audit
triples ``(name, deployment, query, run_further)`` built on them: *query*
asks one macroquery of a ``QueryProcessor``, *run_further* makes the
deployment run on so a refresh has a suffix to fetch. Callers:
``test_paper_figures.py`` (the five §7.1 configurations),
``test_incremental_audit.py``, ``test_view_batches.py``,
``test_audit_contract.py`` and ``test_checkpoint_gc.py``. :func:`fingerprint` is the one projection of
a query result that two audits of the same state are compared on,
:func:`forged_checkpoint` the one doctored ``chk`` entry the adversary
suites serve, :class:`Withholder` the peer that keeps the
consistency channel quiet (:func:`fork_then_run_on` forks behind it),
and :func:`app_deployments` one small deployment of each of the five
applications.

Each runner returns a :class:`Scenario` carrying a *nominal duration*: the
wall-clock time the paper's workload rate implies for the work executed
(Quagga: 1,350 route updates/min; Chord: one stabilization round per 50 s;
Hadoop: the paper's measured job runtimes). Per-minute figures divide by
it, so the *shape* of a comparison matches the paper's even though the
simulator compresses time.
"""

import random

from repro.apps import pathvector
from repro.apps.bgp import BgpNetwork, originate, route
from repro.apps.chord import ChordNetwork
from repro.apps.mapreduce import COMBINED, WordCountJob
from repro.apps.mincost import build_paper_network, link
from repro.crypto.hashing import content_digest
from repro.snp import Deployment
from repro.snp.adversary import SilentNode
from repro.snp.log import CHK, LogEntry
from repro.workloads import RouteViewsTrace, ZipfCorpus, tiered_as_topology

QUAGGA_UPDATES_PER_MINUTE = 1350.0
CHORD_STABILIZATION_PERIOD_S = 50.0
HADOOP_SMALL_RUNTIME_S = 79.0
HADOOP_LARGE_RUNTIME_S = 255.0


def fingerprint(result):
    """A query result as ``sorted((vertex key, colour))``: what two audits
    of the same state must agree on, vertex by vertex."""
    return sorted((str(v.key()), v.color) for v in result.graph.vertices())


def forged_checkpoint(chk, base, recommit=True):
    """A copy of ``chk`` entry *chk* whose snapshot's store holds the
    base-tuple counts *base* (a count of 0 drops the tuple). With
    *recommit*, the content commits to the forged snapshot's digest.
    Either way the entry's content digest and chain hash are the honest
    ones: re-hashing the content tells a recommitted forgery, re-hashing
    the snapshot any other."""
    snapshot = chk.aux["snapshot"]
    store = dict(snapshot["store"])
    store["base"] = {t: n for t, n in {**store["base"], **base}.items()
                     if n}
    snapshot = dict(snapshot, store=store)
    content = ("checkpoint", content_digest(snapshot)) if recommit \
        else chk.content
    return LogEntry(chk.index, chk.timestamp, CHK, content,
                    chk.content_hash, chk.entry_hash,
                    aux=dict(chk.aux, snapshot=snapshot))


class Withholder(SilentNode):
    """A peer that serves its log but refuses the consistency check: what
    a test deploys to keep the consistency channel quiet (the querier has
    no switch for it)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.refuse_retrieve = False


def withholding_peers(**overrides):
    """MinCost ``node_overrides``: every paper-network node a
    :class:`Withholder`, but those named in *overrides*."""
    return dict({node: Withholder for node in "abcde"}, **overrides)


def fork_then_run_on(dep, nodes, forker="a", inserts=40):
    """*forker* forks its log at entry 3, then logs *inserts* inserts on
    the new branch; its peers' logs still hold its authenticators on the
    old one."""
    nodes[forker].fork_log(keep_upto=3)
    for cost in range(100, 100 + inserts):
        nodes[forker].insert(link(forker, "f", cost))
    dep.run()


class Scenario:
    def __init__(self, name, deployment, nominal_duration_s, **extra):
        self.name = name
        self.deployment = deployment
        self.nominal_duration_s = nominal_duration_s
        self.__dict__.update(extra)

    @property
    def traffic(self):
        return self.deployment.traffic


def run_quagga(n_updates=120, seed=0, t_batch=0.0):
    """Tiered-AS BGP under a synthetic RouteViews-style update stream."""
    dep = Deployment(seed=seed, key_bits=256, t_batch=t_batch)
    daemons, _prefixes = tiered_as_topology(n_tier1=2, n_mid=3, n_stub=5,
                                            seed=seed)
    net = BgpNetwork(dep)
    by_prefix = {}
    for daemon in daemons:
        net.add_as(daemon)
        for prefix in daemon.originated:
            by_prefix[prefix] = daemon.asn
    net.converge(max_rounds=20)

    trace = RouteViewsTrace(n_updates=n_updates,
                            n_prefixes=len(by_prefix), seed=seed)
    # Map synthetic trace prefixes onto the stubs' prefixes round-robin.
    stub_prefixes = sorted(by_prefix)
    applied = 0
    for index, event in enumerate(trace.events()):
        prefix = stub_prefixes[index % len(stub_prefixes)]
        asn = by_prefix[prefix]
        daemon = net.daemons[asn]
        node = dep.node(asn)
        if event.kind == "announce" and prefix not in daemon.originated:
            daemon.originated.add(prefix)
            node.insert(originate(asn, prefix))
            applied += 1
        elif event.kind == "withdraw" and prefix in daemon.originated:
            daemon.originated.discard(prefix)
            node.delete(originate(asn, prefix))
            applied += 1
        if applied % 10 == 0:
            net.converge(max_rounds=6)
    net.converge(max_rounds=10)
    nominal = max(1.0, 60.0 * n_updates / QUAGGA_UPDATES_PER_MINUTE)
    return Scenario("Quagga", dep, nominal, net=net)


def run_chord(n_nodes=16, rounds=3, lookups=8, seed=0):
    """A Chord ring: bootstrap, periodic stabilization, lookups.

    Matching the paper's measurements of a stabilized ring, the traffic
    meter is reset and the log sizes recorded (``log_baseline``) after
    bootstrap plus one warm-up round, so the one-time membership flood
    does not masquerade as per-round cost.
    """
    dep = Deployment(seed=seed, key_bits=256)
    net = ChordNetwork(dep, n_nodes=n_nodes, ring_bits=12, seed=seed)
    net.bootstrap(neighbors=2)
    net.stabilize(rounds=1)  # warm-up: gossip flood settles
    dep.traffic.reset()
    log_baseline = {name: node.log.size_bytes()
                    for name, node in dep.nodes.items()}
    net.stabilize(rounds=rounds)
    rng = random.Random(seed)
    for index in range(lookups):
        source = net.members[rng.randrange(len(net.members))][0]
        key = rng.randrange(net.size)
        net.lookup(source, key, f"bench-{index}")
    nominal = max(1.0, rounds * CHORD_STABILIZATION_PERIOD_S)
    return Scenario(f"Chord-{n_nodes}", dep, nominal, net=net,
                    log_baseline=log_baseline)


def run_hadoop(n_words=1200, n_mappers=4, n_reducers=2, seed=0,
               corrupt=False, granularity=COMBINED,
               runtime_s=HADOOP_SMALL_RUNTIME_S):
    """A WordCount job over a Zipf corpus; with *corrupt*, the last
    mapper inflates its count of "squirrel" (the paper's §7.2 fault)."""
    dep = Deployment(seed=seed, key_bits=256)
    corrupt_spec = (
        {f"map{n_mappers - 1}": {"target_word": "squirrel",
                                 "extra_count": 200}}
        if corrupt else None
    )
    job = WordCountJob(dep, {}, n_mappers=n_mappers, n_reducers=n_reducers,
                       granularity=granularity,
                       corrupt_mappers=corrupt_spec)
    corpus = ZipfCorpus(n_words=n_words, vocabulary=max(50, n_words // 20),
                        seed=seed, planted={"squirrel": 7})
    results = job.run(corpus.splits(n_mappers))
    return Scenario(f"Hadoop-{n_mappers}m", dep, runtime_s, job=job,
                    results=results, corpus=corpus)


def app_deployments(seed=7):
    """``{name: deployment}``: one small, settled deployment of each of
    the five applications — MinCost, path-vector, Chord, BGP and
    WordCount."""
    mincost = Deployment(seed=seed, key_bits=256)
    build_paper_network(mincost)
    mincost.run()
    paths = Deployment(seed=seed, key_bits=256)
    pathvector.build_network(paths, [("a", "b"), ("b", "c"), ("c", "d"),
                                     ("a", "d")])
    return {
        "mincost": mincost,
        "pathvector": paths,
        "chord": run_chord(n_nodes=6, rounds=1, lookups=2,
                           seed=seed).deployment,
        "bgp": run_quagga(n_updates=12, seed=seed).deployment,
        "hadoop": run_hadoop(n_words=120, seed=seed).deployment,
    }


# ------------------------------------------------- standing-audit triples


def chord_scenario(n_nodes=10, rounds=2, lookups=2, seed=7):
    """Audit a lookup result; the run-on is one more stabilization round
    plus a lookup."""
    scen = run_chord(n_nodes=n_nodes, rounds=rounds, lookups=lookups,
                     seed=seed)
    net = scen.net
    source = net.members[0][0]
    target = net.lookup(source, net.size // 3, "audit-probe")[0]

    def query(qp):
        return qp.why(target, node=source, scope=6)

    def run_further():
        net.stabilize(rounds=1)
        net.lookup(net.members[1][0], net.size // 2, "audit-post")

    return f"chord@{n_nodes}", scen.deployment, query, run_further


def bgp_scenario(n_updates=24, extra_prefixes=1, seed=7):
    """Audit a stub's originated prefix at a transit AS — stable under
    the run-on, which only announces *new* prefixes and re-converges."""
    scen = run_quagga(n_updates=n_updates, seed=seed)
    dep, net = scen.deployment, scen.net
    asn = sorted(net.daemons)[0]
    table = net.routing_table(asn)
    prefix = sorted(table)[0]
    target = route(asn, prefix, table[prefix][0])

    def query(qp):
        return qp.why(target, scope=12)

    def run_further():
        origin_asn = sorted(net.daemons)[-1]
        for k in range(extra_prefixes):
            fresh = f"audit-prefix-{k}"
            net.daemons[origin_asn].originated.add(fresh)
            dep.node(origin_asn).insert(originate(origin_asn, fresh))
        net.converge(max_rounds=10)

    return f"bgp@{n_updates}", dep, query, run_further


def hadoop_scenario(n_words=300, seed=7):
    """Audit the most frequent word's count; the run-on is a second,
    smaller job wave on the same workers."""
    scen = run_hadoop(n_words=n_words, seed=seed)
    job = scen.job
    word = max(sorted(scen.results), key=lambda w: scen.results[w])
    target = job.output_tuple_for(word)

    def query(qp):
        return qp.why(target, scope=8)

    def run_further():
        job.job_id = "job-audit-2"
        extra = ZipfCorpus(n_words=max(80, n_words // 4),
                           vocabulary=max(50, n_words // 20),
                           seed=seed + 1)
        job.run(extra.splits(len(job.mappers)))

    return f"hadoop@{n_words}", scen.deployment, query, run_further


#: The three families at CI size, by name (for ``parametrize``).
APPLICATION_SCENARIOS = {
    "chord": chord_scenario,
    "bgp": bgp_scenario,
    "hadoop": hadoop_scenario,
}
