"""Scenario builders shared by the tier-1 suites.

One copy of the three application families the paper evaluates — a
tiered-AS BGP network under a RouteViews-style stream (the Quagga
stand-in), a Chord ring, a WordCount job — and of the three standing-audit
triples ``(name, deployment, query, run_further)`` built on them: *query*
asks one macroquery of a ``QueryProcessor``, *run_further* makes the
deployment run on so a refresh has a suffix to fetch. :data:`CORPUS` is
the one adversary table: every lie the tests stage, honest runs
included, built by :func:`mincost` on :func:`paper_network` (the suites'
one build of the paper's MinCost network) or on the three families,
with the verdict an audit must reach. Callers:
``test_audit_contract.py`` (every promise of the audit, every row),
``test_adversaries.py`` (what a verdict does not show), the gallery in
``examples/adversary_gallery.py`` (one verdict line per row),
``test_paper_figures.py`` (the five §7.1 configurations),
``test_incremental_audit.py``, ``test_view_batches.py``,
``test_checkpoint_gc.py`` and ``test_verify_once.py``; the suites that
need only the plain paper network call :func:`paper_network`.
:func:`fingerprint` is the one projection of
a query result that two audits of the same state are compared on,
:func:`forged_checkpoint` the one doctored ``chk`` entry the adversary
suites serve, :class:`Withholder` the peer that keeps the
consistency channel quiet (:func:`fork_then_run_on` forks behind it),
and :func:`app_deployments` one small deployment of each of the five
applications, :func:`shipped_programs` their five ``Program`` objects.

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
from repro.apps.mincost import (
    best_cost, build_paper_network, cost, link, mincost_factory,
)
from repro.crypto.hashing import chain_hash, content_digest
from repro.model import Blob, Msg, Tup
from repro.snp import Deployment, QueryProcessor
from repro.snp.adversary import (
    FabricatorNode, ForkingNode, MisexecutingNode, MisreceivingNode,
    OverTruncatingNode, SilentNode, SuppressorNode, TamperingNode,
)
from repro.snp.commitment import (
    WireAck, WireBatch, ack_entry_content, rcv_entry_content,
)
from repro.snp.evidence import Authenticator, sign_authenticator
from repro.snp import log as snp_log
from repro.snp.log import ACK, CHK, INS, RCV, SND, LogEntry
from repro.snp.snoopy import RetrieveResponse, SNooPyNode
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
    job = WordCountJob(dep, n_mappers=n_mappers, n_reducers=n_reducers,
                       granularity=granularity, corrupt_mappers=corrupt_spec)
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


def shipped_programs():
    """``{name: Program}`` for every built-in application: the four
    Datalog programs plus MapReduce's rule-less schema program."""
    from repro.apps.bgp import bgp_proxy_program
    from repro.apps.chord import chord_program
    from repro.apps.mapreduce import mapreduce_schema_program
    from repro.apps.mincost import mincost_program
    from repro.apps.pathvector import pathvector_program
    return {
        "mincost": mincost_program(),
        "pathvector": pathvector_program(),
        "chord": chord_program(),
        "bgp": bgp_proxy_program(),
        "mapreduce": mapreduce_schema_program(),
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


# ------------------------------------------------------- adversary corpus


class Row:
    """One corpus row: a run, honest or not, and the verdict the paper
    says an audit of it reaches.

    *build* returns ``(deployment, query, run_further)`` — the shape of
    :data:`APPLICATION_SCENARIOS` — on a fresh deployment; *adversaries*
    are the nodes allowed to turn red; *views* maps each view that is not
    ``ok`` after a prefetch to ``(status, reason)``, *reason* a substring
    of its ``verdict_reason``; *faulty* and *suspects* the query's
    ``faulty_nodes()`` and ``suspect_nodes()``. *holes* maps a promise
    the audit breaks on this row today — ``"verdict"``,
    ``"batch-grouping"`` or ``"checkpoint-seeded"`` — to why; the
    contract's tests of it are strict xfails on the row."""

    def __init__(self, build, adversaries=(), views=None, faulty=(),
                 suspects=None, holes=None, **qp_kwargs):
        self.build = build
        self.adversaries = frozenset(adversaries)
        self.views = views or {}
        self.faulty = sorted(faulty)
        self.suspects = sorted(self.faulty if suspects is None else suspects)
        self.holes = holes or {}
        self.qp_kwargs = qp_kwargs

    def processor(self, dep):
        return QueryProcessor(dep, **self.qp_kwargs)


def paper_network(seed=77, overrides=None, t_batch=0.0):
    """The paper's five-router MinCost network with *overrides*, run to
    quiescence: ``(deployment, nodes)``."""
    dep = Deployment(seed=seed, key_bits=256, t_batch=t_batch)
    nodes = build_paper_network(dep, node_overrides=dict(overrides or {}))
    dep.run()
    return dep, nodes


def mincost(seed=77, overrides=None, setup=None,
            query=lambda qp: qp.why(best_cost("c", "d", 5), scope=5),
            after_run=None, t_batch=0.0):
    """The corpus's MinCost builder: :func:`paper_network`, then
    *setup(dep, nodes)*, and *query*; the run-on adds a link at ``a``,
    then applies *after_run*."""
    def build():
        dep, nodes = paper_network(seed, overrides, t_batch)
        if setup is not None:
            setup(dep, nodes)

        def run_further():
            nodes["a"].insert(link("a", "z", 2))
            dep.run()
            if after_run is not None:
                after_run(dep, nodes)

        return dep, query, run_further
    return build


def _family(scenario, **kwargs):
    def build():
        _name, dep, query, run_further = scenario(**kwargs)
        return dep, query, run_further
    return build


class _TwoFacedNode(SNooPyNode):
    """Serves its real log to a checkpoint-mode audit and a fork of it —
    the head entry re-timed, everything below intact, the new head duly
    signed — to the anchoring fetch that follows in the same batch."""

    def retrieve(self, from_checkpoint=False, since_index=None):
        response = super().retrieve(from_checkpoint, since_index)
        if from_checkpoint or since_index is not None:
            return response
        *kept, head = response.entries
        timestamp = head.timestamp + 1e-7
        forked = chain_hash(kept[-1].entry_hash, timestamp, head.entry_type,
                            head.content_hash)
        head = LogEntry(head.index, timestamp, head.entry_type, head.content,
                        head.content_hash, forked, aux=head.aux)
        return RetrieveResponse(
            response.node, kept + [head], response.start_index,
            response.start_hash,
            sign_authenticator(self.identity, head.index, timestamp, forked))


class ForkThenCrashNode(ForkingNode, SilentNode):
    """Forks its log, lets the replicas mirror the fork, then crashes."""


class _ForgedCheckpointNode(SNooPyNode):
    """Serves a checkpoint-mode audit its real checkpoint with one base
    tuple added to the snapshot and the content's snapshot digest
    recomputed to match (:func:`forged_checkpoint`); the entry's digests,
    and the log itself, are untouched."""

    def retrieve(self, from_checkpoint=False, since_index=None):
        response = super().retrieve(from_checkpoint, since_index)
        if response.seed is not None:
            response.entries[0] = forged_checkpoint(
                response.seed, {link("c", "evil", 1): 1})
        return response


class _SplitDoctoringNode(SNooPyNode):
    """A mapper that serves its log with each mapTask's split blob
    rebuilt by :meth:`doctor` — in copied entries, its own log untouched.
    The blob commits to its digest alone, so every digest, hash and
    signature stays the mapper's."""

    def retrieve(self, from_checkpoint=False, since_index=None):
        response = super().retrieve(from_checkpoint, since_index)
        response.entries = [self._doctored(e) for e in response.entries]
        return response

    def _doctored(self, entry):
        tup = entry.content
        if entry.entry_type != INS or tup.relation != "mapTask":
            return entry
        job, split_id, split, reducers = tup.args
        return LogEntry(entry.index, entry.timestamp, INS,
                        Tup(tup.relation, tup.loc, job, split_id,
                            self.doctor(split), reducers),
                        entry.content_hash, entry.entry_hash, entry.aux)


class _SplitReplacingNode(_SplitDoctoringNode):
    @staticmethod
    def doctor(split):
        return Blob(split.digest, split.text + " squirrel")


class SplitStrippingNode(_SplitDoctoringNode):
    @staticmethod
    def doctor(split):
        return Blob(split.digest, None)


def hadoop_mapper_serving(node_cls):
    """The small honest WordCount job, its mapper ``map1`` serving its
    log as *node_cls* does (the job adds its own nodes, so the class is
    swapped in once it has run)."""
    def build():
        _name, dep, query, run_further = hadoop_scenario(n_words=120)
        dep.node("map1").__class__ = node_cls
        return dep, query, run_further
    return build


def _mapper_forks():
    """The small honest WordCount job; ``map1`` then forks its log after
    entry 1 (its only evidence holders, the reducers, sort after it)."""
    build = hadoop_mapper_serving(ForkingNode)

    def fork():
        dep, query, run_further = build()
        dep.node("map1").fork_log(keep_upto=1)
        return dep, query, run_further
    return fork


class _SelfDoctoringNode(SNooPyNode):
    """Checkpoints a snapshot of its own machine with every send counter
    moved on — committed and signed like any entry — and runs on with its
    real state."""

    def checkpoint(self):
        snapshot = self.app.snapshot()
        seq = {dst: count + 100 for dst, count in snapshot["seq"].items()}
        self.log.append_checkpoint(self._next_time(),
                                   dict(snapshot, seq=seq))


class _Misreceiver(MisreceivingNode):
    """Withholds its ack of the batch it misreceived, too."""

    withhold_ack = True


# The lies. Each is a ``setup(dep, nodes)``; unless it says otherwise the
# liar is ``b``, and a lie at its log's head is the smallest edit that
# leaves every authenticator ``b`` issued on its chain, so that no check
# but the one the row names fires.


def _fabricate(polarity, tup):
    def setup(dep, nodes):
        nodes["b"].fabricate(polarity, tup, "c")
        dep.run()
    return setup


def _fork(run_on):
    def setup(dep, nodes):
        nodes["b"].fork_log(keep_upto=3)
        if run_on:
            nodes["b"].insert(link("b", "e", 9))
            dep.run()
    return setup


def _tamper(recompute_chain):
    def setup(_dep, nodes):
        nodes["b"].tamper_entry(2, ("rewritten-history",),
                                recompute_chain=recompute_chain)
    return setup


def rewrite_first_insert(_dep, nodes):
    """``b`` rewrites its first ``ins`` entry to a costlier tuple and
    rebuilds its chain: a lie every check but the consistency check
    accepts."""
    b = nodes["b"]
    entry = next(e for e in b.log.entries if e.entry_type == INS)
    tup = entry.content
    b.tamper_entry(entry.index, Tup(tup.relation, tup.loc, *tup.args[:-1],
                                    tup.args[-1] + 1),
                   recompute_chain=True)


def _misexecute(dep, nodes):
    """``b`` swaps in a program that never advertises a route
    (``max_cost=1`` blocks every R2 derivation), gets a new link, and a
    later input commits it to having sent nothing for it."""
    b = nodes["b"]
    corrupt = mincost_factory(max_cost=1)("b")
    corrupt.restore(b.app.snapshot())
    b.install_corrupt_app(corrupt)
    for k in (1, 2):
        b.insert(link("b", "e", k))
        dep.run()


def _suppress(dep, nodes):
    """b's link to d gets worse; the resulting updates to c are dropped."""
    nodes["b"].suppress_to.add("c")
    nodes["b"].delete(link("b", "d", 3))
    dep.run()


def _lie_about_an_input(dep, nodes):
    """A phantom cheap link: an insert like any other (paper §4.2)."""
    nodes["b"].insert(link("b", "d", 1))
    dep.run()


def _two_adversaries(dep, nodes):
    _fabricate("+", cost("c", "d", "b", 1))(dep, nodes)
    nodes["e"].tamper_entry(1, ("gone",))


def _checkpoint_then_run(dep, nodes):
    dep.checkpoint_all()
    nodes["a"].insert(link("a", "y", 4))
    dep.run()


def _truncate_past_the_floor(dep, nodes):
    """A standing auditor sets floors; ``b`` then truncates past them."""
    auditor = QueryProcessor(dep)
    dep.register_querier(auditor)
    auditor.prefetch()
    dep.checkpoint_all()
    nodes["a"].insert(link("a", "z", 2))
    dep.run()
    auditor.refresh()
    dep.checkpoint_all()
    nodes["b"].insert(link("b", "y", 9))
    dep.run()
    dep.run_gc(checkpoint=False)
    dep.unregister_querier(auditor)


def _crash_after_mirroring(dep, nodes):
    nodes["b"].refuse_retrieve = False
    dep.replicate_deltas()
    nodes["b"].refuse_retrieve = True


def _past_the_head(stretch):
    """*stretch* (a copy or a served segment of b's log) gains one
    ``snd`` of ``+cost(@c,d,b,1)`` past its head, chained on, under the
    head authenticator it had."""
    head = stretch.head_index
    t = stretch.entries[-1].timestamp + 1.0
    msg = Msg("+", cost("c", "d", "b", 1), "b", "c", 999, t)
    stretch.entries.append(snp_log.link(stretch.hash_at(head), LogEntry(
        head + 1, t, SND, (msg, "c"), None, None)))


def _for_its_bytes(kind):
    """Swap the first *kind* entry's tuple — an ``ins`` entry's, or the
    message's of a ``snd`` — for its canonical tuple, which encodes to
    the same bytes: every digest, hash and signature stays b's."""
    def doctor(copy):
        at, entry = next((at, e) for at, e in enumerate(copy.entries)
                         if e.entry_type == kind)
        if kind == INS:
            content = entry.content.canonical()
        else:
            msg, dst = entry.content
            content = (Msg(msg.polarity, msg.tup.canonical(), msg.src,
                           msg.dst, msg.seq, msg.t_sent), dst)
        copy.entries[at] = LogEntry(entry.index, entry.timestamp, kind,
                                    content, entry.content_hash,
                                    entry.entry_hash)
    return doctor


def _crash_behind_lying_mirrors(doctor):
    """b's replicas mirror its log, then each *doctor*s its copy — a
    fresh entry list, b's own log untouched — and b crashes."""
    def setup(dep, nodes):
        _crash_after_mirroring(dep, nodes)
        for node in dep.nodes.values():
            if node.mirror_of("b") is not None:
                doctor(node.mirror_of("b"))
    return setup


class _PastItsHeadNode(SNooPyNode):
    """Serves one entry more than its head authenticator signs."""

    def retrieve(self, from_checkpoint=False, since_index=None):
        response = super().retrieve(from_checkpoint, since_index)
        _past_the_head(response)
        return response


def _log_rcv(b, auth, seq=999, h_start=b"\xcd" * 32, t=None):
    """b logs, at its head, a message from ``auth.node`` under *auth*."""
    t = b._next_time() if t is None else t
    msg = Msg("+", cost("b", "d", auth.node, 1), auth.node, "b", seq, t)
    batch = WireBatch(auth.node, "b", [], [], auth.index, h_start, auth)
    b.log.append(t, RCV, rcv_entry_content(msg, batch))


def _rcv_under_a_bogus_authenticator(signer, index):
    """check: the embedded-authenticator loop — its signature check, or
    for an unregistered *signer* its registered-key guard."""
    def setup(_dep, nodes):
        b = nodes["b"]
        t = b._next_time()
        _log_rcv(b, Authenticator(signer, index, t, b"\xab" * 32,
                                  b"\x01" * 32), t=t)
    return setup


def _misreceive(anchor=None):
    """check: ``check_receipts`` — b logs its first one-entry batch's
    message again under the genuine authenticator, with the cost raised
    by 50 (no *anchor*) or with an ``h_start`` that is no 32-byte digest
    (*anchor* ``"in hex"`` or ``"short"``), which re-chains to nothing."""
    def setup(_dep, nodes):
        b = nodes["b"]
        genuine = next(e for e in b.log.entries if e.entry_type == RCV)
        msg = genuine.content[0]
        auth = Authenticator(msg.src, *genuine.content[4:])
        h_start, start_index = genuine.content[2:4]
        if anchor is None:
            tup = msg.tup
            msg = Msg(msg.polarity, Tup(tup.relation, tup.loc,
                                        *tup.args[:-1], tup.args[-1] + 50),
                      msg.src, msg.dst, msg.seq, msg.t_sent)
        elif anchor == "in hex":
            h_start = h_start.hex()
        else:
            h_start = h_start[:31]
        batch = WireBatch(msg.src, "b", [], [], start_index, h_start, auth)
        b.log.append(b._next_time(), RCV, rcv_entry_content(msg, batch))
    return setup


def _reuse_a_verified_signature(doctor):
    """check: the batch's signature memo (``build.verify_auth``) is keyed
    on the payload bytes, the signature bytes and the verifying key — b
    logs a genuine authenticator of a's, then a copy of its signature
    over a doctored payload (or claimed as c's acknowledgment)."""
    def setup(dep, nodes):
        b = nodes["b"]
        a_head = nodes["a"].log.entry(len(nodes["a"].log))
        genuine = sign_authenticator(dep.identity_of("a"), a_head.index, 5.0,
                                     a_head.entry_hash)
        _log_rcv(b, genuine, 998, h_start="cd" * 32)  # memoized first
        if doctor == "signer":
            wire_ack = WireAck("c", "b", None, [], [], 1, "cd" * 32, genuine,
                               [])
            b.log.append(b._next_time(), ACK, ack_entry_content(wire_ack),
                         aux={"wire_ack": wire_ack})
            return
        index, timestamp, entry_hash = {
            "index": (a_head.index + 1, 5.0, a_head.entry_hash),
            "hash": (a_head.index, 5.0, "ab" * 32),
            "timestamp": (a_head.index, 6.0, a_head.entry_hash),
            # equal to 5.0 in Python, a different payload in bytes
            "int-timestamp": (a_head.index, 5, a_head.entry_hash),
        }[doctor]
        _log_rcv(b, Authenticator("a", index, timestamp, entry_hash,
                                  genuine.signature), 999, h_start="cd" * 32)
    return setup


def _mistype_a_rcv_field(field):
    """check: the field types of ``check_parsed_forms``' ``rcv`` branch —
    b logs a genuine authenticator of a's with its index a float or its
    signature in hex, which the settling and signature checks would
    otherwise take as they are."""
    def setup(dep, nodes):
        a_head = nodes["a"].log.entry(len(nodes["a"].log))
        genuine = sign_authenticator(dep.identity_of("a"), a_head.index, 5.0,
                                     a_head.entry_hash)
        index, signature = genuine.index, genuine.signature
        if field == "index":
            index = float(index)
        else:
            signature = signature.hex()
        _log_rcv(nodes["b"], Authenticator("a", index, 5.0,
                                           a_head.entry_hash, signature))
    return setup


def _doctor_the_checkpoint(lie):
    """check: ``check_parsed_forms`` on the replay seed — b checkpoints,
    then the snapshot it serves no longer hashes to the digest its chk
    entry commits to: a tuple re-dated, a tuple dropped, or no snapshot."""
    def setup(_dep, nodes):
        b = nodes["b"]
        b.checkpoint()
        chk = b.log.entries[-1]
        snapshot = chk.aux["snapshot"]
        tup = next(iter(snapshot["store"]["base"]))
        if lie == "re-dated":
            appeared = dict(snapshot["store"]["appeared"])
            appeared[tup] += 1.0
            chk.aux = dict(chk.aux, snapshot=dict(snapshot, store=dict(
                snapshot["store"], appeared=appeared)))
        elif lie == "dropped":
            b.log.entries[-1] = forged_checkpoint(chk, {tup: 0},
                                                  recommit=False)
        else:
            chk.aux = {key: value for key, value in chk.aux.items()
                       if key != "snapshot"}
    return setup


def _checkpoint_a_doctored_state(dep, nodes):
    """check: the replay's ``chk`` comparison — b checkpoints a state its
    machine never had (:class:`_SelfDoctoringNode`), then takes a new
    link and runs on honestly."""
    b = nodes["b"]
    b.checkpoint()
    b.insert(link("b", "e", 1))
    dep.run()


def _log_its_own_message_misdated(dep, nodes):
    """check: the ``rcv`` send-time type of ``check_parsed_forms`` — b
    logs a message from itself, dated by a string, under its own genuine
    head authenticator (a batch of two, which ``check_receipts`` leaves),
    then takes a new link. Only the GCA reads the date: the send vertex
    of a message from the replayed node itself waits for its ack, and the
    next input compares its time with the deadline."""
    b = nodes["b"]
    head = b.log.entry(len(b.log))
    auth = sign_authenticator(b.identity, head.index, head.timestamp,
                              head.entry_hash)
    msg = Msg("+", cost("b", "d", "b", 1), "b", "b", 999, "soon")
    batch = WireBatch("b", "b", [], [], head.index - 1,
                      b.log.hash_at(head.index - 2), auth)
    b.log.append(b._next_time(), RCV, rcv_entry_content(msg, batch))
    b.insert(link("b", "q", 4))
    dep.run()


def _commit_an_unrestorable_snapshot(_dep, nodes):
    """check: the REPLAY_FAILED verdict, for a seed."""
    b = nodes["b"]
    b.log.append_checkpoint(b._next_time(), {"seq": {}})


def _log_a_crashing_insert(_dep, nodes):
    """check: the REPLAY_FAILED verdict."""
    b = nodes["b"]
    bomb = link("b", "q", "not-a-number")
    b.log.append(b._next_time(), INS, bomb)


def _doctor_cs_mirrored_checkpoint(dep, nodes):
    """check: ``check_parsed_forms`` on a mirror's replay seed. c
    checkpoints, deletes a link and honestly retracts what it derived
    from it; c's GC'd mirrors serve c's chk with the link dropped from
    the snapshot, then c crashes. Seeded from that snapshot, c's
    retractions would be sends its machine never produced."""
    c, gone = nodes["c"], link("c", "b", 2)
    c.refuse_retrieve = c.refuse_consistency = False
    dep.enable_replication(2.0)
    auditor = QueryProcessor(dep)
    dep.register_querier(auditor)
    auditor.prefetch()
    c.checkpoint()
    c.delete(gone)
    dep.run()
    auditor.refresh()
    dep.run_gc(checkpoint=False)
    dep.unregister_querier(auditor)
    copies = [n.mirror_of("c") for n in dep.nodes.values()
              if n.mirror_of("c") is not None]
    assert copies and all(copy.entries[0].entry_type == CHK
                          for copy in copies)
    for copy in copies:
        copy.entries[0] = forged_checkpoint(copy.entries[0], {gone: 0},
                                            recommit=False)
    c.refuse_retrieve = True


def fork_behind_withholders(dep, nodes):
    """``b`` forks at entry 3 and runs on; its peers refuse the
    consistency check, so only the authenticators their logs carry can
    expose the fork."""
    b = nodes["b"]
    b.refuse_retrieve = b.refuse_consistency = False
    b.fork_log(keep_upto=3)
    b.insert(link("b", "q", 4))
    dep.run()


def _fork_then_crash(dep, nodes):
    fork_behind_withholders(dep, nodes)
    dep.replicate_deltas()
    nodes["b"].refuse_retrieve = True


_FAULTY = "proven-faulty"
_MISSING = "unreachable"
_EQUIVOCATION = "does not match the log (equivocation or tampering)"
_BAD_SIGNATURE = "authenticator from 'a' has an invalid signature"
_RECEIPT = "rcv entry 69 logs a message 'a' did not sign"
_MISRECEIVED = "rcv entry 1 logs a message 'b' did not sign"
_DIGEST = "entry 1 content does not match its digest"
_PAST_HEAD = "returned log ends at 69 but its head authenticator covers 68"
_CHK_SEED = ("chk entry 69's parsed form does not re-derive its committed "
             "content")


def _convicts_b(setup, reason, **qp_kwargs):
    """A head-of-log lie of b's that one conviction check names."""
    return Row(mincost(setup=setup), adversaries="b",
               views={"b": (_FAULTY, reason)}, faulty="b", **qp_kwargs)


def _bad_mirror(node, why):
    """The whole reason a view withholds judgment on *node* whose
    mirrors served a log that failed verification for *why*."""
    return f"bad mirror: log of node '{node}' failed verification: {why}"


#: Every lie the tests stage, and the verdict of an audit of it, by name.
#: ``test_audit_contract.py`` runs each of its promises over every row,
#: and ``examples/adversary_gallery.py`` prints one verdict line per row.
CORPUS = {
    "clean": Row(mincost()),
    # -- fabrication (paper §2.1): replay has no output for the send
    "fabricating": Row(
        mincost(overrides={"b": FabricatorNode},
                setup=_fabricate("+", cost("c", "d", "b", 1)),
                query=lambda qp: qp.why(best_cost("c", "d", 1), scope=5)),
        adversaries="b", faulty="b"),
    "fabricating-retraction": Row(
        mincost(overrides={"b": FabricatorNode},
                setup=_fabricate("-", cost("c", "d", "b", 5)),
                query=lambda qp: qp.why_disappear(cost("c", "d", "b", 5),
                                                  node="c")),
        adversaries="b", faulty="b"),
    "misexecuting": Row(
        mincost(seed=99, overrides={"b": MisexecutingNode},
                setup=_misexecute,
                query=lambda qp: qp.effects(link("b", "e", 1), scope=6)),
        adversaries="b", faulty="b",
        holes={"checkpoint-seeded": "b's checkpoint snapshots its corrupt "
               "machine: the full audit convicts b at that chk, so a query "
               "rooted at b has no full-audit answer, and the audit seeded "
               "from it convicts b of a send vertex the full audit never "
               "built"}),
    # The backward chain from c's stale belief is black; damage
    # assessment at b finds the suppressed -τ as a red send.
    "suppressing": Row(
        mincost(overrides={"b": SuppressorNode}, setup=_suppress,
                query=lambda qp: qp.effects(cost("c", "d", "b", 5), node="b",
                                         scope=4)),
        adversaries="b", faulty="b"),
    # -- tampering and equivocation
    "tampering": Row(
        mincost(overrides={"b": TamperingNode}, setup=_tamper(False)),
        adversaries="b", faulty="b",
        views={"b": (_FAULTY, "entry 2 content does not match its "
                              "digest")}),
    "rewritten-chain": Row(
        mincost(overrides={"b": TamperingNode}, setup=_tamper(True)),
        adversaries="b", faulty="b",
        views={"b": (_FAULTY, "rcv entry 2's parsed form does not "
                              "re-derive")}),
    "rewritten-insert": Row(
        mincost(overrides={"b": TamperingNode}, setup=rewrite_first_insert),
        adversaries="b", faulty="b", views={"b": (_FAULTY, _EQUIVOCATION)}),
    # An audit of b alone misses it (test_adversaries.py); its peers'
    # logs carry authenticators on the honest chain.
    "rewritten-insert-behind-withholders": Row(
        mincost(overrides=withholding_peers(b=TamperingNode),
                setup=rewrite_first_insert),
        adversaries="b", faulty="b", views={"b": (_FAULTY, _EQUIVOCATION)}),
    "forking": Row(
        mincost(overrides={"b": ForkingNode}, setup=_fork(False)),
        adversaries="b", faulty="b",
        views={"b": (_FAULTY, "returned log ends at 3 but evidence "
                              "covers 6")}),
    "forking-runs-on": Row(
        mincost(overrides={"b": ForkingNode}, setup=_fork(True)),
        adversaries="b", faulty="b", views={"b": (_FAULTY, _EQUIVOCATION)}),
    # The peers refuse the consistency check, so only the
    # authenticators their logs carry expose the fork — whether they are
    # held before the forker is built or after.
    "fork-behind-withholders": Row(
        mincost(overrides=withholding_peers(a=ForkingNode),
                setup=fork_then_run_on),
        adversaries="a", views={"a": (_FAULTY, _EQUIVOCATION)}),
    "fork-visible-only-in-evidence": Row(
        mincost(overrides=withholding_peers(b=ForkingNode),
                setup=fork_behind_withholders),
        adversaries="b", faulty="b", views={"b": (_FAULTY, _EQUIVOCATION)}),
    # A mirror's contradiction is not proof against its origin.
    "fork-served-by-a-mirror": Row(
        mincost(overrides=withholding_peers(b=ForkThenCrashNode),
                setup=_fork_then_crash),
        suspects="b",
        views={"b": (_MISSING, _bad_mirror(
            "b", "authenticator for entry 6 " + _EQUIVOCATION))}),
    "two-faced-anchor": Row(
        mincost(seed=85, overrides={"b": _TwoFacedNode},
                setup=_checkpoint_then_run),
        adversaries="b",
        views={"b": (_FAULTY, "anchoring segment does not pass through "
                              "the audited head")},
        use_checkpoints=True),
    # -- refusal, crashes and retention
    "silent": Row(
        mincost(overrides={"b": SilentNode}),
        suspects="b", views={"b": (_MISSING, "no response to retrieve")}),
    # The mirrors are refreshed with the run-on: a refresh keeps a
    # crashed node's stale view where a cold audit finds only stale
    # mirrors (test_incremental_audit.py pins that divergence).
    "mirrored-crash": Row(
        mincost(seed=300, overrides={"b": SilentNode},
                setup=_crash_after_mirroring,
                after_run=_crash_after_mirroring)),
    # A replica's entries past the signed head, or a tuple swapped for
    # its bytes-identical canonical tuple, cannot turn the origin red.
    "mirror-runs-past-the-head": Row(
        mincost(seed=300, overrides={"b": SilentNode},
                setup=_crash_behind_lying_mirrors(_past_the_head)),
        suspects="b", views={"b": (_MISSING, _bad_mirror("b", _PAST_HEAD))}),
    **{f"mirror-swaps-{kind}-tuple-for-its-bytes": Row(
        mincost(seed=300, overrides={"b": SilentNode},
                setup=_crash_behind_lying_mirrors(_for_its_bytes(kind))),
        suspects="b", views={"b": (_MISSING, _bad_mirror(
            "b", f"{kind} entry {index}'s parsed form does not re-derive"))})
       for kind, index in ((INS, 1), (SND, 3))},
    "checkpointed": Row(
        mincost(seed=83, setup=_checkpoint_then_run), use_checkpoints=True),
    # proven faulty, yet off the query's path: c's belief is seeded from
    # its own post-GC checkpoint
    "over-truncated": Row(
        mincost(seed=95, overrides={"b": OverTruncatingNode},
                setup=_truncate_past_the_floor),
        adversaries="b",
        views={"b": (_FAULTY, "does not reach the advertised retention "
                              "floor")}),
    # -- inputs (paper §4.2): not detectable, but on display
    "input-liar": Row(
        mincost(seed=55, setup=_lie_about_an_input,
                query=lambda qp: qp.why(best_cost("c", "d", 3))),
        adversaries="b"),
    "two-adversaries": Row(
        mincost(seed=101, overrides={"b": FabricatorNode,
                                     "e": TamperingNode},
                setup=_two_adversaries,
                query=lambda qp: qp.why(best_cost("c", "a", 4), scope=5)),
        adversaries="be", views={"e": (_FAULTY, _DIGEST)},
        faulty="e"),
    "two-adversaries-fabrication": Row(
        mincost(seed=101, overrides={"b": FabricatorNode,
                                     "e": TamperingNode},
                setup=_two_adversaries,
                query=lambda qp: qp.why(best_cost("c", "d", 1))),
        adversaries="be", views={"e": (_FAULTY, _DIGEST)},
        faulty="b"),
    # -- misreception: c logs b's first message, cost(@c,a,b,8), with the
    # cost raised to 58 under b's genuine authenticator; b's route to e
    # runs through c. b refuses the ack (and its log never says c acked
    # 58), and the rcv entry misses b's signed hash: c is convicted,
    # acked or not.
    "misreceiving-acked": Row(
        mincost(seed=7, overrides={"c": MisreceivingNode},
                query=lambda qp: qp.why(best_cost("b", "e", 3), scope=5)),
        adversaries="c", views={"c": (_FAULTY, _MISRECEIVED)},
        faulty="c"),
    "misreceiving-withheld": Row(
        mincost(seed=7, overrides={"c": _Misreceiver},
                query=lambda qp: qp.why(best_cost("b", "e", 3), scope=5)),
        adversaries="c", views={"c": (_FAULTY, _MISRECEIVED)},
        faulty="c"),
    # The same lie inside a three-message batch (b's entries 9-11): a rcv
    # entry carries neither its index in the batch's range nor the
    # range's gap metadata, so the querier cannot re-chain it, and b's
    # unacknowledged send convicts b.
    "misreceiving-batched": Row(
        mincost(seed=7, t_batch=0.05, overrides={"c": _Misreceiver},
                query=lambda qp: qp.why(cost("c", "a", "b", 58), scope=5)),
        adversaries="c", views={"c": (_FAULTY, _MISRECEIVED)},
        faulty="c",
        holes={"verdict": "a rcv entry of a longer batch cannot be "
                          "re-chained (ROADMAP)"}),
    # -- one row per conviction check no other row reaches: with the
    # check deleted, the row's verdict changes
    "rcv-under-an-unsigned-authenticator": _convicts_b(
        _rcv_under_a_bogus_authenticator("a", 99), _BAD_SIGNATURE),
    "rcv-of-its-own-message-misdated": _convicts_b(
        _log_its_own_message_misdated,
        "rcv entry 69's parsed form does not re-derive"),
    "rcv-under-an-unregistered-signer": _convicts_b(
        _rcv_under_a_bogus_authenticator("z", 1),
        "authenticator from unregistered node 'z'"),
    "rcv-of-an-unsigned-message": _convicts_b(_misreceive(), _RECEIPT),
    "rcv-anchor-in-hex": _convicts_b(_misreceive("in hex"), _RECEIPT),
    "rcv-anchor-short": _convicts_b(_misreceive("short"), _RECEIPT),
    "response-runs-past-the-head": Row(
        mincost(overrides={"b": _PastItsHeadNode}), adversaries="b",
        views={"b": (_FAULTY, _PAST_HEAD)}, faulty="b"),
    **{f"reused-signature-{doctor}": _convicts_b(
        _reuse_a_verified_signature(doctor), _BAD_SIGNATURE)
       for doctor in ("index", "hash", "timestamp", "int-timestamp",
                      "signer")},
    **{f"rcv-{field}-mistyped": _convicts_b(
        _mistype_a_rcv_field(field),
        "rcv entry 69's parsed form does not re-derive")
       for field in ("index", "signature")},
    "insert-crashes-the-machine": _convicts_b(
        _log_a_crashing_insert, "replay of node 'b' diverged: TypeError"),
    **{f"checkpoint-{lie}": _convicts_b(
        _doctor_the_checkpoint(lie),
        _CHK_SEED, use_checkpoints=True)
       for lie in ("re-dated", "dropped", "missing")},
    # b's own signed chk over a state its machine never had: red in the
    # full audit; an audit seeded from it (or from a later one b doctors
    # alike) holds b's vertices below the seed yellow.
    "checkpoint-of-a-doctored-state": Row(
        mincost(overrides={"b": _SelfDoctoringNode},
                setup=_checkpoint_a_doctored_state),
        adversaries="b", faulty="b",
        views={"b": (_FAULTY, "replay of node 'b' diverged: chk entry 69 "
                              "does not commit to the replayed machine's "
                              "state")}),
    "checkpoint-crashes-the-machine": _convicts_b(
        _commit_an_unrestorable_snapshot,
        "replay of node 'b' diverged: KeyError('store')",
        use_checkpoints=True),
    "forged-served-checkpoint": Row(
        mincost(seed=8, overrides={"c": _ForgedCheckpointNode},
                setup=lambda dep, _nodes: dep.checkpoint_all(),
                query=lambda qp: qp.why(best_cost("d", "c", 5))),
        adversaries="c",
        views={"c": (_FAULTY, "content does not match its digest")},
        use_checkpoints=True),
    # A replica's doctored snapshot cannot turn the origin red.
    "doctored-mirrored-checkpoint": Row(
        mincost(seed=8, overrides={"c": SilentNode},
                setup=_doctor_cs_mirrored_checkpoint,
                query=lambda qp: qp.why(cost("b", "c", "d", 8))),
        views={"c": (_MISSING, _bad_mirror(
"c", _CHK_SEED))},
        use_checkpoints=True),
    # -- the three application families at small size, honest
    "chord": Row(_family(chord_scenario, n_nodes=6, rounds=1)),
    "bgp": Row(_family(bgp_scenario, n_updates=12)),
    "hadoop": Row(_family(hadoop_scenario, n_words=120)),
    # A split's text is no signed statement: a mapper that serves a log
    # whose text is altered or missing withholds its input, and is left
    # unresolved like a silent node, never convicted.
    **{f"hadoop-mapper-{lie}-its-split": Row(
        hadoop_mapper_serving(node_cls), suspects=["map1"],
        views={"map1": (_MISSING, "content unavailable")})
       for lie, node_cls in (("replaces", _SplitReplacingNode),
                             ("strips", SplitStrippingNode))},
    # The reducers, which sort after map1, hold its authenticators above
    # its fork: the peers' copies convict it before any held one, in
    # every batching.
    "hadoop-mapper-forks": Row(
        _mapper_forks(), adversaries=["map1"], faulty=["map1"],
        views={"map1": (_FAULTY, "returned log ends at 1 but evidence "
                                 "covers 2")}),
}
