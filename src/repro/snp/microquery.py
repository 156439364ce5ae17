"""The microquery module (paper Section 5.5).

``microquery(v, ε)`` works by (1) using evidence ε to retrieve a log prefix
from ``host(v)``, (2) replaying it to regenerate that node's partition of
Gν, and (3) checking that v exists in it. The result is a color notification
— yellow while unresolved, then black or red — plus v's predecessors and
successors with the extra evidence needed to continue exploring.

This implementation caches one *view* per node (the verified, replayed
subgraph); repeated microqueries against the same node hit the cache, which
is the caching optimization Section 5.6 describes. A verdict needs only
step (2)'s state machine, so a replay is two passes
(:mod:`repro.snp.replay`): the *verify pass* drives the machine and
decides the view, and the *graph pass* regenerates the partition. A
prefetch runs the first alone, a refresh of a view no query has read
advances its machine alone, and a view's graph is built the first time
it is read (:attr:`NodeView.graph`, the one accessor); a query's builds
run both in one drive. The view records how the node turned out:

* ``ok`` — log verified and replayed; vertex colors come from the GCA;
* ``proven-faulty`` — the node returned a log that contradicts signed
  evidence (broken hash chain, mismatched authenticator, forged embedded
  signature, or an equivocation exposed by the consistency check);
* ``unreachable`` — the node did not respond to retrieve; its vertices stay
  yellow (Section 4.2's fourth limitation).

Views are *extendable*: an ``ok`` view records its verified head (entry
index + chain hash) and retains the replay machinery, so
:meth:`MicroQuerier.refresh` can bring it up to date by fetching, verifying
and replaying only the log suffix appended since — a node whose returned
suffix does not continue the verified chain has provably forked its log
(see DESIGN.md, "Audit path").

Builds are *batched*, and a batch builds its nodes one at a time in
canonical node order, inline on the calling thread (see DESIGN.md, "One
build path"). One :class:`_BuildJob` carries a node through one pass:

* **fetch** — retrieve or mirror fallback, transfer accounting, and the
  consistency evidence collected from peers. Accounting encodes each
  entry's content once (:func:`repro.snp.log.encode_contents`): the
  charge is those bytes' length, and the chain check hashes the same
  bytes, then drops them;
* **verify + replay** (:func:`repro.snp.build.compute_build`) — every
  check that can convict the node, the comparison of its evidence with
  the verified chain (on a copy of the node's :class:`_Ledger`), then
  replay (the verify pass, and the graph pass unless a prefetch asked);
* **commit** (:meth:`MicroQuerier._finalize`) — the ledger and the view
  install, then the authenticators the log carries are held against
  their signers' chains.

The querier keeps one ledger per node, and every authenticator it holds
about the node is in exactly one state: *compared* against the chain the
node's ``ok`` view verified (and dropped) as soon as that chain covers
its index, *owed* until it does, or *tombstoned* below the node's signed
retention floor — one rule, :func:`repro.snp.build.settle`. So how
nodes are grouped into batches changes no view or colour, and no counter
unless evidence falls behind a checkpoint-anchored base (the anchoring
fetch runs once per batch). Within a batch, a signature check
that already passed (same payload bytes, signature bytes and key) costs
no second RSA operation; the memo is cleared at batch end and every
check is still counted.
"""

from collections import defaultdict

from repro.metrics import QueryStats
from repro.snp.evidence import AUTHENTICATOR_BYTES
from repro.snp.build import (
    compute_build, embedded_authenticators, settle, verify_anchor_segment,
)
from repro.snp.log import (
    ENTRY_HEADER_BYTES, encode_contents, encode_snapshot,
)
from repro.provgraph.vertices import Color
from repro.util.errors import (AuthenticationError, ContentUnavailable,
                                LogVerificationError)

OK = "ok"
PROVEN_FAULTY = "proven-faulty"
UNREACHABLE = "unreachable"


class NodeView:
    """The querier's verified view of one node.

    For an ``ok`` view, ``head_index``/``head_hash`` identify the last log
    entry whose chain hash the querier verified against a signed
    authenticator — the anchor a later :meth:`MicroQuerier.refresh` extends
    from. The invariant: the replayed machine has consumed entries
    ``1..head_index``, ``head_hash`` is the chain hash ``h_head_index``,
    and once ``graph`` is built it is exactly the replay of those
    entries. A ``proven-faulty`` view a refresh convicted keeps the head
    the querier had verified before; any other has head 0 — its first
    build convicted it, or evidence another log carried contradicted
    its chain somewhere below the head, in whichever batch brought it.
    That head is what :meth:`MicroQuerier.low_water_marks` pins.

    ``chain`` is every chain hash the view verified, from entry
    ``base − 1`` (the hash its first segment was anchored on) to the head
    — the verified entries' own ``entry_hash`` objects, one list slot per
    entry. It is what the evidence the querier holds about the node is
    compared with (:func:`repro.snp.build.settle`), whenever it arrives.

    ``replay`` is the live :class:`~repro.snp.replay.ReplayResult` the
    graph belongs to (a failed one, on a proven-faulty view, is kept as
    evidence), or None. ``graph`` is every read of the view's graph: a
    prefetched view's replay runs its graph pass there, once, over its
    first segment and every suffix a refresh extended its machine by;
    from then on a refresh extends the graph too.
    """

    __slots__ = ("node", "status", "verdict_reason", "replay",
                 "head_index", "chain", "head_time", "base_index",
                 "base_time")

    def __init__(self, node, status, verdict_reason=None, replay=None,
                 head_index=0, chain=None, head_time=float("-inf"),
                 base_index=0, base_time=float("-inf")):
        self.node = node
        self.status = status
        self.verdict_reason = verdict_reason
        self.replay = replay
        self.head_index = head_index
        self.chain = chain
        #: Timestamp of the last verified log entry: the horizon up to
        #: which an absence in ``graph`` is *meaningful* (a vertex the
        #: peers hold evidence for at a later t may simply postdate this
        #: view; its absence proves nothing yet).
        self.head_time = head_time
        #: Where verified coverage *starts*: a checkpoint-anchored build
        #: (GC'd log, or ``use_checkpoints``) replays from the checkpoint
        #: at ``base_index``/``base_time``, so the absence of a vertex
        #: strictly *below* ``base_time`` proves nothing either — it
        #: resolves yellow, never red (red stays reserved for proof).
        #: 0 / -inf for a from-entry-1 build.
        self.base_index = base_index
        self.base_time = base_time

    @property
    def graph(self):
        """The node's partition of Gν (None without a replay)."""
        return None if self.replay is None else self.replay.graph

    @property
    def head_hash(self):
        return self.chain[-1] if self.chain else None

    def hash_at(self, index):
        """The verified chain hash of entry *index*, or None when the
        chain does not reach it."""
        chain = self.chain
        at = len(chain) - 1 - (self.head_index - index)
        return chain[at] if 0 <= at < len(chain) else None


class MicroResult:
    """What one microquery invocation returns (Section 4.3)."""

    __slots__ = ("vertex", "colors", "predecessors", "successors")

    def __init__(self, vertex, colors, predecessors, successors):
        self.vertex = vertex
        self.colors = colors            # e.g. ["yellow", "black"]
        self.predecessors = predecessors
        self.successors = successors


class _Ledger:
    """Every authenticator the querier holds about one node, in one place
    (Section 5.5's consistency check as one rule: each must lie on the
    chain the querier verified for the node, which its ``ok`` view keeps).
    :func:`~repro.snp.build.settle` moves an authenticator between its
    states:

    * *compared* — checked against the chain as soon as the chain covers
      its index, then dropped: it is not here;
    * *owed* — in ``owed`` while the node has no verified chain or the
      index is above its head; in ``behind`` while the index is below the
      chain's base but not below the node's signed retention floor.
      ``behind`` is the anchoring fetch's only worklist;
    * *tombstoned* — below the floor: counted and dropped.

    Both maps go signature bytes → authenticator, and hold only
    authenticators whose signature was checked. ``signed_head`` is the
    head authenticator of the last response verified for the node: a full
    rebuild owes a check against it, so a new chain is always checked
    against the one verified before it. ``cursor`` is how much of each
    peer's ``received_auths`` was already collected for the consistency
    check (see ``Deployment.collect_authenticators_about_since``).
    """

    __slots__ = ("owed", "behind", "signed_head", "cursor")

    def __init__(self):
        self.owed = {}
        self.behind = {}
        self.signed_head = None
        self.cursor = None

    def copy(self):
        """A copy a build pass settles against its chain, installed when
        the pass commits — so a refused response changes nothing."""
        ledger = _Ledger()
        ledger.owed = dict(self.owed)
        ledger.behind = dict(self.behind)
        ledger.signed_head, ledger.cursor = self.signed_head, self.cursor
        return ledger

    def reset(self):
        """Trust in the chain is (re)established from scratch — a full
        rebuild, ``invalidate()``: the chain verified so far is owed as
        its signed head, and peers' evidence is collected afresh."""
        head = self.signed_head
        if head is not None:
            self.owed[bytes(head.signature)] = head
            self.signed_head = None
        self.cursor = None


class _BuildJob:
    """One node's pass, from fetch to installed view — the one object
    that carries it.

    :meth:`run` fetches (which may already decide ``view``: unreachable
    nodes, refresh targets that keep their stale-but-verified view, and
    nodes convicted by the retention handshake or, earlier in the batch,
    by evidence another log carried), then hands the job to
    :func:`~repro.snp.build.compute_build`, which settles ``ledger`` (a
    copy of the node's) against the verified chain, sets ``anchor`` and
    fills in ``replay``. A verdict decides ``view`` here, under the
    mirror policy; :meth:`MicroQuerier._finalize` commits a job left
    undecided.
    """

    __slots__ = ("mq", "node", "kind", "graph", "base_view", "response",
                 "encoded", "seed_bytes", "from_mirror", "floor_strict",
                 "ledger", "consistency", "anchor", "view", "replay")

    def __init__(self, mq, node, base_view=None, graph=True):
        self.mq = mq
        self.node = node
        self.kind = "built" if base_view is None else "extended"
        #: Whether a full build runs the graph pass with its verify pass
        #: (a query's build) or leaves it to the first graph read (a
        #: prefetch's).
        self.graph = graph
        self.base_view = base_view
        self.response = None
        self.encoded = None
        self.seed_bytes = None
        self.from_mirror = False
        self.floor_strict = False
        self.ledger = None
        self.consistency = ()
        self.anchor = False
        self.view = None
        self.replay = None

    def run(self):
        """Fetch, verify and replay this node: when this returns, either
        ``view`` is decided or the job is ready to commit."""
        mq = self.mq
        deployment = mq.deployment
        current = mq._views.get(self.node)
        if current is not None and current.status == PROVEN_FAULTY:
            # Convicted since the batch began, by an authenticator a log
            # committed before this one carried: proof does not expire.
            self.view = current
            return
        fault = deployment.retention_fault_of(self.node)
        if fault is not None:
            # Convicted at handshake time (e.g. a signed floor above a
            # live auditor's head): the proof stands without asking the
            # node anything — its log can never be trusted again.
            self.view = self._convicted(fault)
            return
        if self.kind == "extended":
            self._fetch_extend()
        else:
            self._fetch_full()
        if self.view is not None:
            return
        self.ledger = mq._ledgers[self.node].copy()
        self.consistency, self.ledger.cursor = \
            deployment.collect_authenticators_about_since(
                self.node, self.ledger.cursor
            )
        try:
            compute_build(self, deployment, mq.stats, mq._verified)
        except (LogVerificationError, AuthenticationError) as exc:
            self.view = self._refused(str(exc))
            return
        failure = self.replay.failure
        if isinstance(failure, ContentUnavailable):  # unresolved, not proof
            self.view = NodeView(self.node, UNREACHABLE,
                                 verdict_reason=str(failure))
        elif failure is not None:
            self.view = self._convicted(str(failure), replay=self.replay)

    def _convicted(self, reason, replay=None):
        """A proven-faulty view at the head the querier had verified
        before this pass — a refresh's base head, 0 for a build — so
        :meth:`MicroQuerier.low_water_marks` keeps pinning the log that
        holds the proof."""
        head = 0 if self.base_view is None else self.base_view.head_index
        return NodeView(self.node, PROVEN_FAULTY, verdict_reason=reason,
                        replay=replay, head_index=head)

    def _refused(self, reason):
        """The view a response that failed verification leaves — the
        mirror policy, written once."""
        if not self.from_mirror:
            return self._convicted(reason)
        if self.kind == "extended":
            # A corrupt replica cannot frame the origin; the origin is
            # merely unreachable right now, so the view stays stale
            # (verification precedes replay, so the base replay is still
            # at its committed head).
            return self.base_view
        # A corrupt *mirror* is not evidence against the origin — the
        # replica may be the liar. The origin merely remains unreachable
        # (its vertices stay yellow).
        return NodeView(self.node, UNREACHABLE,
                        verdict_reason=f"bad mirror: {reason}")

    def _retrieve(self, since_index=None):
        """Ask the node for its log — the suffix after *since_index*, or
        all of it — falling back to a replicated copy (Section 5.8
        extension). A mirror is verified exactly like a direct response
        (hash chain + origin's signed head), so a lying replica cannot
        frame the origin. Returns ``(response, from_mirror)``, charged,
        with the charge's encoding left in ``encoded``; ``(None, False)``
        when nobody answers."""
        mq = self.mq
        node = mq.deployment.nodes.get(self.node)
        if node is None:
            response = None
        elif since_index is None:
            response = node.retrieve(from_checkpoint=mq.use_checkpoints)
        else:
            response = node.retrieve(since_index=since_index)
        from_mirror = False
        if response is None:
            response = mq.deployment.find_mirror(self.node,
                                                 since_index=since_index)
            from_mirror = response is not None
        if response is not None:
            self.encoded = mq._charge_fetch(response)
        return response, from_mirror

    def _fetch_extend(self):
        mq = self.mq
        view = self.base_view
        response, from_mirror = self._retrieve(since_index=view.head_index)
        if response is None:
            self.view = view  # unreachable: the stale view stays verified
            return
        if response.start_index != view.head_index + 1:
            # The responder did not (or could not) anchor at our head —
            # e.g. a log shorter than the verified head, or a replica that
            # only holds an older segment. Fall back to a full build: the
            # ledger owes a check against the old signed head, which
            # still exposes any fork during full verification. The
            # response in hand is reused so the node is not asked to ship
            # its log twice — unless a checkpoint-anchored refetch is
            # preferred (the discarded transfer still happened and stays
            # charged).
            if mq.use_checkpoints and not from_mirror:
                self._fetch_full()
            else:
                self._fetch_full(response=response, from_mirror=from_mirror)
            return
        self.from_mirror = from_mirror
        mq.stats.delta_fetches += 1
        self.response = response

    def _fetch_full(self, response=None, from_mirror=False):
        """Fetch for a from-scratch build. *response* short-circuits
        retrieval when the caller already holds (and has been charged
        for) a full response — the refresh fallback path. Trust in the
        chain is established from zero either way, so the node's ledger
        is reset here."""
        mq = self.mq
        self.kind = "built"
        self.base_view = None
        mq._ledgers[self.node].reset()
        # A full build that asks for the untruncated log holds a GC'd
        # node to its signed floor: a direct response starting above it
        # is a retention violation (checkpoint-mode fetches legitimately
        # start at any newer checkpoint, so they cannot enforce this).
        self.floor_strict = not mq.use_checkpoints
        if response is None:
            response, from_mirror = self._retrieve()
        if response is None:
            self.view = NodeView(self.node, UNREACHABLE,
                                 verdict_reason="no response to retrieve")
            return
        self.from_mirror = from_mirror
        if response.seed is not None:
            # The chk entry itself was charged as log bytes, like any
            # entry; this is the snapshot riding in its aux, encoded once:
            # the build hashes these bytes against the entry's digest.
            self.seed_bytes = encode_snapshot(response.seed)
            mq.stats.checkpoint_bytes += len(self.seed_bytes)
        self.response = response


class MicroQuerier:
    def __init__(self, deployment, use_checkpoints=False):
        self.deployment = deployment
        self.use_checkpoints = use_checkpoints
        self.stats = QueryStats()
        self._views = {}
        #: Moved by every batch that ran a job (builds, extends, anchor
        #: fetches) and every invalidate: equal before and after a query,
        #: the query left the verified state as it found it.
        self.version = 0
        # Nodes whose view *semantically* changed in the most recent
        # refresh() — status flipped or the verified head advanced,
        # whether the node was refreshed or convicted by evidence the
        # refreshed logs carried. The
        # per-epoch change set the monitor's watch evaluation consumes: an
        # empty set means the refresh was a no-op (every delta fetch came
        # back empty), so standing watches need no re-evaluation. None
        # until the first refresh (callers must assume "anything may have
        # changed").
        self.last_refresh_changed = None
        # node -> _Ledger: every authenticator held about the node that
        # its verified chain does not cover yet, and its consistency
        # cursor.
        self._ledgers = defaultdict(_Ledger)
        # Nodes whose ledger.behind grew during the running batch — the
        # batch-end anchoring fetch's worklist.
        self._anchor_wanted = set()
        # The running batch's passed signature checks (build.verify_auth):
        # payload + signature bytes -> the key that verified them.
        self._verified = {}

    # ------------------------------------------------------------- views

    def view_of(self, node_id):
        """Retrieve + verify + replay *node_id*'s log (cached)."""
        cached = self._views.get(node_id)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        return self.build_views((node_id,))[node_id]

    def build_views(self, node_ids, graphs=True):
        """Ensure views exist for *node_ids*; returns ``{node_id: view}``.

        Missing views are built as one batch, one node at a time in
        canonical node order. Without *graphs* a build runs the verify
        pass alone — all a verdict reads — and a view's graph is built the
        first time it is read (:attr:`NodeView.graph`).
        """
        wanted = list(dict.fromkeys(node_ids))
        missing = sorted((n for n in wanted if n not in self._views),
                         key=str)
        self._run_batch([_BuildJob(self, node_id, graph=graphs)
                         for node_id in missing])
        return {node_id: self._views[node_id] for node_id in wanted}

    def invalidate(self, node_id=None):
        """Drop cached views (forces a full rebuild; prefer :meth:`refresh`
        when the cached view is trustworthy and the system merely ran
        further)."""
        self.version += 1
        if node_id is None:
            self._views.clear()
            for ledger in self._ledgers.values():
                ledger.reset()
        else:
            self._views.pop(node_id, None)
            self._ledgers[node_id].reset()

    def refresh(self, node_id=None):
        """Advance cached views to the deployment's current log heads.

        Fetches, verifies and replays only the log suffix appended since
        each view's verified head — the incremental counterpart of
        :meth:`invalidate` + rebuild. Per cached view:

        * ``ok`` — delta retrieve from the verified head; a suffix that
          does not continue the verified chain is proof of a fork
          (``proven-faulty``); an unreachable node keeps its stale but
          verified view (its newer activity simply stays unexplored);
        * ``proven-faulty`` — kept: signed proof does not expire;
        * ``unreachable`` — a full build is retried (the node may have
          come back).

        With ``node_id=None`` every cached view is refreshed as one
        batch and ``None`` is returned; a single refreshed view is
        returned otherwise.
        """
        if node_id is None:
            self._refresh_batch(sorted(self._views, key=str))
            return None
        view = self._views.get(node_id)
        if view is None:
            built = self.view_of(node_id)
            self.last_refresh_changed = {node_id}
            return built
        self._refresh_batch((node_id,))
        return self._views[node_id]

    @staticmethod
    def _view_signature(view):
        """What a watch can observe of a view: verdict + verified head.

        Raw stats are no proxy — ``delta_fetches`` ticks even when the
        suffix comes back empty — so change detection compares these
        signatures across a refresh instead.
        """
        return (view.status, view.head_index, view.head_hash)

    def _refresh_batch(self, node_ids):
        before = {node_id: self._view_signature(view)
                  for node_id, view in self._views.items()}
        jobs = []
        for node_id in node_ids:
            view = self._views[node_id]
            self.stats.refreshes += 1
            if view.status == OK:
                jobs.append(_BuildJob(self, node_id, base_view=view))
            elif view.status == UNREACHABLE:
                jobs.append(_BuildJob(self, node_id))  # may have come back
            # proven-faulty is kept: signed proof does not expire
        self._run_batch(jobs)
        self.last_refresh_changed = {
            node_id for node_id, signature in before.items()
            if node_id not in self._views
            or self._view_signature(self._views[node_id]) != signature
        }

    def _run_batch(self, jobs):
        """Run one batch: each job fetches, verifies, replays and commits
        before the next one is fetched.

        Expected fault conditions never escape a job (they become
        verdicts); if something *unexpected* does, the batch aborts — and
        the member it hit may hold a cached view whose retained replay was
        already advanced past its committed head. Such a view must not
        survive (a later refresh would replay the same suffix twice), so
        every member not yet committed is invalidated before the error
        propagates.
        """
        if not jobs:
            return
        self.version += 1
        committed = 0
        try:
            for job in jobs:
                job.run()
                self._finalize(job)
                committed += 1
        except BaseException:
            for job in jobs[committed:]:
                self.invalidate(job.node)
            raise
        # Evidence that fell behind a view's base (a checkpoint-anchored
        # chain) is checked against an anchoring segment fetched right
        # away, instead of waiting for some later full build to happen by.
        for node_id in sorted(self._anchor_wanted, key=str):
            self._fetch_anchor(node_id)
        self._anchor_wanted.clear()
        self._verified.clear()

    # ---------------------------------------------- fetch-side accounting

    def _charge_fetch(self, response):
        """Charge one retrieved segment to the querier's stats. The single place a
        fetch is accounted, right where it happened, so full, delta and
        discarded-fallback fetches stay in lockstep. Each entry's content
        is encoded here, once, on receipt: the charge is the encodings'
        length plus each entry's header (Σ ``size_bytes()``), and the
        encodings are returned for the chain check to hash. Pure
        accounting otherwise: in this in-process deployment a fetch is a
        function call, and the paper's 10 Mbps download is arithmetic
        over these bytes (``QueryStats.download_seconds``)."""
        encoded = encode_contents(response.entries)
        stats = self.stats
        stats.logs_fetched += 1
        # A content that does not encode (None) is charged its header.
        stats.log_bytes += (sum(map(len, filter(None, encoded)))
                            + ENTRY_HEADER_BYTES * len(encoded))
        stats.authenticator_bytes += AUTHENTICATOR_BYTES
        return encoded

    # ------------------------------------------------------------ commit

    def _finalize(self, job):
        """Commit one job run in canonical node order: a decided view as
        it is; otherwise the pass's ledger, then the view, advanced to
        the response's head with its chain extended by the verified
        entries' own hashes, then the authenticators the log carries,
        held against their signers' chains (:meth:`_hold`)."""
        node_id = job.node
        if job.view is not None:
            self._views[node_id] = job.view
            return
        response = job.response
        job.ledger.signed_head = response.head_auth
        self._ledgers[node_id] = job.ledger
        if job.anchor:
            self._anchor_wanted.add(node_id)
        if job.kind == "built":
            view = NodeView(node_id, OK, chain=[response.start_hash])
            chk = response.seed
            if chk is not None:
                # Verified coverage starts at the checkpoint replay was
                # seeded from.
                view.base_index, view.base_time = chk.index, chk.timestamp
        else:
            view = job.base_view
        view.replay = job.replay
        view.head_index = response.head_index
        if response.entries:
            view.chain.extend(entry.entry_hash for entry in response.entries)
            view.head_time = response.entries[-1].timestamp
        self._views[node_id] = view
        for signer, auth in embedded_authenticators(response):
            self._hold(signer, auth)

    def _hold(self, node_id, auth):
        """Take in an authenticator about *node_id* that a verified log
        carried (its signature was checked with that log). An ``ok`` view
        compares it with its chain at once — a mismatch convicts the node
        now, whichever batch built it — or owes it; without a verified
        chain it is owed; a proven-faulty node needs no more evidence."""
        view = self._views.get(node_id)
        ledger = self._ledgers[node_id]
        if view is None or view.status == UNREACHABLE:
            ledger.owed[bytes(auth.signature)] = auth
            return
        if view.status != OK:
            return
        try:
            if settle(node_id, (auth,), view.hash_at, view.head_index,
                      ledger, self.deployment.advertised_floor_of(node_id),
                      self.stats, strict=False):
                self._anchor_wanted.add(node_id)
        except LogVerificationError as exc:
            self._views[node_id] = NodeView(node_id, PROVEN_FAULTY,
                                            verdict_reason=str(exc))

    def _fetch_anchor(self, node_id):
        """On-demand anchoring fetch (batch end): evidence behind the
        view's base (below its checkpoint anchor) cannot be compared with
        the chain it verified. Instead of waiting for some later build to
        reach far enough back, ask the node for its untruncated log right
        now and settle ``ledger.behind`` against it.

        The anchoring segment is verified before it is trusted
        (:func:`~repro.snp.build.verify_anchor_segment`), so a node
        cannot satisfy the owed checks from a fork of the log it is
        being audited on. A GC'd node legitimately anchors at its
        retained checkpoint; whatever still falls below stays owed, or
        is tombstoned below the signed floor.
        """
        ledger = self._ledgers[node_id]
        view = self._views.get(node_id)
        node = self.deployment.nodes.get(node_id)
        if not ledger.behind or view is None or view.status != OK \
                or node is None:
            return  # nothing owed, or no chain to anchor, or nobody to ask
        response = node.retrieve(from_checkpoint=False)
        if response is None:
            return  # unreachable: the evidence stays owed
        self.stats.anchor_fetches += 1
        encoded = self._charge_fetch(response)
        try:
            verify_anchor_segment(
                response, encoded, self.deployment.public_key_of(node_id),
                view, self.stats, self._verified,
            )
            settle(node_id, list(ledger.behind.values()), response.hash_at,
                   response.head_index, ledger,
                   self.deployment.advertised_floor_of(node_id), self.stats)
        except (LogVerificationError, AuthenticationError) as exc:
            # The owed evidence (or the audited head) contradicts the
            # chain the node just served — proof of a fork or rewrite.
            self._views[node_id] = NodeView(
                node_id, PROVEN_FAULTY,
                verdict_reason=f"owed authenticator check: {exc}",
            )

    def low_water_marks(self):
        """The standing-auditor half of the retention handshake: per
        node, the head index this querier has verified up to. A GC pass
        (``Deployment.run_gc``) never truncates a registered querier's
        node above this mark, so every cached ``ok`` view stays
        delta-refreshable across GC. A convicted node is pinned too, at
        its view's head (:class:`NodeView`): the log that holds the
        proof stays, and a node pinned at 0 advertises no floor at
        all."""
        return {
            node: view.head_index
            for node, view in self._views.items()
            if view.status == PROVEN_FAULTY
            or (view.status == OK and view.head_index > 0)
        }

    def pending_skipped(self, node_id):
        """The (signer, index) pairs of authenticators behind *node_id*'s
        verified base whose check is still owed — evidence counted in
        ``auth_checks_skipped`` that no verified segment has reached
        yet."""
        return sorted((auth.node, auth.index)
                      for auth in self._ledgers[node_id].behind.values())

    # ---------------------------------------------------------- microquery

    def microquery(self, vertex):
        """Run microquery for *vertex*; returns a MicroResult.

        The first color is always yellow (the vertex's color is unknown
        until host(v) responds); the second is the verdict.
        """
        self.stats.microqueries += 1
        resolved, color = self.resolve(vertex)
        view = self._views.get(resolved.node)
        preds, succs = [], []
        if view is not None and view.status == OK:
            graph = view.graph
            here = graph.get(resolved.key())
            if here is not None:
                preds, succs = graph.predecessors(here), graph.successors(here)
        colors = [Color.YELLOW]
        if color != Color.YELLOW:
            colors.append(color)
        return MicroResult(resolved, colors, preds, succs)

    def resolve(self, vertex):
        """Materialize *vertex* from its host's verified view.

        Returns (vertex, color). The returned vertex is the one from the
        host's replayed graph when available; otherwise the caller's stub,
        recolored according to what the retrieval proved:

        * host unreachable → yellow (can't tell yet);
        * host's log proven bogus → red;
        * host's replay lacks a send/receive the peer holds signed evidence
          for → red (the ``handle-extra-msg`` case: an omitted message).
        """
        view = self.view_of(vertex.node)
        if view.status == UNREACHABLE:
            vertex.set_color(Color.YELLOW)
            return vertex, Color.YELLOW
        if view.status == PROVEN_FAULTY:
            vertex.set_color(Color.RED)
            return vertex, Color.RED
        real = view.graph.get(vertex.key())
        if real is not None:
            return real, real.color
        if vertex.t is not None and vertex.t < view.base_time:
            # The vertex predates this view's verified coverage: the log
            # prefix below the checkpoint anchor (GC'd, or skipped by a
            # checkpoint-mode fetch) was never replayed, so absence
            # proves nothing. Tuples still extant/believed at the
            # checkpoint are seeded into the graph and found above; what
            # is truly gone resolves yellow — honest unresolved, never a
            # silent green and never an unprovable red.
            vertex.set_color(Color.YELLOW)
            return vertex, Color.YELLOW
        if vertex.t is not None and vertex.t >= view.head_time:
            # The vertex postdates this view's verified head (the host's
            # view may be stale — e.g. kept through a refresh while the
            # host was unreachable, or simply not refreshed since the
            # system ran on). Its absence proves nothing: red must stay
            # reserved for *proof*, so the vertex remains unresolved
            # until a refresh audits that far. The boundary leans yellow
            # (>=, not >) deliberately: outputs triggered by the head
            # entry are logged strictly *after* it (_next_time), so their
            # absence at t == head_time is not provable — whereas sends
            # the expected machine produces at that instant are emitted
            # by replay of the verified prefix and found in the graph
            # above, never lost to this guard.
            vertex.set_color(Color.YELLOW)
            return vertex, Color.YELLOW
        # The host's replayed subgraph verifiably covers the vertex's
        # instant and does not contain it — for a send/receive the peer
        # holds signed evidence of, the host suppressed the message.
        vertex.set_color(Color.RED)
        return vertex, Color.RED
