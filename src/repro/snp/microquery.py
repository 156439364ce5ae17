"""The microquery module (paper Section 5.5).

``microquery(v, ε)`` works by (1) using evidence ε to retrieve a log prefix
from ``host(v)``, (2) replaying it to regenerate that node's partition of
Gν, and (3) checking that v exists in it. The result is a color notification
— yellow while unresolved, then black or red — plus v's predecessors and
successors with the extra evidence needed to continue exploring.

This implementation caches one *view* per node (the verified, replayed
subgraph); repeated microqueries against the same node hit the cache, which
is the caching optimization Section 5.6 describes. The view records how the
node turned out:

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

Builds are *batched* and split in three, all inline on the calling
thread (see DESIGN.md, "One build path"):

* **fetch** (:class:`_BuildJob`) — retrieve or mirror fallback, transfer
  accounting, and the snapshotting of everything the verification needs:
  the frozen evidence-store prefix, the node's trust record
  (:class:`_NodeTrust`: checked-authenticator memo, consistency cursor,
  pending skipped authenticators), the consistency evidence collected
  from peers, and the maintainer's alarm set. The job keeps what it
  learned;
* **compute** (:func:`repro.snp.build.compute_build`) — every check that
  can convict the node, then replay;
* **finalize** (canonical node order, once every job of the batch has
  computed) — takes the finished job: the held-evidence check over what
  earlier batch members harvested, the trust record's commit,
  harvesting, view installation.
"""

import time
from collections import defaultdict

from repro.metrics import QueryStats
from repro.snp.evidence import EvidenceStore, AUTHENTICATOR_BYTES
from repro.snp.build import (
    BuildContext, BuildWork, CompactOutcome, check_held_evidence,
    compute_build, embedded_authenticators, response_head,
    verify_anchor_segment,
)
from repro.snp.replay import check_against_authenticator
from repro.provgraph.vertices import Color
from repro.util.errors import AuthenticationError, LogVerificationError
from repro.util.serialization import canonical_size

OK = "ok"
PROVEN_FAULTY = "proven-faulty"
UNREACHABLE = "unreachable"


class NodeView:
    """The querier's verified view of one node.

    For an ``ok`` view, ``head_index``/``head_hash`` identify the last log
    entry whose chain hash the querier verified against a signed
    authenticator — the anchor a later :meth:`MicroQuerier.refresh` extends
    from. The invariant: ``graph`` is exactly the replay of entries
    ``1..head_index`` and ``head_hash`` is the chain hash ``h_head_index``.

    ``replay`` is the live :class:`~repro.snp.replay.ReplayResult` the
    graph belongs to (a failed one, on a proven-faulty view, is kept as
    evidence), or None.
    """

    __slots__ = ("node", "status", "verdict_reason", "replay",
                 "head_index", "head_hash", "head_time", "base_index",
                 "base_time")

    def __init__(self, node, status, verdict_reason=None, replay=None,
                 head_index=0, head_hash=None, head_time=float("-inf"),
                 base_index=0, base_time=float("-inf")):
        self.node = node
        self.status = status
        self.verdict_reason = verdict_reason
        self.replay = replay
        self.head_index = head_index
        self.head_hash = head_hash
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
        return None if self.replay is None else self.replay.graph


class MicroResult:
    """What one microquery invocation returns (Section 4.3)."""

    __slots__ = ("vertex", "colors", "predecessors", "successors")

    def __init__(self, vertex, colors, predecessors, successors):
        self.vertex = vertex
        self.colors = colors            # e.g. ["yellow", "black"]
        self.predecessors = predecessors
        self.successors = successors


class _NodeTrust:
    """What the querier has established about one node's chain — one
    record, so that re-establishing trust is one call (a missed reset is
    stale trust, i.e. a wrong green).

    * ``checked`` — authenticators (signature → entry index) already
      verified to lie on the trusted chain. A refresh extends that same
      chain, so they need neither re-verification nor re-comparison —
      and, not being coverage losses, they must not inflate
      ``auth_checks_skipped``.
    * ``cursor`` — how much of each peer's ``received_auths`` was
      already scanned for evidence about the node (see
      ``Deployment.collect_authenticators_about_since``).
    * ``pending`` — authenticators (signature → Authenticator) counted
      in ``auth_checks_skipped`` because they fell below a
      partial-segment anchor. A later build whose segment reaches far
      enough back retroactively checks them (compute's pending loop)
      instead of silently dropping the coverage. They are coverage debt,
      not chain trust: they survive :meth:`reset`.
    """

    __slots__ = ("checked", "cursor", "pending")

    def __init__(self):
        self.checked = {}
        self.cursor = None
        self.pending = {}

    def reset(self):
        """Trust in the chain is (re)established from scratch: a full
        rebuild, ``invalidate()``."""
        self.checked = {}
        self.cursor = None

    def commit(self, outcome, cursor):
        """An ``ok`` pass finalized: adopt what it verified, drain the
        debts it repaid — or proved unpayable (tombstoned: below the
        node's GC'd retention floor, so no future segment can ever check
        them) — and admit the ones it newly skipped. Returns whether the
        pass left debt an anchoring fetch could repay."""
        self.checked.update(outcome.checked)
        if cursor is not None:
            self.cursor = cursor
        for sig in outcome.recovered + outcome.tombstoned:
            self.pending.pop(sig, None)
        for auth in outcome.skipped:
            sig = bytes(auth.signature)
            if sig not in self.checked:
                self.pending.setdefault(sig, auth)
        return bool(outcome.skipped and self.pending)

    def drain(self, sig):
        """An owed check was repaid against an anchoring segment."""
        self.checked[sig] = self.pending.pop(sig).index


class _BuildJob:
    """One node's build/extend unit of work, keeping its own books.

    ``fetch()`` runs against the deployment and snapshots the
    verification inputs into a :class:`~repro.snp.build.BuildWork`;
    ``absorb()`` interprets the compute step's
    :class:`~repro.snp.build.CompactOutcome`. Everything the fetch step
    learned — the response, who served it, the transfer accounting, the
    consistency cursor — stays on the job for finalize to read; nothing
    is copied onto the outcome. A finished job holds either a decided
    ``view`` (unreachable, proven faulty, a kept stale view) or an ``ok``
    ``outcome`` for finalize to commit.
    """

    __slots__ = ("mq", "node", "kind", "base_view", "stats", "response",
                 "from_mirror", "reset_memo", "cursor", "evidence_prefix",
                 "floor_strict", "view", "outcome")

    def __init__(self, mq, node, base_view=None):
        self.mq = mq
        self.node = node
        self.kind = "built" if base_view is None else "extended"
        self.base_view = base_view
        self.stats = QueryStats()
        self.response = None
        self.from_mirror = False
        self.reset_memo = False
        self.cursor = None
        #: How many of this node's evidence-store entries the compute
        #: step checks (the store is frozen while jobs run); finalize
        #: checks only the tail harvested later in the batch.
        self.evidence_prefix = 0
        self.floor_strict = False
        self.view = None
        self.outcome = None

    # ------------------------------------------------------------- fetch

    def fetch(self):
        """Retrieve this node's segment and assemble the work item.

        Returns a BuildWork, or None when the job finished at fetch time
        (``self.view`` is decided: unreachable nodes, refresh targets
        that kept their stale-but-verified view, and nodes already
        convicted by the retention handshake).
        """
        fault = self.mq.deployment.retention_fault_of(self.node)
        if fault is not None:
            # Convicted at handshake time (e.g. a signed floor above a
            # live auditor's head): the proof stands without asking the
            # node anything — its log can never be trusted again.
            self.view = NodeView(self.node, PROVEN_FAULTY,
                                 verdict_reason=fault)
            return None
        if self.kind == "extended":
            return self._fetch_extend()
        return self._fetch_full()

    def _retrieve(self, since_index=None):
        """Ask the node for its log — the suffix after *since_index*, or
        all of it — falling back to a replicated copy (Section 5.8
        extension). A mirror is verified exactly like a direct response
        (hash chain + origin's signed head), so a lying replica cannot
        frame the origin. Returns ``(response, from_mirror)``, charged;
        ``(None, False)`` when nobody answers."""
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
            if from_mirror:
                response.from_mirror = True
        if response is not None:
            mq._charge_fetch(response, self.stats)
        return response, from_mirror

    def _fetch_extend(self):
        mq = self.mq
        view = self.base_view
        response, from_mirror = self._retrieve(since_index=view.head_index)
        if response is None:
            self.view = view  # unreachable: the stale view stays verified
            return None
        if response.start_index != view.head_index + 1:
            # The responder did not (or could not) anchor at our head —
            # e.g. a log shorter than the verified head, or a replica that
            # only holds an older segment. Fall back to a full build: the
            # harvested evidence (which includes the old signed head)
            # still exposes any fork during full verification. The
            # response in hand is reused so the node is not asked to ship
            # its log twice — unless a checkpoint-anchored refetch is
            # preferred (the discarded transfer still happened and stays
            # charged).
            if mq.use_checkpoints and not from_mirror:
                return self._fetch_full()
            return self._fetch_full(response=response,
                                    from_mirror=from_mirror)
        self.from_mirror = from_mirror
        self.stats.delta_fetches += 1
        self.response = response
        return self._make_work()

    def _fetch_full(self, response=None, from_mirror=False):
        """Fetch for a from-scratch build. *response* short-circuits
        retrieval when the caller already holds (and has been charged
        for) a full response — the refresh fallback path. Trust in the
        chain is established from zero either way, so the node's trust
        record is reset at finalize."""
        mq = self.mq
        node_id = self.node
        self.kind = "built"
        self.base_view = None
        self.reset_memo = True
        # A full build that asks for the untruncated log holds a GC'd
        # node to its signed floor: a direct response anchored above it
        # is a retention violation (checkpoint-mode fetches legitimately
        # anchor on any newer checkpoint, so they cannot enforce this).
        self.floor_strict = not mq.use_checkpoints
        if response is None:
            response, from_mirror = self._retrieve()
        if response is None:
            self.view = NodeView(node_id, UNREACHABLE,
                                 verdict_reason="no response to retrieve")
            return None
        self.from_mirror = from_mirror
        if response.checkpoint is not None:
            self.stats.checkpoint_bytes += response.checkpoint.size_bytes()
            self.stats.checkpoint_bytes += mq._snapshot_size(
                response.checkpoint
            )
        self.response = response
        return self._make_work()

    def _make_work(self):
        """Snapshot the querier-shared inputs (all frozen for the duration
        of the batch) into the work item the compute step consumes."""
        mq = self.mq
        node_id = self.node
        held = mq.evidence.for_node(node_id)
        self.evidence_prefix = len(held)
        trust = mq._trust[node_id]
        if self.kind == "extended":
            known = frozenset(trust.checked)
            base_cursor = trust.cursor
        else:
            known = frozenset()
            base_cursor = None
        consistency = None
        if mq.run_consistency_check:
            consistency, self.cursor = \
                mq.deployment.collect_authenticators_about_since(
                    node_id, base_cursor
                )
            consistency = tuple(consistency)
        view = self.base_view
        return BuildWork(
            node_id, self.kind, self.response,
            known=known, held=held, pending=tuple(trust.pending.values()),
            consistency=consistency,
            alarms=frozenset(mq.deployment.maintainer.alarmed_msg_ids()),
            head_index=view.head_index if view is not None else 0,
            head_hash=view.head_hash if view is not None else None,
            base_replay=view.replay if view is not None else None,
            factory=mq.deployment.app_factories.get(node_id),
            floor=mq.deployment.advertised_floor_of(node_id),
            floor_strict=self.floor_strict,
        )

    # ------------------------------------------------------------ absorb

    def absorb(self, outcome):
        """Settle this job from the compute step's outcome: a failure
        decides the view here, an ``ok`` outcome is kept for finalize.

        This is the single interpretation point for compute results, so
        the mirror/verdict policy is written once.
        """
        node_id = self.node
        self.stats.merge(outcome.stats)
        replay = outcome.replay_result
        if replay is not None:
            replay.response = self.response
        if outcome.status == CompactOutcome.REPLAY_FAILED:
            self.view = NodeView(node_id, PROVEN_FAULTY,
                                 verdict_reason=outcome.reason, replay=replay)
        elif outcome.status != CompactOutcome.VERIFY_FAILED:
            self.outcome = outcome
        elif not self.from_mirror:
            self.view = NodeView(node_id, PROVEN_FAULTY,
                                 verdict_reason=outcome.reason)
        elif self.kind == "extended":
            # A corrupt replica cannot frame the origin; the origin is
            # merely unreachable right now, so the view stays stale
            # (verification precedes replay, so the base replay is still
            # at its committed head).
            self.view = self.base_view
        else:
            # A corrupt *mirror* is not evidence against the origin — the
            # replica may be the liar. The origin merely remains
            # unreachable (its vertices stay yellow).
            self.view = NodeView(
                node_id, UNREACHABLE,
                verdict_reason=f"bad mirror: {outcome.reason}",
            )

    def run(self, context):
        """Fetch, then compute: the job is finished when this returns."""
        work = self.fetch()
        if work is not None:
            self.absorb(compute_build(work, context))


class MicroQuerier:
    def __init__(self, deployment, use_checkpoints=False,
                 run_consistency_check=True):
        self.deployment = deployment
        self.use_checkpoints = use_checkpoints
        self.run_consistency_check = run_consistency_check
        self.evidence = EvidenceStore()
        self.stats = QueryStats()
        self._views = {}
        #: Moved by every batch that ran a job (builds, extends, anchor
        #: fetches) and every invalidate: equal before and after a query,
        #: the query left the verified state as it found it.
        self.version = 0
        # Nodes whose view *semantically* changed in the most recent
        # refresh() — status flipped or the verified head advanced. The
        # per-epoch change set the monitor's watch evaluation consumes: an
        # empty set means the refresh was a no-op (every delta fetch came
        # back empty), so standing watches need no re-evaluation. None
        # until the first refresh (callers must assume "anything may have
        # changed").
        self.last_refresh_changed = None
        # node -> _NodeTrust: what is established about each node's chain
        # (checked-authenticator memo, consistency cursor) and what is
        # still owed (pending skipped authenticators).
        self._trust = defaultdict(_NodeTrust)
        # Nodes whose pending debt grew during the running batch — the
        # batch-end anchoring fetch's worklist.
        self._anchor_wanted = set()
        self._context = None
        self._context_nodes = None

    def close(self):
        """Nothing to release — builds run inline — but a querier scopes
        like a resource (``with``), so callers need not know that."""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def _build_context(self):
        """The compute step's per-deployment context (rebuilt only when the
        deployment's node set changes)."""
        nodes = self.deployment.nodes
        if self._context is None or self._context_nodes != set(nodes):
            self._context = BuildContext(
                {n: self.deployment.public_key_of(n) for n in nodes},
                t_prop=self.deployment.effective_t_prop(),
            )
            self._context_nodes = set(nodes)
        return self._context

    # ------------------------------------------------------------- views

    def view_of(self, node_id):
        """Retrieve + verify + replay *node_id*'s log (cached)."""
        cached = self._views.get(node_id)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        return self.build_views((node_id,))[node_id]

    def build_views(self, node_ids):
        """Ensure views exist for *node_ids*; returns ``{node_id: view}``.

        Missing views are built as one batch: the fetch+compute pipeline
        runs per node, then results are finalized in canonical node
        order — so the evidence a node's chain is checked against is
        exactly what the batch harvested from the nodes before it.
        """
        wanted = list(dict.fromkeys(node_ids))
        missing = sorted((n for n in wanted if n not in self._views),
                         key=str)
        self._run_batch([_BuildJob(self, node_id) for node_id in missing])
        return {node_id: self._views[node_id] for node_id in wanted}

    def invalidate(self, node_id=None):
        """Drop cached views (forces a full rebuild; prefer :meth:`refresh`
        when the cached view is trustworthy and the system merely ran
        further)."""
        self.version += 1
        if node_id is None:
            self._views.clear()
            for trust in self._trust.values():
                trust.reset()
        else:
            self._views.pop(node_id, None)
            self._trust[node_id].reset()

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
        before = {
            node_id: self._view_signature(self._views[node_id])
            for node_id in node_ids
        }
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
            node_id for node_id in node_ids
            if node_id not in self._views
            or self._view_signature(self._views[node_id]) != before[node_id]
        }

    def _run_batch(self, jobs):
        """Run one batch of build/extend jobs and finalize each.

        Expected fault conditions never escape a job (they become
        verdicts); if something *unexpected* does, the batch aborts —
        and any member not yet finalized may hold a cached view whose
        retained replay was already advanced past its committed head.
        Such views must not survive (a later refresh would replay the
        same suffix twice), so every un-finalized member is invalidated
        before the error propagates.
        """
        if not jobs:
            return
        self.version += 1
        context = self._build_context()
        unfinalized = {job.node for job in jobs}
        try:
            # The evidence store is frozen until every job has computed.
            for job in jobs:
                job.run(context)
            for job in jobs:
                self._views[job.node] = self._finalize(job)
                unfinalized.discard(job.node)
        except BaseException:
            for node_id in unfinalized:
                self.invalidate(node_id)
            raise
        # A batch that left skipped-authenticator debt (evidence below a
        # partial segment's anchor) fetches the anchoring segment right
        # away instead of waiting for some later full build to happen by.
        for node_id in sorted(self._anchor_wanted, key=str):
            self._fetch_pending_anchor(node_id)
        self._anchor_wanted.clear()
        self.compact_evidence()

    # ---------------------------------------------- fetch-side accounting

    def _charge_fetch(self, response, stats):
        """Charge one retrieved segment to *stats*. The single place a
        fetch is accounted, right where it happened, so full, delta and
        discarded-fallback fetches stay in lockstep and the segment is
        sized once. Pure accounting: in this in-process deployment a
        fetch is a function call, and the paper's 10 Mbps download is
        arithmetic over these bytes (``QueryStats.download_seconds``)."""
        stats.logs_fetched += 1
        stats.log_bytes += sum(e.size_bytes() for e in response.entries)
        stats.authenticator_bytes += AUTHENTICATOR_BYTES

    def _snapshot_size(self, chk_entry):
        try:
            return canonical_size(
                [t.canonical() for t, _at in chk_entry.aux["extant"]]
            )
        except Exception:
            return 0

    # ------------------------------------------- finalize (calling thread)

    def _finalize(self, job):
        """Commit one finished job against the querier-shared state.

        Runs on the calling thread, invoked in canonical node order over
        a batch: merges the job's stats, replays the deferred
        evidence-store checks against everything harvested from nodes
        earlier in the order, then harvests this node's evidence — the
        exact sequence a serial build of the batch would follow.
        """
        node_id = job.node
        self.stats.merge(job.stats)
        trust = self._trust[node_id]
        if job.reset_memo:
            trust.reset()
        if job.view is not None:
            return job.view  # decided at fetch or absorb: just commit it
        outcome, response = job.outcome, job.response
        try:
            self._check_harvested_evidence(job, trust)
        except LogVerificationError as exc:
            if not job.from_mirror:
                return NodeView(node_id, PROVEN_FAULTY,
                                verdict_reason=str(exc))
            if job.kind == "built":
                return NodeView(node_id, UNREACHABLE,
                                verdict_reason=f"bad mirror: {exc}")
            # A mirror's delta is never empty, so the kept view's replay
            # was already advanced past its committed head — it must not
            # stay extendable (a later refresh would replay the same
            # suffix twice). Rebuild trust from scratch instead; this
            # tail-of-batch case is rare (pre-batch evidence was checked
            # before replay, in the compute step).
            retry = _BuildJob(self, node_id)
            retry.run(self._build_context())
            return self._finalize(retry)
        if trust.commit(outcome, job.cursor):
            self._anchor_wanted.add(node_id)

        if job.kind == "built":
            view = NodeView(node_id, OK)
            chk = response.checkpoint
            if chk is not None:
                # Verified coverage starts — and, until an entry follows,
                # ends — at the checkpoint the segment is anchored on.
                view.base_index, view.base_time = chk.index, chk.timestamp
                view.head_time = chk.timestamp
        else:
            view = job.base_view
            if not response.entries:
                return view  # nothing appended: the head stands
        self._harvest_evidence(response)
        view.replay = outcome.replay_result
        view.head_index, view.head_hash = response_head(response,
                                                        outcome.hashes)
        if response.entries:
            view.head_time = response.entries[-1].timestamp
        return view

    def _fetch_pending_anchor(self, node_id):
        """On-demand anchoring fetch (batch end): a pending skip means
        evidence fell below the last segment's anchor, so its check is
        owed until some build happens to reach far enough back. Instead
        of waiting, ask the node for its untruncated log right now and
        check the owed authenticators against it.

        The anchoring segment is verified before it is trusted
        (:func:`~repro.snp.build.verify_anchor_segment`), so a node
        cannot satisfy the owed checks from a fork of the log it is
        being audited on. A GC'd node legitimately anchors at its
        retained checkpoint; whatever still falls below stays pending
        (or is tombstoned by the normal floor machinery later).
        """
        trust = self._trust[node_id]
        if not trust.pending:
            return
        node = self.deployment.nodes.get(node_id)
        if node is None:
            return  # unreachable: the debt stays pending
        response = node.retrieve(from_checkpoint=False)
        if response is None:
            return
        self.stats.anchor_fetches += 1
        self._charge_fetch(response, self.stats)
        view = self._views.get(node_id)
        trusted = None
        if view is not None and view.status == OK and view.head_index > 0:
            trusted = (view.head_index, view.head_hash)
        try:
            hashes = verify_anchor_segment(
                response, self.deployment.public_key_of(node_id), trusted,
                self.stats,
            )
            for sig, auth in sorted(trust.pending.items()):
                if auth.index < response.start_index - 1:
                    continue  # below even this anchor: stays pending
                check_against_authenticator(response, hashes, auth,
                                            self.stats)
                self.stats.auth_checks_recovered += 1
                trust.drain(sig)
        except (LogVerificationError, AuthenticationError) as exc:
            # The owed evidence (or the audited head) contradicts the
            # chain the node just served — proof of a fork or rewrite.
            self._views[node_id] = NodeView(
                node_id, PROVEN_FAULTY,
                verdict_reason=f"pending authenticator check: {exc}",
            )

    def compact_evidence(self):
        """Bound the querier's standing memory (batch end).

        An authenticator already verified to lie on a node's trusted
        chain *below* that view's verified head can never change any
        future verdict: a refresh extends the same chain (the memo
        already suppresses its re-check), and a full rebuild re-fetches
        from scratch and drops the memo anyway. Evict such entries from
        the evidence store, and from the checked-authenticator memo *in
        lockstep with the store drop* — a memo entry whose evidence has
        not surfaced in the store yet is still load-bearing (a peer's log
        harvested later re-presents the same signed authenticator, and
        the memo is what keeps that from re-skipping), so it stays until
        its copies arrive and are pruned with it. The consistency cursors
        guarantee peers never re-present pruned evidence through the
        consistency channel. ``evidence_pruned`` counts both ledgers'
        drops.
        """
        for node_id, view in self._views.items():
            if view.status != OK or view.head_index <= 0:
                continue
            checked = self._trust[node_id].checked
            below = {sig for sig, index in checked.items()
                     if index < view.head_index}
            if not below:
                continue
            dropped = self.evidence.prune_checked_below(
                node_id, view.head_index, below
            )
            if not dropped:
                continue
            pruned_sigs = {bytes(auth.signature) for auth in dropped}
            for sig in pruned_sigs:
                checked.pop(sig, None)
            self.stats.evidence_pruned += len(dropped) + len(pruned_sigs)

    def low_water_marks(self):
        """The standing-auditor half of the retention handshake: per
        node, the head index this querier has verified up to. A GC pass
        (``Deployment.run_gc``) never truncates a registered querier's
        node above this mark, so every cached ``ok`` view stays
        delta-refreshable across GC."""
        return {
            node: view.head_index
            for node, view in self._views.items()
            if view.status == OK and view.head_index > 0
        }

    def pending_skipped(self, node_id):
        """The (peer, index) pairs of authenticators whose check is still
        owed for *node_id* — evidence counted in ``auth_checks_skipped``
        that no verified segment has reached yet."""
        return sorted((auth.node, auth.index)
                      for auth in self._trust[node_id].pending.values())

    def _check_harvested_evidence(self, job, trust):
        """The within-batch tail of the held-evidence check: the compute
        step covered the first ``job.evidence_prefix`` entries (the store
        is frozen while jobs run); what remains is whatever finalizing
        *earlier* nodes of this batch harvested. Raises
        LogVerificationError — *proof* of a fork or rewrite."""
        started = time.perf_counter()
        try:
            held = self.evidence.for_node(job.node)
            check_held_evidence(
                job.response, job.outcome.hashes,
                held[job.evidence_prefix:], trust.checked,
                job.outcome.checked, self.stats,
            )
        finally:
            self.stats.auth_check_seconds += time.perf_counter() - started

    def _harvest_evidence(self, response):
        """Collect the authenticators embedded in a verified log into the
        evidence store — they are what lets the querier verify the *next*
        node it visits."""
        for _signer, auth in embedded_authenticators(response):
            self.evidence.add(auth)
        self.evidence.add(response.head_auth)

    # ------------------------------------------------------- view reads

    def view_find_all(self, view, vtype=None, node=None, tup=None):
        """Find matching vertices in *view*'s graph: O(graph)."""
        return view.graph.find_all(vtype=vtype, node=node, tup=tup)

    def view_open_interval(self, view, vtype, node, tup):
        """The open exist/believe vertex of (node, tup) in *view*'s
        graph, or None — the map the GCA maintains, so O(1) where
        :meth:`view_find_all` scans."""
        return view.graph.open_interval(vtype, node, tup)

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
