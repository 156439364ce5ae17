"""The build step: verify a response, then replay it.

Between the coordinator's *fetch* and *finalize*
(:mod:`repro.snp.microquery`) runs :func:`compute_build`, a pure function
of a :class:`BuildWork` and a :class:`BuildContext` and the *single* code
path every executor runs — which makes serial ≡ wire ≡ process a
structural argument, not a statistical one.

This is also the one home of "verify a response": every check that can
convict a node is written once here and called by the compute step, the
finalize tail and the anchoring fetch alike (the chain primitives stay
in :mod:`repro.snp.replay`; wire forms build on :mod:`repro.snp.wire`).
"""

import time

from repro.crypto.merkle import MerkleTree
from repro.crypto.rsa import RsaKeyPair
from repro.metrics import QueryStats
from repro.snp.commitment import ack_entry_content, snd_entry_content
from repro.snp.log import INS, DEL, SND, RCV, ACK
from repro.snp.replay import (
    check_against_authenticator, extend_replay, replay_segment,
    verify_segment_hashes,
)
from repro.snp.wire import (
    WireError, replay_from_wire, replay_handle_from_wire,
    replay_handle_to_wire, replay_to_wire, sanitize_response,
    stats_from_wire, stats_to_wire, value_from_wire, value_to_wire,
)
from repro.util.errors import AuthenticationError, LogVerificationError
from repro.util.serialization import canonical_bytes


# ----------------------------------------------------------- build context

class BuildContext:
    """The one-time per-pool context of the verify+replay step.

    Everything the compute step may consult beyond its work item: the
    querier's public-key table and the deployment's Tprop bound for
    replay. Factories are *not* part of the context — a work item carries
    either a live factory (in-process executors) or a registry spec
    (process pool, resolved per work item so e.g. a refreshed content
    store is never stale).
    """

    __slots__ = ("public_keys", "t_prop", "_factory_cache")

    def __init__(self, public_keys, t_prop=1.0):
        self.public_keys = public_keys
        self.t_prop = t_prop
        self._factory_cache = {}

    def to_wire(self):
        keys = tuple(sorted(
            ((value_to_wire(node), key.n, key.e)
             for node, key in self.public_keys.items()),
            key=repr,
        ))
        return ("W.ctx", keys, self.t_prop)

    @classmethod
    def from_wire(cls, wire):
        _tag, keys, t_prop = wire
        return cls(
            {value_from_wire(node): RsaKeyPair(n, e) for node, n, e in keys},
            t_prop=t_prop,
        )

    def factory_for(self, node, app_spec):
        """Resolve a registry spec to a factory (cached per spec)."""
        if app_spec is None:
            raise WireError(
                f"no application spec for node {node!r}; register its "
                "factory (repro.apps.AppFactory) to build views in a "
                "process pool"
            )
        try:
            cached = self._factory_cache.get(app_spec)
        except TypeError:  # unhashable spec — resolve uncached
            cached = None
        if cached is not None:
            return cached
        from repro.apps import factory_from_spec
        factory = factory_from_spec(app_spec)
        try:
            self._factory_cache[app_spec] = factory
        except TypeError:
            pass
        return factory


# --------------------------------------------------------------- the work

class BuildWork:
    """One node's verify+replay inputs, assembled by the fetch step.

    Owns every mutable object it references (the response, the base
    replay) for the duration of the compute step. ``known`` is the
    node's checked-authenticator memo snapshot; ``held`` the frozen
    evidence-store prefix; ``pending`` the skipped authenticators awaiting
    a wider segment; ``consistency`` the evidence collected from peers
    (None when the consistency check is disabled); ``alarms`` the
    maintainer's known-missing-ack message ids. For extends, ``head_index``
    / ``head_hash`` anchor the suffix and ``base_replay`` is the retained
    replay to advance. ``factory`` is the live application factory;
    ``app_spec`` its registry form (resolved on the far side of a process
    boundary). ``floor`` is the node's advertised retention floor (0 =
    never advertised): evidence below it is tombstoned (permanently
    uncheckable — the prefix is GC'd) instead of left pending, and with
    ``floor_strict`` (a full build that asked for the untruncated log) a
    direct response anchored *above* the floor convicts the node of
    over-truncation.
    """

    __slots__ = ("node", "kind", "response", "known", "held", "pending",
                 "consistency", "alarms", "head_index", "head_hash",
                 "base_replay", "factory", "app_spec", "spec_cache",
                 "floor", "floor_strict")

    def __init__(self, node, kind, response, known=frozenset(), held=(),
                 pending=(), consistency=None, alarms=frozenset(),
                 head_index=0, head_hash=None, base_replay=None,
                 factory=None, app_spec=None, spec_cache=None,
                 floor=0, floor_strict=False):
        self.floor = floor
        self.floor_strict = floor_strict
        self.node = node
        self.kind = kind
        self.response = response
        self.known = known
        self.held = tuple(held)
        self.pending = tuple(pending)
        self.consistency = consistency
        self.alarms = alarms
        self.head_index = head_index
        self.head_hash = head_hash
        self.base_replay = base_replay
        self.factory = factory
        self.app_spec = app_spec
        #: Batch-scoped memo of factory → encoded spec (the deployment is
        #: quiescent during a batch, so one snapshot of e.g. a MapReduce
        #: content store serves every node sharing the factory).
        self.spec_cache = spec_cache

    def resolve_factory(self, context):
        if self.factory is not None:
            return self.factory
        return context.factory_for(self.node, self.app_spec)

    def to_wire(self):
        app_spec = self.app_spec
        if app_spec is None and self.factory is not None:
            cache = {} if self.spec_cache is None else self.spec_cache
            app_spec = cache.get(id(self.factory))
            if app_spec is None:
                wire_spec = getattr(self.factory, "wire_spec", None)
                if wire_spec is None:
                    raise WireError(
                        f"the application factory for node {self.node!r} "
                        "is not registry-backed; hand Deployment.add_node "
                        "a repro.apps.AppFactory (or register_app) to "
                        "build views in a process pool"
                    )
                app_spec = cache[id(self.factory)] = wire_spec()
        return ("W.work", self.node, self.kind,
                sanitize_response(self.response),
                frozenset(self.known), tuple(self.held),
                tuple(self.pending),
                None if self.consistency is None
                else tuple(self.consistency),
                frozenset(self.alarms),
                self.head_index, self.head_hash,
                None if self.base_replay is None
                else replay_handle_to_wire(self.base_replay),
                app_spec, self.floor, self.floor_strict)

    @classmethod
    def from_wire(cls, wire, context):
        (_tag, node, kind, response, known, held, pending, consistency,
         alarms, head_index, head_hash, base_replay, app_spec,
         floor, floor_strict) = wire
        work = cls(
            node, kind, response, known=known, held=held, pending=pending,
            consistency=consistency, alarms=alarms,
            head_index=head_index, head_hash=head_hash, app_spec=app_spec,
            floor=floor, floor_strict=floor_strict,
        )
        if base_replay is not None:
            work.base_replay = replay_handle_from_wire(
                base_replay, work.resolve_factory(context)
            )
        return work


# ------------------------------------------------------------ the outcome

class CompactOutcome:
    """One node's build/extend result: exactly what the verify+replay
    step produced, and exactly what :meth:`to_wire` ships.

    A status (``ok`` / ``verify-failed`` / ``replay-failed``) plus only
    value data — recomputed chain hashes, the checked / recovered /
    newly-skipped authenticator evidence, per-task QueryStats, and the
    (possibly extended) replay. What the *fetch* step learned stays on
    the coordinator's build job, which interprets this outcome
    (``absorb``) identically whether it was produced in-process or
    decoded from a worker. ``kind`` is ``built`` (a full build verified
    and replayed) or ``extended`` (an ``ok`` view's replay advanced by a
    verified delta).
    """

    __slots__ = ("node", "kind", "status", "reason", "hashes", "checked",
                 "recovered", "skipped", "tombstoned", "stats",
                 "replay_result", "replay_ran", "resident_head")

    OK = "ok"
    VERIFY_FAILED = "verify-failed"
    REPLAY_FAILED = "replay-failed"
    #: Resident executors only: the work referenced a worker-resident base
    #: replay the worker no longer holds (evicted, respawned, or at a
    #: different head). The executor falls back to a cold build.
    CACHE_MISS = "cache-miss"

    def __init__(self, node, kind):
        self.node = node
        self.kind = kind
        self.status = self.OK
        self.reason = None
        self.hashes = None
        self.checked = {}
        self.recovered = []
        self.skipped = []
        # Pending-skip signatures proven permanently uncheckable: they
        # fall below the node's advertised retention floor, whose prefix
        # GC discarded — the registry drains them (see microquery).
        self.tombstoned = []
        self.stats = None
        self.replay_result = None
        #: Whether replay advanced over suffix entries — for extends this
        #: means the base replay is no longer at its committed head (a
        #: worker's resident entry moves with it).
        self.replay_ran = False
        #: Resident executors: ``(head_index, head_hash)`` of the replay
        #: now held in the worker's resident cache. Set instead of
        #: shipping the replay — the executor wraps it in a
        #: :class:`ResidentReplay` handle.
        self.resident_head = None

    def to_wire(self):
        return ("W.outcome", self.node, self.kind, self.status, self.reason,
                None if self.hashes is None else tuple(self.hashes),
                tuple(sorted(self.checked.items())), tuple(self.recovered),
                tuple(self.skipped), tuple(self.tombstoned),
                stats_to_wire(self.stats),
                None if self.replay_result is None
                else replay_to_wire(self.replay_result),
                self.replay_ran, self.resident_head)

    @classmethod
    def from_wire(cls, wire, machine_factory):
        (_tag, node, kind, status, reason, hashes, checked, recovered,
         skipped, tombstoned, stats, replay, replay_ran,
         resident_head) = wire
        outcome = cls(node, kind)
        outcome.status = status
        outcome.reason = reason
        outcome.hashes = None if hashes is None else list(hashes)
        outcome.checked = dict(checked)
        outcome.recovered = list(recovered)
        outcome.skipped = list(skipped)
        outcome.tombstoned = list(tombstoned)
        outcome.stats = stats_from_wire(stats)
        if replay is not None:
            outcome.replay_result = replay_from_wire(replay, machine_factory)
        outcome.replay_ran = replay_ran
        outcome.resident_head = resident_head
        return outcome


# --------------------------------------------------- verifying a response

def verify_auth(public_key, auth, stats):
    """Signature check with accounting (Figure 8's verification cost)."""
    stats.signatures_verified += 1
    if not public_key.verify(canonical_bytes(auth.payload()),
                             auth.signature):
        raise AuthenticationError(
            f"authenticator from {auth.node!r} has an invalid signature"
        )


def response_head(response, hashes):
    """``(head_index, head_hash)`` a verified response advances a view
    to: its last entry, or its anchor when nothing was appended. The
    coordinator's finalize and a worker's resident entry both take the
    view head from here."""
    return (response.head_index,
            hashes[-1] if response.entries else response.start_hash)


def note_checked(checked, response, auth):
    """Memoize an authenticator that was actually compared against the
    verified chain (not one merely skipped as pre-anchor): a later refresh
    extends the same chain, so the comparison stays valid. Notes land in
    the outcome-local dict (signature → entry index, so the querier can
    later evict memos that fell below a verified head) and are committed
    to the querier's memo only when the view finalizes ``ok``."""
    if response.start_index - 1 <= auth.index <= response.head_index:
        checked[bytes(auth.signature)] = auth.index


def check_held_evidence(response, hashes, held, known, checked, stats):
    """Every evidence authenticator in *held* must lie on the verified
    chain. Evidence already verified on this same chain (*known*, the
    querier's memo, ∪ *checked*, this pass) is neither re-verified nor
    re-counted. The compute step runs this over the store prefix frozen
    at fetch time, finalize over the tail harvested since."""
    for auth in held:
        sig = bytes(auth.signature)
        if sig in known or sig in checked:
            continue
        check_against_authenticator(response, hashes, auth, stats)
        note_checked(checked, response, auth)


def check_parsed_forms(response):
    """Every entry's *parsed* form must re-derive its committed content.

    Replay reads ``entry.aux`` (the parsed tuple, message, ack); the hash
    chain commits to ``entry.content``; whoever serves a segment —
    origin, replica, pusher — chooses both. Unchecked, a lying replica
    could swap the tuple an honest, merely crashed node logged for
    another one, leave content, hashes and the signed head byte-identical,
    and have replay convict the honest node red. A ``chk`` entry's
    ``extant`` / ``believed`` lists are bound by Merkle root
    (:func:`verify_checkpoint`); its ``snapshot`` is bound by nothing yet
    (ROADMAP item 1)."""
    for entry in response.entries:
        kind, aux, content = entry.entry_type, entry.aux, entry.content
        try:
            if kind in (INS, DEL):
                agrees = aux["tup"].canonical() == content
            elif kind == SND:
                agrees = snd_entry_content(aux["msg"]) == content
            elif kind == RCV:
                msg, auth = aux["msg"], aux["batch_auth"]
                agrees = (msg.canonical(), msg.src) == content[:2] \
                    and auth.node == msg.src \
                    and (auth.index, auth.timestamp, auth.entry_hash,
                         auth.signature) == content[4:]
            elif kind == ACK:
                agrees = ack_entry_content(aux["wire_ack"]) == content
            else:
                continue
        except (KeyError, AttributeError, TypeError):
            agrees = False  # the parsed form is missing or misshapen
        if not agrees:
            raise LogVerificationError(
                response.node,
                f"{kind} entry {entry.index}'s parsed form does not "
                "re-derive its committed content",
            )


def embedded_authenticators(response):
    """``(signer, auth)`` for every entry that embeds a peer's
    authenticator: a ``rcv`` carries the sender's batch authenticator,
    an ``ack`` the acknowledger's (:func:`check_parsed_forms` has
    established that both are there)."""
    for entry in response.entries:
        if entry.entry_type == RCV:
            auth = entry.aux["batch_auth"]
            yield auth.node, auth
        elif entry.entry_type == ACK:
            wire_ack = entry.aux["wire_ack"]
            yield wire_ack.src, wire_ack.auth


def verify_checkpoint(node_id, chk_entry):
    """Verify the checkpoint's tuple lists against the Merkle roots
    committed in the log entry (Section 7.7: the Quagga-Disappear query
    spends most of its time 'verifying partial checkpoints using a Merkle
    Hash Tree'). A mismatch means the node's replay seed does not match
    what it committed to — proof of tampering."""
    _tag, local_root, belief_root, n_local, n_believed = chk_entry.content
    extant = chk_entry.aux.get("extant", [])
    believed = chk_entry.aux.get("believed", [])
    if len(extant) != n_local or len(believed) != n_believed:
        raise LogVerificationError(
            node_id, "checkpoint tuple counts do not match commitment"
        )
    local_tree = MerkleTree(
        [(tup.canonical(), appeared) for tup, appeared in extant]
    )
    belief_tree = MerkleTree(
        [(tup.canonical(), peer, appeared)
         for tup, peer, appeared in believed]
    )
    if local_tree.root() != local_root \
            or belief_tree.root() != belief_root:
        raise LogVerificationError(
            node_id, "checkpoint contents fail Merkle verification"
        )


def _verify_response(work, context, stats, outcome):
    """The node-local checks that can *prove* the node faulty.

    1. The fresh head authenticator must be validly signed and match the
       recomputed hash chain.
    2. Every evidence authenticator the querier already held for this node
       (the frozen store prefix in ``work.held``) must lie on the returned
       chain; evidence already verified on this same chain (``work.known``
       ∪ checked-this-pass) is neither re-verified nor re-counted.
    3. Pending skipped authenticators (below an earlier partial-segment
       anchor) are retroactively checked when this segment reaches far
       enough back; recovered ones are reported so the registry drains.
    4. Every entry's parsed form — what replay will read — must
       re-derive the content the chain commits to
       (:func:`check_parsed_forms`), and the authenticators embedded in
       rcv/ack entries must carry valid signatures from their claimed
       signers.
    5. Consistency check (Section 5.5): evidence peers hold about this
       node must lie on the same chain; new below-anchor skips are
       reported for the pending registry — except those below the node's
       advertised retention floor *and* the segment anchor, which are
       tombstoned (the prefix is GC'd; no future segment can ever check
       them).
    6. An attached checkpoint must *anchor* the returned segment
       (``checkpoint.index + 1 == start_index`` and ``start_hash`` equal
       to the checkpoint's own chain hash) — otherwise the responder is
       pairing a stale snapshot with a different suffix, which would
       silently corrupt checkpoint-seeded replay.
    7. Retention coverage: a full build that asked for the untruncated
       log but got a direct response anchored *above* the node's signed
       retention floor proves the node truncated below what it
       advertised.

    Returns the recomputed chain hashes aligned with the entries.
    """
    node_id = work.node
    response = work.response
    public_key = context.public_keys[node_id]
    if response.checkpoint is not None:
        chk = response.checkpoint
        if chk.index + 1 != response.start_index \
                or chk.entry_hash != response.start_hash:
            raise LogVerificationError(
                node_id,
                f"attached checkpoint (entry {chk.index}) does not anchor "
                f"the returned segment starting at {response.start_index} "
                "— the replay seed and the suffix belong to different "
                "prefixes",
            )
    if work.floor and work.floor_strict and work.kind == "built" \
            and not response.from_mirror:
        # The anchor claim is start_index - 1; a lie about it cannot
        # evade conviction: the chain recomputation from the claimed
        # start_hash up to the *signed* head authenticator fails unless
        # the anchor is genuine.
        anchor = response.start_index - 1
        if anchor > work.floor:
            raise LogVerificationError(
                node_id,
                f"log served from entry {anchor + 1} cannot anchor at the "
                f"advertised retention floor {work.floor} — the node "
                "truncated below what it signed (retention violation)",
            )
    verify_auth(public_key, response.head_auth, stats)
    hashes = verify_segment_hashes(response)
    check_against_authenticator(response, hashes, response.head_auth, stats)
    check_held_evidence(response, hashes, work.held, work.known,
                        outcome.checked, stats)
    first = response.start_index
    for auth in work.pending:
        sig = bytes(auth.signature)
        if sig in work.known or sig in outcome.checked:
            outcome.recovered.append(sig)  # verified on this chain already
            continue
        if auth.index < first - 1:
            # Below this segment's anchor: the response in hand cannot
            # check it. Below the node's signed retention floor too, no
            # *future* segment ever will — drain the registry entry (the
            # coverage loss stays visible); otherwise it stays pending.
            if work.floor and auth.index < work.floor:
                stats.auth_checks_tombstoned += 1
                outcome.tombstoned.append(sig)
            continue
        check_against_authenticator(response, hashes, auth, stats)
        stats.auth_checks_recovered += 1
        outcome.recovered.append(sig)
        note_checked(outcome.checked, response, auth)
    if response.checkpoint is not None:
        verify_checkpoint(node_id, response.checkpoint)
    check_parsed_forms(response)
    for signer, auth in embedded_authenticators(response):
        if signer not in context.public_keys:  # no peer could have sent it
            raise LogVerificationError(node_id, "log embeds an authenticator "
                                       f"from unregistered node {signer!r}")
        verify_auth(context.public_keys[signer], auth, stats)
    if work.consistency is not None:
        def on_skip(auth):
            if work.floor and auth.index < work.floor:
                # Below the GC'd prefix: never checkable by any later
                # build — tombstone instead of pending forever.
                stats.auth_checks_tombstoned += 1
                return
            outcome.skipped.append(auth)
        for auth in work.consistency:
            sig = bytes(auth.signature)
            if sig in work.known or sig in outcome.checked:
                continue  # verified on this same chain in an earlier pass
            try:
                verify_auth(public_key, auth, stats)
            except AuthenticationError:
                continue  # not actually signed by node_id; ignore
            check_against_authenticator(response, hashes, auth, stats,
                                        on_skip=on_skip)
            note_checked(outcome.checked, response, auth)
    return hashes


def compute_build(work, context):
    """The verify+replay step: a pure function of (work, context),
    mutating only objects the work item owns (for extends, the base
    replay). Expected fault conditions become a status on the returned
    :class:`CompactOutcome`; only genuinely unexpected errors propagate.
    """
    stats = QueryStats()
    outcome = CompactOutcome(work.node, work.kind)
    outcome.stats = stats
    response = work.response
    started = time.perf_counter()
    try:
        if work.kind == "extended" \
                and response.start_hash != work.head_hash:
            raise LogVerificationError(
                work.node,
                f"suffix after entry {work.head_index} does not "
                "continue the verified chain (fork after cached head)",
            )
        outcome.hashes = _verify_response(work, context, stats, outcome)
    except (LogVerificationError, AuthenticationError) as exc:
        stats.auth_check_seconds += time.perf_counter() - started
        outcome.status = CompactOutcome.VERIFY_FAILED
        outcome.reason = str(exc)
        return outcome
    stats.auth_check_seconds += time.perf_counter() - started

    if work.kind == "extended" and not response.entries:
        # Nothing appended; the fresh head authenticator was checked
        # against the cached head hash above, confirming no fork.
        return outcome
    outcome.replay_ran = True
    if work.kind == "extended":
        result = work.base_replay
        extend_replay(work.node, result, response,
                      known_alarm_msg_ids=work.alarms, stats=stats)
    else:
        result = replay_segment(
            work.node, response, work.resolve_factory(context),
            t_prop=context.t_prop, known_alarm_msg_ids=work.alarms,
            stats=stats,
        )
    outcome.replay_result = result
    if not result.ok:
        outcome.status = CompactOutcome.REPLAY_FAILED
        outcome.reason = str(result.failure)
    return outcome


def verify_anchor_segment(response, public_key, trusted_head, stats):
    """Verify a segment fetched solely to *anchor* owed evidence checks.

    Used by the on-demand anchoring fetch (a pending skip recorded by
    :func:`~repro.snp.replay.check_against_authenticator`'s ``on_skip``
    means evidence fell below an earlier segment's anchor): before any
    owed authenticator is compared against this segment, the segment
    itself must be committed to by the node — its head authenticator
    validly signed and on the recomputed chain — and, when the caller
    already audited this node up to *trusted_head* (an ``(index, hash)``
    pair, else None), the chain must pass through that head. Without the
    cross-check a forked node could serve one history to the auditor and
    a different one to anchor its debts; with it, the mismatch is itself
    proof of the fork. Returns the chain hashes aligned with the entries.
    """
    auth = response.head_auth
    verify_auth(public_key, auth, stats)
    hashes = verify_segment_hashes(response)
    check_against_authenticator(response, hashes, auth)
    if trusted_head is not None:
        index, trusted_hash = trusted_head
        # Attested == recomputed, as of two lines up; None when the
        # segment does not reach the audited head.
        found = response.hash_at(index)
        if found is not None and found != trusted_hash:
            raise LogVerificationError(
                response.node,
                f"anchoring segment does not pass through the audited "
                f"head at entry {index} (fork)",
            )
    return hashes


# ---------------------------------------------------- reading a built view

def graph_read(graph, op, payload):
    """The four read-only ops a querier runs against a view's graph —
    one dispatch, whether the graph lives in this process or in a
    worker (which clones the vertices it returns). Only ``find_all``
    costs O(graph)."""
    if op == "get":
        return graph.get(payload)
    if op == "around":
        vertex = graph.get(payload)
        if vertex is None:
            return None
        return (vertex, graph.predecessors(vertex),
                graph.successors(vertex))
    if op == "open_interval":
        return graph.open_interval(*payload)
    if op == "find_all":
        vtype, node, tup = payload
        return graph.find_all(vtype=vtype, node=node, tup=tup)
    raise ValueError(f"unknown view op {op!r}")
