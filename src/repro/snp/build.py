"""The build step: verify a response, then replay it.

Between the querier's *fetch* and *finalize* (:mod:`repro.snp.microquery`)
runs :func:`compute_build`, a pure function of a :class:`BuildWork` and a
:class:`BuildContext`, inline on the calling thread.

This is also the one home of "verify a response": every check that can
convict a node is written once here and called by the compute step, the
finalize tail and the anchoring fetch alike (the chain primitives stay
in :mod:`repro.snp.replay`).
"""

import time

from repro.crypto.merkle import MerkleTree
from repro.metrics import QueryStats
from repro.snp.commitment import ack_entry_content, snd_entry_content
from repro.snp.log import INS, DEL, SND, RCV, ACK
from repro.snp.replay import (
    check_against_authenticator, extend_replay, replay_segment,
    verify_segment_hashes,
)
from repro.util.errors import AuthenticationError, LogVerificationError
from repro.util.serialization import canonical_bytes


# ----------------------------------------------------------- build context

class BuildContext:
    """What the verify+replay step may consult beyond its work item: the
    querier's public-key table and the deployment's Tprop bound for
    replay."""

    __slots__ = ("public_keys", "t_prop")

    def __init__(self, public_keys, t_prop=1.0):
        self.public_keys = public_keys
        self.t_prop = t_prop


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
    replay to advance. ``factory`` is the node's application factory.
    ``floor`` is the node's advertised retention floor (0 = never
    advertised): evidence below it is tombstoned (permanently
    uncheckable — the prefix is GC'd) instead of left pending, and with
    ``floor_strict`` (a full build that asked for the untruncated log) a
    direct response anchored *above* the floor convicts the node of
    over-truncation.
    """

    __slots__ = ("node", "kind", "response", "known", "held", "pending",
                 "consistency", "alarms", "head_index", "head_hash",
                 "base_replay", "factory", "floor", "floor_strict")

    def __init__(self, node, kind, response, known=frozenset(), held=(),
                 pending=(), consistency=None, alarms=frozenset(),
                 head_index=0, head_hash=None, base_replay=None,
                 factory=None, floor=0, floor_strict=False):
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


# ------------------------------------------------------------ the outcome

class CompactOutcome:
    """One node's build/extend result: exactly what the verify+replay
    step produced.

    A status (``ok`` / ``verify-failed`` / ``replay-failed``) plus
    recomputed chain hashes, the checked / recovered / newly-skipped
    authenticator evidence, the step's QueryStats, and the (possibly
    extended) replay. What the *fetch* step learned stays on the build
    job, which interprets this outcome (``absorb``). ``kind`` is
    ``built`` (a full build verified and replayed) or ``extended`` (an
    ``ok`` view's replay advanced by a verified delta).
    """

    __slots__ = ("node", "kind", "status", "reason", "hashes", "checked",
                 "recovered", "skipped", "tombstoned", "stats",
                 "replay_result")

    OK = "ok"
    VERIFY_FAILED = "verify-failed"
    REPLAY_FAILED = "replay-failed"

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
    to: its last entry, or its anchor when nothing was appended."""
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
    if work.kind == "extended":
        result = work.base_replay
        extend_replay(work.node, result, response,
                      known_alarm_msg_ids=work.alarms, stats=stats)
    else:
        result = replay_segment(
            work.node, response, work.factory,
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

