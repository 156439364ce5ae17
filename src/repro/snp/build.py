"""The build step: verify a response, then replay it.

Between the querier's *fetch* and *commit* (:mod:`repro.snp.microquery`)
runs :func:`compute_build` on one node's build job, inline on the
calling thread, against the querier's live state: the evidence store as
it stands after every node committed before this one, the node's trust
record, and the deployment's keys, floors and alarms.

This is also the one home of "verify a response": every check that can
convict a node is written once here and called by the build step and
the anchoring fetch alike (the chain primitives stay in
:mod:`repro.snp.replay`).

Each byte is verified once. The chain check hashes the canonical bytes
the querier took of each entry's content when the segment arrived (the
same bytes its fetch was charged by), and :func:`verify_auth` runs one
RSA operation per distinct authenticator and key in a batch, whatever
the number of checks that ask for it (DESIGN.md, "One encode per
entry").
"""

from repro.crypto.merkle import MerkleTree
from repro.snp.commitment import ack_entry_content, snd_entry_content
from repro.snp.log import INS, DEL, SND, RCV, ACK
from repro.snp.replay import (
    check_against_authenticator, extend_replay, replay_segment,
    verify_segment_hashes,
)
from repro.util.errors import AuthenticationError, LogVerificationError
from repro.util.serialization import canonical_bytes


# --------------------------------------------------- verifying a response

def verify_auth(public_key, auth, stats, verified):
    """Signature check with accounting (Figure 8's verification cost).

    *verified* is the querier's memo of the checks that passed in the
    running batch: canonical payload bytes + signature bytes → the key
    object that verified them. The same bytes under the same key are the
    same RSA equation, so a hit skips the RSA operation; a miss, or a hit
    under another key, runs it. Every call is counted as a check
    (``signatures_verified``), hit or not. The canonical encoding is
    prefix-free, so the concatenation splits one way only. A signature
    that is not ``bytes`` (signing and the value codec make nothing
    else) is never memoized."""
    stats.signatures_verified += 1
    payload = canonical_bytes(auth.payload())
    signature = auth.signature
    key = None
    if type(signature) is bytes:
        key = payload + signature
        if verified.get(key) is public_key:
            return
    if not public_key.verify(payload, signature):
        raise AuthenticationError(
            f"authenticator from {auth.node!r} has an invalid signature"
        )
    if key is not None:
        verified[key] = public_key


def response_head(response, hashes):
    """``(head_index, head_hash)`` a verified response advances a view
    to: its last entry, or its anchor when nothing was appended."""
    return (response.head_index,
            hashes[-1] if response.entries else response.start_hash)


def note_checked(checked, response, auth):
    """Memoize an authenticator that was actually compared against the
    verified chain (not one merely skipped as pre-anchor): a later refresh
    extends the same chain, so the comparison stays valid. Notes land in
    the job's own dict (signature → entry index, so the querier can
    later evict memos that fell below a verified head) and are committed
    to the querier's memo only when the view commits ``ok``."""
    if response.start_index - 1 <= auth.index <= response.head_index:
        checked[bytes(auth.signature)] = auth.index


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
    (ROADMAP item 3)."""
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


def _verify_response(job, deployment, evidence, stats, verified):
    """The node-local checks that can *prove* the node faulty, against
    the querier's live state.

    1. The fresh head authenticator must be validly signed and match the
       recomputed hash chain.
    2. Every evidence authenticator the querier holds for this node — in
       a batch, including what the nodes committed before it harvested —
       must lie on the returned chain; evidence already verified on this
       same chain (the trust record's memo ∪ checked-this-pass) is
       neither re-verified nor re-counted.
    3. Pending skipped authenticators (below an earlier partial-segment
       anchor) are retroactively checked when this segment reaches far
       enough back; settled ones are reported so the registry drains.
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
    6. Retention coverage: a full build that asked for the untruncated
       log but got a direct response starting *above* the node's signed
       retention floor proves the node truncated below what it
       advertised.

    A checkpoint-anchored segment starts at its ``chk`` entry, so the
    chain check (1) re-hashes the checkpoint's content like any other
    entry's, and :func:`verify_checkpoint` ties the replay seed's tuple
    lists to that content.

    Returns the recomputed chain hashes aligned with the entries.
    """
    node_id = job.node
    response = job.response
    known, checked = job.trust.checked, job.checked
    floor = deployment.advertised_floor_of(node_id)
    public_key = deployment.public_key_of(node_id)
    if floor and job.floor_strict and not job.from_mirror:
        # A replica is exempt (a shallow mirror is no evidence against the
        # origin); the job, never the response, says who answered. A lie
        # about start_index cannot evade conviction: the chain
        # recomputation from the claimed start_hash up to the *signed*
        # head authenticator fails unless the anchor is genuine.
        if response.start_index > floor:
            raise LogVerificationError(
                node_id,
                f"log served from entry {response.start_index} does not "
                f"reach the advertised retention floor {floor} — the node "
                "truncated below what it signed (retention violation)",
            )
    verify_auth(public_key, response.head_auth, stats, verified)
    hashes = verify_segment_hashes(response, job.encoded)
    job.encoded = None  # hashed: the fetch's bytes are done with
    check_against_authenticator(response, hashes, response.head_auth, stats)
    for auth in evidence.for_node(node_id):
        sig = bytes(auth.signature)
        if sig not in known and sig not in checked:
            check_against_authenticator(response, hashes, auth, stats)
            note_checked(checked, response, auth)
    first = response.start_index
    for auth in job.trust.pending.values():
        sig = bytes(auth.signature)
        if sig in known or sig in checked:
            job.settled.append(sig)  # verified on this chain already
            continue
        if auth.index < first - 1:
            # Below this segment's anchor: the response in hand cannot
            # check it. Below the node's signed retention floor too, no
            # *future* segment ever will — drain the registry entry (the
            # coverage loss stays visible); otherwise it stays pending.
            if floor and auth.index < floor:
                stats.auth_checks_tombstoned += 1
                job.settled.append(sig)
            continue
        check_against_authenticator(response, hashes, auth, stats)
        stats.auth_checks_recovered += 1
        job.settled.append(sig)
        note_checked(checked, response, auth)
    if response.seed is not None:
        verify_checkpoint(node_id, response.seed)
    check_parsed_forms(response)
    for signer, auth in embedded_authenticators(response):
        if signer not in deployment.nodes:  # no peer could have sent it
            raise LogVerificationError(node_id, "log embeds an authenticator "
                                       f"from unregistered node {signer!r}")
        verify_auth(deployment.public_key_of(signer), auth, stats, verified)
    if job.consistency is not None:
        def on_skip(auth):
            if floor and auth.index < floor:
                # Below the GC'd prefix: never checkable by any later
                # build — tombstone instead of pending forever.
                stats.auth_checks_tombstoned += 1
                return
            job.skipped.append(auth)
        for auth in job.consistency:
            sig = bytes(auth.signature)
            if sig in known or sig in checked:
                continue  # verified on this same chain already
            try:
                verify_auth(public_key, auth, stats, verified)
            except AuthenticationError:
                continue  # not actually signed by node_id; ignore
            check_against_authenticator(response, hashes, auth, stats,
                                        on_skip=on_skip)
            note_checked(checked, response, auth)
    return hashes


def compute_build(job, deployment, evidence, stats, verified):
    """Verify ``job.response``, then replay it, counting into *stats*.

    Fills in the job: ``hashes`` (the recomputed chain, over the bytes in
    ``job.encoded``, which it then drops), ``checked`` / ``settled`` /
    ``skipped`` (what :func:`_verify_response` noted), and ``replay`` — a
    fresh replay for a full build, the base view's replay advanced in
    place for an extend. *verified* is the querier's per-batch signature
    memo (:func:`verify_auth`). A response that proves the node (or
    the mirror serving it) faulty raises :class:`LogVerificationError` or
    :class:`AuthenticationError` before replay touches anything; a replay
    crash is left on ``job.replay`` (``not job.replay.ok``).
    """
    response = job.response
    with stats.timing("auth_check_seconds"):
        if job.kind == "extended" \
                and response.start_hash != job.base_view.head_hash:
            raise LogVerificationError(
                job.node,
                f"suffix after entry {job.base_view.head_index} does not "
                "continue the verified chain (fork after cached head)",
            )
        job.hashes = _verify_response(job, deployment, evidence, stats,
                                      verified)
    alarms = frozenset(deployment.maintainer.alarmed_msg_ids())
    if job.kind == "extended":
        job.replay = job.base_view.replay
        # Nothing appended: the fresh head authenticator was checked
        # against the cached head hash above, confirming no fork.
        if response.entries:
            extend_replay(job.node, job.replay, response, stats,
                          known_alarm_msg_ids=alarms)
    else:
        job.replay = replay_segment(
            job.node, response, deployment.app_factories.get(job.node),
            deployment.effective_t_prop(), stats, known_alarm_msg_ids=alarms,
        )


def verify_anchor_segment(response, encoded, public_key, trusted_head, stats,
                          verified):
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
    proof of the fork. *encoded* is the fetch's
    :func:`~repro.snp.log.encode_contents`, *verified* the batch's
    signature memo. Returns the chain hashes aligned with the entries.
    """
    auth = response.head_auth
    verify_auth(public_key, auth, stats, verified)
    hashes = verify_segment_hashes(response, encoded)
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

