"""The build step: verify a response, compare the evidence, replay it.

Between the querier's *fetch* and *commit* (:mod:`repro.snp.microquery`)
runs :func:`compute_build` on one node's build job, inline on the
calling thread, against the querier's live state: the node's ledger as
it stands after every node committed before this one, and the
deployment's keys, floors and alarms.

This is also the one home of "verify a response": every check that can
convict a node is written once here and called by the build step and
the anchoring fetch alike (the chain primitives stay in
:mod:`repro.snp.replay`). The consistency check is one loop,
:func:`settle`: the build step, the querier taking in the authenticators
a verified log carries, and the anchoring fetch all compare evidence
with a verified chain through it.

Each byte is verified once. The chain check hashes the canonical bytes
the querier took of each entry's content when the segment arrived (the
same bytes its fetch was charged by), and :func:`verify_auth` runs one
RSA operation per distinct authenticator and key in a batch, whatever
the number of checks that ask for it (DESIGN.md, "One encode per
entry").
"""

from repro.crypto.hashing import content_digest
from repro.model import Msg, Tup
from repro.snp.commitment import (
    ack_entry_content, reaches, snd_entry_content,
)
from repro.snp.evidence import Authenticator
from repro.snp.log import INS, DEL, SND, RCV, ACK, CHK
from repro.snp.replay import (
    check_against_authenticator, extend_replay, replay_segment,
    verify_segment_hashes,
)
from repro.util.errors import (AuthenticationError, LogVerificationError,
                                ReplayDivergence)
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


def check_parsed_forms(response, seed_bytes):
    """Every entry must hold the parsed form replay reads.

    The chain hashes each content, whose objects replay reads, but the
    bytes cannot tell a ``Tup`` from its canonical tuple: a replica that
    swapped them would crash replay and convict an honest, crashed node.
    So an ``ins``/``del`` content is a ``Tup``; a ``snd``/``rcv`` one
    holds a ``Msg`` of a ``Tup``, then its dst or src; a ``rcv`` has 8
    fields, ``int`` indexes and a ``bytes`` signature (all the build step
    uses unchecked). An ``ack``'s wire ack must re-derive its content.

    A ``chk`` entry is read only as the seed of a full replay: then
    *seed_bytes* are the canonical bytes the fetch took of the seed's
    snapshot (:func:`~repro.snp.log.encode_snapshot`), and they must hash
    to the digest its content commits to; otherwise they are ``None``. A
    ``chk`` that seeds nothing is not read, so it is not checked; a trim
    that makes it a seed makes it checked."""
    for entry in response.entries:
        kind, content = entry.entry_type, entry.content
        if kind in (INS, DEL):
            agrees = isinstance(content, Tup)
        elif kind in (SND, RCV):
            arity, peer = (2, "dst") if kind == SND else (8, "src")
            agrees = type(content) is tuple and len(content) == arity \
                and isinstance(content[0], Msg) \
                and isinstance(content[0].tup, Tup) \
                and content[1] == getattr(content[0], peer) \
                and (kind == SND or type(content[3]) is int
                     and type(content[4]) is int
                     and type(content[7]) is bytes)
        elif kind == ACK:
            try:
                agrees = ack_entry_content(entry.aux["wire_ack"]) == content
            except (KeyError, AttributeError, TypeError):
                agrees = False  # the parsed form is missing or misshapen
        elif kind == CHK and seed_bytes is not None \
                and entry is response.seed:
            agrees = ("checkpoint", content_digest(seed_bytes)) == content
        else:
            continue
        if not agrees:
            raise LogVerificationError(
                response.node,
                f"{kind} entry {entry.index}'s parsed form does not "
                "re-derive its committed content",
            )


def _rcv_authenticator(content):
    """A ``rcv`` content's batch authenticator, its message's sender's."""
    return Authenticator(content[0].src, *content[4:])


def embedded_authenticators(response):
    """``(signer, auth)`` for every entry that embeds a peer's
    authenticator: a ``rcv`` carries the sender's batch authenticator,
    an ``ack`` the acknowledger's (:func:`check_parsed_forms` has
    established that both are there)."""
    for entry in response.entries:
        if entry.entry_type == RCV:
            auth = _rcv_authenticator(entry.content)
            yield auth.node, auth
        elif entry.entry_type == ACK:
            wire_ack = entry.aux["wire_ack"]
            yield wire_ack.src, wire_ack.auth


def check_receipts(response):
    """Every ``rcv`` entry of a one-entry batch (its content's start
    index is the authenticator's index: every batch, at ``t_batch = 0``)
    is one chain step from its ``h_start`` over ``snd(msg)`` — at the
    authenticator's timestamp — to the authenticator's hash. Otherwise
    the receiver logged a message other than the one its sender signed
    (:func:`~repro.snp.commitment.reaches`). Runs after the embedded
    signatures are checked, so only a validly signed authenticator
    convicts."""
    for entry in response.entries:
        if entry.entry_type != RCV:
            continue
        h_start, start_index, index = entry.content[2:5]
        if start_index != index:
            continue  # the batch's gap metadata is not in the entry
        auth = _rcv_authenticator(entry.content)
        sent = (index, auth.timestamp, SND,
                content_digest(snd_entry_content(entry.content[0])))
        if not reaches(h_start, start_index, [sent], auth):
            raise LogVerificationError(
                response.node,
                f"rcv entry {entry.index} logs a message {auth.node!r} did "
                "not sign",
            )


def _verify_response(job, deployment, stats, verified):
    """The node-local checks that can *prove* the node faulty, against
    the querier's live state.

    1. Retention coverage: a full build that asked for the untruncated
       log but got a direct response starting *above* the node's signed
       retention floor proves the node truncated below what it
       advertised.
    2. The fresh head authenticator must be validly signed and cover the
       segment's last entry on the recomputed hash chain, which hashes
       the very tuples and messages replay reads.
    3. Every entry must hold them in the parsed form replay reads
       (:func:`check_parsed_forms`). A checkpoint-anchored segment starts
       at its ``chk`` entry, so the chain check (2) re-hashes the
       checkpoint's content like any other entry's, and the snapshot a
       full build restores must hash to the digest that content commits
       to.
    4. The authenticators embedded in rcv/ack entries must carry valid
       signatures from their claimed signers.
    5. A ``rcv`` entry of a one-entry batch must chain from the sender's
       disclosed ``h_start`` over the message to the embedded
       authenticator (:func:`check_receipts`).

    What the querier holds about the node, and what its peers hold
    (Section 5.5's consistency check), is compared with the chain
    afterwards, by :func:`settle` (see :func:`compute_build`).
    """
    node_id = job.node
    response = job.response
    floor = deployment.advertised_floor_of(node_id)
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
    verify_auth(deployment.public_key_of(node_id), response.head_auth, stats,
                verified)
    hashes = verify_segment_hashes(response, job.encoded)
    job.encoded = None  # hashed: the fetch's bytes are done with
    check_against_authenticator(response, hashes, response.head_auth)
    check_parsed_forms(response, job.seed_bytes)
    for signer, auth in embedded_authenticators(response):
        if signer not in deployment.nodes:  # no peer could have sent it
            raise LogVerificationError(node_id, "log embeds an authenticator "
                                       f"from unregistered node {signer!r}")
        verify_auth(deployment.public_key_of(signer), auth, stats, verified)
    check_receipts(response)


def settle(node_id, auths, lookup, last, ledger, floor, stats, strict=True,
           verify=None):
    """The consistency check (Section 5.5) as one rule: every
    authenticator the querier holds about *node_id* lies on the chain it
    verified for the node.

    *lookup(index)* is that chain's hash of entry *index* (None outside
    it) and *last* its head. Each of *auths* leaves in one state of
    *ledger* (the querier's ``_Ledger``):

    * compared — on the chain: dropped (one that was ``behind`` counts
      as recovered); a mismatch proves a fork or rewrite, and raises;
    * owed — above *last*: into ``ledger.owed``, until the chain grows
      that far. With *strict* the chain is what the node serves now, so
      evidence above it proves the node served less than it signed, and
      raises. Below the chain but not below the signed retention
      *floor*: into ``ledger.behind``, the anchoring fetch's worklist,
      counted skipped once;
    * tombstoned — below the chain and the floor, whose prefix GC has
      discarded: no segment can ever check it, so it is counted and
      dropped.

    *verify(auth)* is given for peers' consistency evidence, whose
    signature nobody has checked yet: it runs only where the signature
    matters — before the authenticator is kept or convicts — and one that
    fails it is ignored. Returns whether ``ledger.behind`` grew.
    """
    grew = False
    for auth in auths:
        index, sig = auth.index, bytes(auth.signature)
        found = lookup(index)
        if found is not None and found == auth.entry_hash:
            if ledger.behind.pop(sig, None) is not None:
                stats.auth_checks_recovered += 1
            continue
        if verify is not None and not verify(auth):
            continue
        if found is not None:
            raise LogVerificationError(
                node_id,
                f"authenticator for entry {index} does not match the log "
                "(equivocation or tampering)",
            )
        if index > last:
            if strict:
                raise LogVerificationError(
                    node_id,
                    f"returned log ends at {last} but evidence covers {index}",
                )
            ledger.owed[sig] = auth
        elif floor and index < floor:
            ledger.behind.pop(sig, None)
            stats.auth_checks_tombstoned += 1
        elif sig not in ledger.behind:
            ledger.behind[sig] = auth
            stats.auth_checks_skipped += 1
            grew = True
    return grew


def _settle_pass(job, deployment, stats, verified):
    """Compare what the querier holds about the node, and what its peers
    hold, with the chain this pass verified: the base view's chain and the
    response's entries. Works on the job's copy of the node's ledger,
    which the commit installs, so a refused response changes nothing."""
    node_id, response, base = job.node, job.response, job.base_view
    ledger = job.ledger
    public_key = deployment.public_key_of(node_id)
    floor = deployment.advertised_floor_of(node_id)
    held = list(ledger.owed.values())
    ledger.owed = {}
    if base is None:  # a new chain: what fell behind the old one is retried
        held.extend(ledger.behind.values())

    def lookup(index):
        found = response.hash_at(index)
        if found is None and base is not None:
            found = base.hash_at(index)
        return found

    def signed(auth):
        try:
            verify_auth(public_key, auth, stats, verified)
        except AuthenticationError:
            return False  # not actually signed by node_id; ignore
        return True

    last = response.head_index
    grew = settle(node_id, held, lookup, last, ledger, floor, stats)
    job.anchor = settle(node_id, job.consistency, lookup, last, ledger, floor,
                        stats, verify=signed) or grew


def compute_build(job, deployment, stats, verified):
    """Verify ``job.response``, compare the node's evidence with it, and
    replay it, counting into *stats*.

    Fills in the job: ``ledger`` (its copy of the node's ledger, settled
    against the verified chain by :func:`settle`), ``anchor`` (whether
    evidence newly fell behind the chain's base) and ``replay`` — a fresh
    replay for a full build, the base view's replay advanced in place for
    an extend. ``job.encoded`` is hashed, then dropped. *verified* is the
    querier's per-batch signature memo (:func:`verify_auth`). A response
    that proves the node (or the mirror serving it) faulty raises
    :class:`LogVerificationError` or :class:`AuthenticationError`; a
    replay crash is left on ``job.replay`` and skips the evidence check,
    which a withheld input (``ContentUnavailable``) does not.

    A replica's evidence is compared before replay, so that a refused
    replica leaves the base view as it was. A direct response's evidence
    is compared after replay, as it would be had the evidence arrived
    after the build (:meth:`MicroQuerier._hold`): a conviction then costs
    the same replay whichever batch brought the evidence, so how builds
    are batched changes no counter.
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
        _verify_response(job, deployment, stats, verified)
        if job.from_mirror:
            _settle_pass(job, deployment, stats, verified)
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
    if not job.from_mirror \
            and not isinstance(job.replay.failure, ReplayDivergence):
        with stats.timing("auth_check_seconds"):
            _settle_pass(job, deployment, stats, verified)


def verify_anchor_segment(response, encoded, public_key, view, stats,
                          verified):
    """Verify a segment fetched solely to *anchor* the evidence behind
    *view*'s base (the anchoring fetch, :meth:`MicroQuerier._fetch_anchor`).

    Before any authenticator is compared against this segment, the
    segment itself must be committed to by the node — its head
    authenticator validly signed and on the recomputed chain — and it
    must pass through the head of the chain the querier already verified
    (*view*'s), wherever it reaches that far. Without the cross-check a
    forked node could serve one history to the auditor and a different
    one to anchor its evidence; with it, the mismatch is itself proof of
    the fork. *encoded* is the fetch's
    :func:`~repro.snp.log.encode_contents`, *verified* the batch's
    signature memo.
    """
    auth = response.head_auth
    verify_auth(public_key, auth, stats, verified)
    hashes = verify_segment_hashes(response, encoded)
    check_against_authenticator(response, hashes, auth)
    # Attested == recomputed, as of two lines up; None when the segment
    # does not reach the audited head.
    found = response.hash_at(view.head_index)
    if found is not None and found != view.head_hash:
        raise LogVerificationError(
            response.node,
            f"anchoring segment does not pass through the audited head at "
            f"entry {view.head_index} (fork)",
        )
