"""SNooPyNode: one node of the monitored system (paper Figure 3).

A SNooPyNode wraps the node's deterministic primary-system state machine
(the *application*) with the provenance system:

* the **graph recorder** — every input (base-tuple change, received
  message) and every sent message is committed to the tamper-evident log
  before/as it takes effect, so that the node's partition of the provenance
  graph can later be regenerated by deterministic replay (Section 5.4);
* the **commitment protocol** — outgoing messages carry authenticators,
  incoming messages are verified and acknowledged, and a missing
  acknowledgment raises an alarm to the maintainer after ``2·Tprop``
  (Section 5.4);
* the **retrieve** primitive — returns an authenticated log segment for the
  microquery module (Section 5.5). Byzantine subclasses in
  :mod:`repro.snp.adversary` override pieces of this machinery to lie,
  equivocate, tamper or stay silent.
"""

from repro.model import Snd, WireValue
from repro.snp.commitment import (
    build_ack, build_batch, rcv_entry_content, ack_entry_content,
    verify_ack, verify_batch,
)
from repro.snp.evidence import sign_authenticator
from repro.snp.log import NodeLog, INS, DEL, SND, RCV, ACK
from repro.util.errors import AuthenticationError


class RetrieveResponse(WireValue):
    """What ``retrieve`` hands back to a querier.

    ``entries`` is the log segment (1-based contiguous range), ``start_hash``
    the chain hash before the first returned entry, and ``head_auth`` a
    fresh authenticator covering the final entry, so the querier can verify
    the full range even when it extends beyond the evidence it supplied.
    """

    __slots__ = ("node", "entries", "start_index", "start_hash", "head_auth",
                 "checkpoint", "from_mirror")

    def __init__(self, node, entries, start_index, start_hash, head_auth,
                 checkpoint=None, from_mirror=False):
        self.node = node
        self.entries = entries
        self.start_index = start_index
        self.start_hash = start_hash
        self.head_auth = head_auth
        self.checkpoint = checkpoint
        self.from_mirror = from_mirror

    @property
    def head_index(self):
        """Index of the last entry covered (the anchor index when the
        segment is empty)."""
        return self.start_index + len(self.entries) - 1

    def hash_at(self, index):
        """The chain hash of entry *index* as this response attests it,
        or ``None`` when *index* is outside the attested range. The
        anchor (``start_index - 1``) is attested by ``start_hash``."""
        if index == self.start_index - 1:
            return self.start_hash
        if self.start_index <= index <= self.head_index:
            return self.entries[index - self.start_index].entry_hash
        return None


def response_can_seed_rebuild(response):
    """Whether a stored copy could seed a full view rebuild on its own:
    either it starts at entry 1, or it is anchored on the checkpoint it
    carries (the shape checkpoint GC leaves behind)."""
    if response.start_index == 1:
        return True
    return (response.checkpoint is not None
            and response.checkpoint.index + 1 == response.start_index)


def merge_mirror_responses(current, response):
    """Combine a stored mirror copy with a freshly pushed response.

    Returns the response worth storing, or ``None`` to keep what is
    already there. The rules keep every stored mirror a contiguous copy
    that can seed a full rebuild — entry-1-anchored, or anchored on the
    checkpoint it carries (the shape checkpoint GC leaves behind); a bare
    suffix without either base could not:

    * nothing stored yet → accept only a rebuild-seeding copy;
    * the push continues the stored copy's chain (``start_index`` is one
      past the stored head and ``start_hash`` matches the stored head
      entry's hash) → splice it on, adopting the fresh head authenticator
      (an empty continuation merely refreshes the authenticator —
      ``Deployment.replicate_deltas`` skips such no-op pushes, but a
      direct caller may use one to re-sign a stored head);
    * a rebuild-seeding copy that covers *at least as far back* as the
      stored one and whose signed head extends further → replace. A
      push anchored above the stored base never replaces: an origin
      that truncated itself below what the handshake sanctioned must
      not be able to shrink an honest replica's evidence (mirror
      retention is driven by ``Deployment.run_gc``'s sanctioned floors,
      not by whatever the origin re-pushes);
    * anything else (a non-contiguous suffix, a shorter copy) → keep the
      stored one.

    A lying pusher gains nothing: the spliced copy is verified end-to-end
    by the querier exactly like a direct response.
    """
    if response is None:
        return None
    if current is None:
        return response if response_can_seed_rebuild(response) else None
    if response.start_index == current.head_index + 1:
        if response.start_hash != current.hash_at(current.head_index):
            return None  # does not continue the stored chain
        return RetrieveResponse(
            node=current.node,
            entries=list(current.entries) + list(response.entries),
            start_index=current.start_index,
            start_hash=current.start_hash,
            head_auth=response.head_auth,
            checkpoint=current.checkpoint,
            from_mirror=current.from_mirror,
        )
    if response_can_seed_rebuild(response) \
            and response.start_index <= current.start_index \
            and response.head_auth.index > current.head_auth.index:
        return response
    return None


def truncate_response_below(response, floor):
    """Checkpoint GC for a stored mirror copy: the sub-response of
    *response* anchored on the CHK entry at *floor*.

    Returns *response* unchanged when it cannot be truncated there — the
    floor is at or below the copy's base, past its head, or the pivot
    entry is not a replay-seeding checkpoint (a replica never discards
    evidence it cannot prove replaceable).
    """
    first = response.start_index
    if floor < first or floor > response.head_index:
        return response
    if response.checkpoint is not None and floor <= response.checkpoint.index:
        return response
    pivot = response.entries[floor - first]
    from repro.snp.log import CHK
    if pivot.entry_type != CHK or "snapshot" not in pivot.aux:
        return response
    return RetrieveResponse(
        node=response.node,
        entries=response.entries[floor - first + 1:],
        start_index=floor + 1,
        start_hash=pivot.entry_hash,
        head_auth=response.head_auth,
        checkpoint=pivot,
        from_mirror=response.from_mirror,
    )


def suffix_of_response(response, since_index):
    """The sub-response of *response* covering entries after *since_index*.

    Used to serve delta retrieval out of a stored mirror copy: each entry
    carries its chain hash, so the entry at *since_index* anchors the
    continuation exactly as the origin's ``hash_before`` would. Returns

    * ``None`` when the stored copy ends at or before *since_index*
      (nothing new to serve);
    * *response* unchanged when the copy starts after *since_index* and
      therefore cannot anchor a continuation (the querier falls back to
      full verification);
    * otherwise a fresh response whose ``start_hash`` is the chain hash of
      entry *since_index*.
    """
    first = response.start_index
    if since_index >= response.head_index:
        return None
    if since_index < first:
        return response
    return RetrieveResponse(
        node=response.node,
        entries=response.entries[since_index - first + 1:],
        start_index=since_index + 1,
        start_hash=response.hash_at(since_index),
        head_auth=response.head_auth,
        checkpoint=None,
        from_mirror=response.from_mirror,
    )


class SNooPyNode:
    """A correct (non-Byzantine) node: primary system + provenance system."""

    def __init__(self, node_id, app, identity, deployment, t_batch=0.0,
                 native_sizer=None):
        self.node_id = node_id
        self.app = app
        self.identity = identity
        self.deployment = deployment
        self.t_batch = t_batch
        self.native_sizer = native_sizer
        self.log = NodeLog(node_id)
        self.received_auths = {}     # peer -> [Authenticator]  (U_{i,j})
        self._outbox = {}            # dst -> [(msg, LogEntry)]
        self._flush_scheduled = set()
        self._await_ack = {}         # batch auth signature -> WireBatch
        self.alarms = []             # missing-ack alarms raised locally
        # Log-replication extension (paper Section 5.8 suggests mitigating
        # destroyed provenance state by replicating each log): mirror
        # copies of *other* nodes' logs, kept with the authenticator that
        # makes them independently verifiable.
        self.mirror_store = {}       # origin -> RetrieveResponse
        # The node's latest signed retention-floor advertisement (the
        # checkpoint-GC handshake; see advertise_retention_floor).
        self.advertised_floor = None
        self._last_entry_t = float("-inf")

    # ------------------------------------------------------------- clocks

    def local_time(self):
        return self.deployment.sim.local_time(self.node_id)

    def _next_time(self):
        """A strictly increasing local timestamp for the next log entry.

        Appendix A.3 requires history timestamps to be strictly increasing
        (``t_k > t_{k-1}``); back-to-back local events can otherwise share
        a clock reading, which would collide provenance-vertex keys."""
        t = self.local_time()
        if t <= self._last_entry_t:
            t = self._last_entry_t + 1e-9
        self._last_entry_t = t
        return t

    # ----------------------------------------------------- primary inputs

    def insert(self, tup):
        """Insert a base tuple (an ``ins`` input to the state machine)."""
        t = self._next_time()
        self.log.append(t, INS, tup.canonical(), aux={"tup": tup})
        self._process_outputs(self.app.handle_insert(tup, t), t)

    def delete(self, tup):
        """Delete a base tuple."""
        t = self._next_time()
        self.log.append(t, DEL, tup.canonical(), aux={"tup": tup})
        self._process_outputs(self.app.handle_delete(tup, t), t)

    # ------------------------------------------------------------ sending

    def _process_outputs(self, outputs, t):
        for output in outputs:
            if isinstance(output, Snd):
                self._queue_send(output.msg, t)

    def _queue_send(self, msg, t):
        """Log the snd entry immediately (the log's ordering invariant:
        outputs are committed before the next input), then transmit now or
        at the next batch flush."""
        from repro.snp.commitment import snd_entry_content
        entry = self.log.append(
            self._next_time(), SND, snd_entry_content(msg),
            aux={"msg": msg}
        )
        self._outbox.setdefault(msg.dst, []).append((msg, entry))
        if self.t_batch <= 0:
            self._flush(msg.dst)
        elif msg.dst not in self._flush_scheduled:
            self._flush_scheduled.add(msg.dst)
            self.deployment.sim.schedule(
                self.t_batch, lambda dst=msg.dst: self._flush_timer(dst)
            )

    def _flush_timer(self, dst):
        self._flush_scheduled.discard(dst)
        self._flush(dst)

    def _flush(self, dst):
        queued = self._outbox.pop(dst, None)
        if not queued:
            return
        batch = build_batch(self.log, self.identity, dst, queued)
        self._await_ack[bytes(batch.auth.signature)] = batch
        self.deployment.transmit_batch(self, batch)
        self.deployment.sim.schedule(
            2.0 * self.deployment.sim.t_prop + 0.001,
            lambda b=batch: self._check_acked(b),
        )

    def _check_acked(self, batch):
        """The Section 5.4 rule: no valid ack within 2·Tprop → notify the
        maintainer (so forensics can distinguish a known delivery problem
        from a sender that silently dropped its obligation)."""
        key = bytes(batch.auth.signature)
        if key in self._await_ack:
            alarm = {
                "node": self.node_id,
                "dst": batch.dst,
                "msg_ids": [m.msg_id() for m, _i, _t in batch.msgs],
                "batch_auth": batch.auth,
            }
            self.alarms.append(alarm)
            self.deployment.maintainer.notify_missing_ack(alarm)

    # ---------------------------------------------------------- receiving

    def on_batch(self, batch):
        t = self.local_time()
        try:
            verify_batch(
                batch, self.identity,
                self.deployment.public_key_of(batch.src), t,
                self.deployment.plausibility_window(),
            )
        except AuthenticationError as exc:
            self.deployment.maintainer.record_rejected_wire(
                self.node_id, batch.src, str(exc)
            )
            return
        rcv_entries = []
        for msg, _index, _t_entry in batch.msgs:
            t = self._next_time()
            entry = self.log.append(
                t, RCV, rcv_entry_content(msg, batch),
                aux={"msg": msg, "batch_auth": batch.auth},
            )
            rcv_entries.append((msg, entry))
            self.received_auths.setdefault(batch.src, []).append(batch.auth)
            # Feed the application; its outputs are logged before the next
            # message of the batch is processed (GCA ordering invariant).
            self._process_outputs(self.app.handle_receive(msg, t), t)
        ack = build_ack(self.log, self.identity, batch, rcv_entries)
        self.deployment.transmit_ack(self, ack)

    def on_ack(self, wire_ack):
        key = bytes(wire_ack.batch_auth.signature)
        batch = self._await_ack.get(key)
        if batch is None:
            return  # duplicate or unsolicited ack
        t = self.local_time()
        try:
            verify_ack(
                wire_ack, self.identity,
                self.deployment.public_key_of(wire_ack.src), batch, t,
                self.deployment.plausibility_window(),
            )
        except AuthenticationError as exc:
            self.deployment.maintainer.record_rejected_wire(
                self.node_id, wire_ack.src, str(exc)
            )
            return
        del self._await_ack[key]
        self.log.append(
            self._next_time(), ACK, ack_entry_content(wire_ack),
            aux={"wire_ack": wire_ack},
        )
        self.received_auths.setdefault(wire_ack.src, []).append(wire_ack.auth)

    # -------------------------------------------------------- checkpoints

    def checkpoint(self):
        """Record a checkpoint entry (Section 5.6)."""
        t = self._next_time()
        snapshot = self.app.snapshot()
        self.log.append_checkpoint(
            t, snapshot,
            list(self.app.extant_tuples()),
            list(self.app.believed_tuples()),
        )

    # -------------------------------------------------------- retention GC

    def advertise_retention_floor(self, mark=None):
        """The node's half of the retention handshake.

        *mark* is the lowest verified head any live standing auditor
        holds for this node (None = unconstrained). An honest node
        advertises the newest checkpoint at or below the mark — the
        deepest truncation that cannot strand an auditor's anchor — and
        signs the advertisement (see
        :class:`~repro.snp.evidence.RetentionFloor`). Returns None when
        there is nothing to advertise (no eligible checkpoint, or a mark
        below the already-truncated base).
        """
        from repro.snp.evidence import sign_retention_floor
        log = self.log
        head = len(log)
        if head == 0:
            return None
        limit = head if mark is None else min(mark, head)
        if limit < log.first_index:
            return None  # cannot honor a mark below the retained base
        chk = log.last_checkpoint_before(limit)
        if chk is None:
            return None
        self.advertised_floor = sign_retention_floor(
            self.identity, chk.index, chk.timestamp
        )
        return self.advertised_floor

    def gc_truncate(self):
        """Truncate the log to the advertised floor; returns bytes
        reclaimed. A correct node never discards more than it advertised
        (Byzantine subclasses may)."""
        advert = self.advertised_floor
        if advert is None:
            return 0
        return self.log.truncate_below(advert.floor_index)

    # ----------------------------------------------------- query services

    def head_authenticator(self):
        """A fresh authenticator over the current log head (bootstrap
        evidence for a querier). Returns None on an empty log."""
        if len(self.log) == 0:
            return None
        entry = self.log.entry(len(self.log))
        return sign_authenticator(
            self.identity, entry.index, entry.timestamp, entry.entry_hash
        )

    def retrieve(self, from_checkpoint=False, since_index=None):
        """The ``retrieve`` primitive (Section 5.4): return an authenticated
        log segment. A correct node always complies.

        With *from_checkpoint*, the segment starts at the last checkpoint
        before the log head instead of entry 1, and the response carries
        that checkpoint so replay can be seeded from it.

        With *since_index*, only the suffix after that entry is returned —
        the delta mode a querier uses to extend an already-verified view.
        ``start_hash`` is the chain hash of entry *since_index*, anchoring
        the continuation, and the response may be empty (the fresh head
        authenticator still lets the querier confirm nothing changed).
        *since_index* beyond the log head falls back to the full log: a
        correct node can never be shorter than a head it signed, so the
        querier's evidence exposes the fork during full verification.

        A GC'd log serves what it retains: the oldest retained entry is
        the checkpoint the truncation anchored on, so a "full" response
        is checkpoint-anchored at the retention floor (seeding replay
        there), and a *since_index* at or above ``floor - 1`` still gets
        its delta (the tombstone anchor hash survives truncation). A
        *since_index* below that falls back to the checkpoint-anchored
        response — the querier resolves what it cannot reach as yellow.
        """
        end = len(self.log)
        if end == 0:
            return None
        first = self.log.first_index
        checkpoint = None
        start = 1
        if since_index is not None and first - 1 <= since_index <= end:
            start = since_index + 1
        else:
            chk = None
            if from_checkpoint:
                chk = self.log.last_checkpoint_before(end)
            if chk is None and self.log.truncated:
                # The oldest retained entry is the GC anchor checkpoint.
                chk = self.log.entry(first)
            if chk is not None:
                checkpoint = chk
                start = chk.index + 1
        entries = self.log.segment(start, end)
        head = self.log.entry(end)
        head_auth = sign_authenticator(
            self.identity, head.index, head.timestamp, head.entry_hash
        )
        return RetrieveResponse(
            node=self.node_id,
            entries=entries,
            start_index=start,
            start_hash=self.log.hash_before(start),
            head_auth=head_auth,
            checkpoint=checkpoint,
        )

    def authenticators_about(self, peer, since=0):
        """Authenticators this node holds that were signed by *peer* —
        served to queriers running the consistency check.

        ``received_auths`` is append-only, so *since* (how many entries
        the caller already scanned) is a stable cursor: only the suffix
        of newly received evidence is returned, the consistency-check
        counterpart of ``retrieve(since_index=)``.
        """
        held = self.received_auths.get(peer, ())
        return list(held[since:]) if since else list(held)

    # --------------------------------------------------- log replication

    def mirror_of(self, origin):
        """The mirror this node holds for *origin*'s log, if any."""
        return self.mirror_store.get(origin)
