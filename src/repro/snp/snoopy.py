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

A :class:`LogCopy` is a stored copy of another node's log (a replica's
mirror, the monitor daemon's copy of a pushed node).
"""

from repro.model import Snd, WireValue
from repro.snp.commitment import (
    build_ack, build_batch, rcv_entry_content, ack_entry_content,
    snd_entry_content, verify_ack, verify_batch,
)
from repro.snp.evidence import sign_authenticator
from repro.snp.log import LogStretch, NodeLog, INS, DEL, SND, RCV, ACK, CHK
from repro.util.errors import AuthenticationError


class RetrieveResponse(WireValue, LogStretch):
    """What ``retrieve`` hands back to a querier.

    ``entries`` is the log segment (1-based contiguous range), ``start_hash``
    the chain hash before the first returned entry, and ``head_auth`` a
    fresh authenticator covering the final entry, so the querier can verify
    the full range even when it extends beyond the evidence it supplied.
    A checkpoint-anchored segment starts *at* its ``chk`` entry (see
    :attr:`seed`), so the chain check re-hashes the checkpoint like any
    other entry. Who answered is the querier's own knowledge, not a field.
    """

    __slots__ = ("node", "entries", "start_index", "start_hash", "head_auth")

    def __init__(self, node, entries, start_index, start_hash, head_auth):
        self.node = node
        self.entries = entries
        self.start_index = start_index
        self.start_hash = start_hash
        self.head_auth = head_auth

    @property
    def seed(self):
        """The ``chk`` entry a replay of this segment starts from — its
        first entry, when that is a checkpoint — else ``None``."""
        entries = self.entries
        if entries and entries[0].entry_type == CHK:
            return entries[0]
        return None

    @property
    def seeds_rebuild(self):
        """Whether this segment could seed a full view rebuild on its own:
        it starts at entry 1 or at a checkpoint (the shape checkpoint GC
        leaves behind). A bare suffix cannot."""
        return self.start_index == 1 or self.seed is not None

    def suffix(self, since_index=None):
        """A fresh response of the entries after *since_index* (all of
        them by default), on the same head authenticator; ``None`` when
        nothing follows (:meth:`~repro.snp.log.LogStretch.after`)."""
        if since_index is not None and since_index >= self.head_index:
            return None
        return RetrieveResponse(self.node, *self.after(since_index),
                                self.head_auth)


class LogCopy(LogStretch):
    """A stored copy of another node's log: a replica's mirror (Section
    5.8 suggests replicating each log so provenance survives a destroyed
    node) or the monitor daemon's copy of a pushed node. It stays
    contiguous and able to seed a full rebuild; :meth:`store` grows it,
    :meth:`serve` answers a ``retrieve`` from it, :meth:`trim` follows a
    sanctioned GC floor. A lying pusher gains nothing: what is served is
    verified by the querier exactly like a direct response."""

    __slots__ = ("node", "entries", "start_index", "start_hash", "head_auth")

    def __init__(self, node):
        self.node = node
        self.entries = []
        self.start_index = 1
        self.start_hash = None
        self.head_auth = None

    def __bool__(self):
        """Whether anything is stored yet."""
        return self.head_auth is not None

    def store(self, response):
        """Absorb *response*; returns whether the copy changed.

        * it continues the stored chain (starts one past the stored head,
          on its hash) → splice it on in place, adopting its head
          authenticator;
        * it can seed a rebuild, reaches *at least as far back* and its
          signed head further ahead (anything seeding, when nothing is
          stored) → replace the copy. A response anchored above the
          stored base never replaces: an origin that truncated itself
          below its sanctioned floor must not shrink a holder's evidence;
        * anything else (a gap, a broken chain, a shorter copy) → refuse.
        """
        if self and response.start_index == self.head_index + 1:
            if response.start_hash != self.hash_at(self.head_index):
                return False
            self.entries.extend(response.entries)
            self.head_auth = response.head_auth
            return True
        if not response.seeds_rebuild:
            return False
        if self and (response.start_index > self.start_index
                     or response.head_auth.index <= self.head_auth.index):
            return False
        self.entries = list(response.entries)
        self.start_index = response.start_index
        self.start_hash = response.start_hash
        self.head_auth = response.head_auth
        return True

    def serve(self, since_index=None):
        """:meth:`RetrieveResponse.suffix` of the copy: a snapshot a
        later splice does not grow (``None`` when nothing is stored)."""
        return RetrieveResponse.suffix(self, since_index) if self else None


class SNooPyNode:
    """A correct (non-Byzantine) node: primary system + provenance system."""

    def __init__(self, node_id, app, identity, deployment,
                 native_sizer=None):
        self.node_id = node_id
        self.app = app
        self.identity = identity
        self.deployment = deployment
        self.native_sizer = native_sizer
        self.log = NodeLog(node_id)
        self.received_auths = {}     # peer -> [Authenticator]  (U_{i,j})
        self._outbox = {}            # dst -> [(msg, LogEntry)]
        self._flush_scheduled = set()
        self._await_ack = {}         # batch auth signature -> WireBatch
        # Log-replication extension (paper Section 5.8 suggests mitigating
        # destroyed provenance state by replicating each log): mirror
        # copies of *other* nodes' logs, kept with the authenticator that
        # makes them independently verifiable.
        self.mirror_store = {}       # origin -> LogCopy
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
        self.log.append(t, INS, tup)
        self._process_outputs(self.app.handle_insert(tup, t), t)

    def delete(self, tup):
        """Delete a base tuple."""
        t = self._next_time()
        self.log.append(t, DEL, tup)
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
        entry = self.log.append(self._next_time(), SND,
                                snd_entry_content(msg))
        self._outbox.setdefault(msg.dst, []).append((msg, entry))
        t_batch = self.deployment.t_batch
        if t_batch <= 0:
            self._flush(msg.dst)
        elif msg.dst not in self._flush_scheduled:
            self._flush_scheduled.add(msg.dst)
            self.deployment.sim.schedule(
                t_batch, lambda dst=msg.dst: self._flush_timer(dst)
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
        rcv_entries = [self._receive(msg, batch)
                       for msg, _index, _t_entry in batch.msgs]
        self._acknowledge(batch, rcv_entries)

    def _receive(self, msg, batch):
        """Log *msg* under *batch*'s authenticator and feed it to the
        application; its outputs are logged before the next message of
        the batch is processed (GCA ordering invariant). Returns
        ``(msg, rcv entry)``."""
        t = self._next_time()
        entry = self.log.append(t, RCV, rcv_entry_content(msg, batch))
        self.received_auths.setdefault(batch.src, []).append(batch.auth)
        self._process_outputs(self.app.handle_receive(msg, t), t)
        return msg, entry

    def _acknowledge(self, batch, rcv_entries):
        self.deployment.transmit_ack(
            self, build_ack(self.log, self.identity, batch, rcv_entries))

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
        # The ack entry keeps this node's own batch authenticator: of the
        # acker's echo only the signature bytes were matched.
        wire_ack.batch_auth = batch.auth
        self.log.append(
            self._next_time(), ACK, ack_entry_content(wire_ack),
            aux={"wire_ack": wire_ack},
        )
        self.received_auths.setdefault(wire_ack.src, []).append(wire_ack.auth)

    # -------------------------------------------------------- checkpoints

    def checkpoint(self):
        """Record a checkpoint entry (Section 5.6)."""
        self.log.append_checkpoint(self._next_time(), self.app.snapshot())

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
        if limit < log.start_index:
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
        return self.log.trim(advert.floor_index)

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
        before the log head instead of entry 1: that ``chk`` entry is the
        segment's first, so replay can be seeded from it
        (:attr:`RetrieveResponse.seed`).

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
        starts at that checkpoint, on the tombstone hash before it
        (seeding replay at the retention floor), and a *since_index* at
        or above ``floor - 1`` still gets its delta. A *since_index*
        below that falls back to the full response — the querier
        resolves what it cannot reach as yellow.
        """
        log = self.log
        end = len(log)
        if end == 0:
            return None
        if since_index is None \
                or not log.start_index - 1 <= since_index <= end:
            chk = log.last_checkpoint_before(end) if from_checkpoint else None
            since_index = None if chk is None else chk.index - 1
        return RetrieveResponse(self.node_id, *log.after(since_index),
                                self.head_authenticator())

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
        """The :class:`LogCopy` this node holds of *origin*'s log, if any."""
        return self.mirror_store.get(origin)
