"""Byzantine node behaviors for fault injection (paper Section 2.1).

The threat model gives the adversary complete control over compromised
nodes: both the primary system and the provenance system on those nodes can
be altered. Each class here implements one canonical attack. The tests'
adversary corpus (``tests/scenarios.py``'s ``CORPUS``) stages each one,
with the verdict an audit must reach: the paper's completeness property
(every *detectable* fault yields a red or yellow vertex) and its
limitations (input lies are not automatically detectable). An input lie
needs no class: the liar calls ``insert``, and the corpus row names it
as the adversary.

Summary of what each attack looks like to a querier:

=====================  ===========================================
Attack                 Detection path
=====================  ===========================================
Message fabrication    replay: snd entry with no matching output → red send
Mis-execution          replay: outputs diverge from snd entries → red
Log tampering          hash chain fails to recompute → proven faulty
Log forking            consistency check: off-chain authenticator → proven
                       faulty (equivocation)
Message suppression    peer's signed evidence has no counterpart → red
                       (handle-extra-msg), or missing-ack alarm
Misreception           rcv entry does not chain to the sender's signed
                       hash → proven faulty (one-entry batches only)
Query refusal          retrieve unanswered → yellow vertices
Input lying            any node's plain ``insert``: *not detectable*
                       (black); Section 4.2 limitation
=====================  ===========================================
"""

from repro.model import Msg, Tup
from repro.snp.log import NodeLog, link
from repro.snp.snoopy import SNooPyNode


class FabricatorNode(SNooPyNode):
    """Sends ``+τ/−τ`` messages its state machine never produced.

    The fabricated message is committed to the log like any other send (the
    commitment protocol forces that — an unlogged message would be rejected
    by the receiver's batch verification). Replay then exposes it: the
    deterministic machine does not produce the output, so the GCA's
    ``handle-event-snd`` colors the send vertex red.
    """

    def fabricate(self, polarity, tup, dst):
        t = self.local_time()
        msg = self.app.make_msg(polarity, tup, dst, t)
        self._queue_send(msg, t)
        return msg


class MisexecutingNode(SNooPyNode):
    """Runs a different program than the one it is expected to run.

    ``corrupt_app`` executes at runtime; the deployment's registered factory
    (the *expected* behavior ``A_i``) is what replay uses, so every output
    the corrupt app produces beyond the honest one becomes a red send
    vertex — this is the paper's corrupt-Hadoop-mapper scenario.
    """

    def install_corrupt_app(self, corrupt_app):
        self.app = corrupt_app


class TamperingNode(SNooPyNode):
    """Rewrites a committed log entry after the fact.

    With ``recompute_chain=False`` the stored hashes no longer recompute —
    the querier's segment verification fails immediately. With
    ``recompute_chain=True`` the node rebuilds a self-consistent chain, but
    every authenticator it issued before the edit is now off-chain, so the
    consistency check exposes it as soon as any peer's evidence is
    consulted.
    """

    def tamper_entry(self, index, new_content, recompute_chain=False):
        """Replace entry *index*'s content with *new_content* (a
        :class:`~repro.model.Tup`, for an ``ins``/``del`` lie replay
        reads as it would an honest one)."""
        entry = self.log.entry(index)
        entry.content = new_content
        if recompute_chain:
            self._rebuild_chain()
        return entry

    def _rebuild_chain(self):
        prev = self.log.start_hash
        for entry in self.log.entries:
            prev = link(prev, entry).entry_hash


class ForkingNode(SNooPyNode):
    """Equivocates by discarding a log suffix and rewriting history.

    Authenticators covering the discarded suffix are already in other
    nodes' hands; when the querier runs the consistency check, those
    authenticators fail to match the replacement chain, proving the fork.
    """

    def fork_log(self, keep_upto):
        """Drop all entries after *keep_upto* and continue from there."""
        old = self.log
        fresh = NodeLog(self.node_id)
        fresh.entries, fresh.start_index, fresh.start_hash = old.after()
        del fresh.entries[keep_upto + 1 - old.start_index:]
        self.log = fresh
        # Sends awaiting acks on the abandoned branch are forgotten.
        self._await_ack.clear()
        self._outbox.clear()


class SuppressorNode(SNooPyNode):
    """Processes an input but hides the resulting messages from its log
    *and* from the wire: it simply drops selected outputs.

    The peer that should have received the message never acks (nothing was
    sent), so nothing is visibly wrong at this node — but any downstream
    state the suppressed message should have maintained goes stale, and the
    suppressed (un)derivation makes later logged sends inconsistent with
    replay, surfacing red vertices.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.suppress_to = set()

    def _queue_send(self, msg, t):
        if msg.dst in self.suppress_to:
            return  # silently dropped: no log entry, no wire
        super()._queue_send(msg, t)


class MisreceivingNode(SNooPyNode):
    """Logs, processes and acknowledges a message other than the one its
    sender signed: the first message it accepts (genuinely signed, so
    ``verify_batch`` passes) with its tuple's last argument raised by 50,
    under the sender's batch authenticator. With
    ``withhold_ack`` it does not acknowledge that batch either.

    Detection: the sender refuses the ack (it rebuilds the rcv entry from
    its own message) and raises the missing-ack alarm. The querier
    re-chains a one-entry batch's rcv entry over the logged message and
    misses the signed hash: proof (``build.check_receipts``). A longer
    batch's rcv entry carries no gap metadata, so it stays unchecked.
    """

    withhold_ack = False

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: ``(sent, logged)`` once the lie is told
        self.misreceived = None

    def _receive(self, msg, batch):
        if self.misreceived is None:
            tup = msg.tup
            lie = Msg(msg.polarity,
                      Tup(tup.relation, tup.loc, *tup.args[:-1],
                          tup.args[-1] + 50),
                      msg.src, msg.dst, msg.seq, msg.t_sent)
            self.misreceived = (msg, lie)
            msg = lie
        return super()._receive(msg, batch)

    def _acknowledge(self, batch, rcv_entries):
        if self.withhold_ack and any(
                msg is self.misreceived[1] for msg, _entry in rcv_entries):
            return
        super()._acknowledge(batch, rcv_entries)


class SilentNode(SNooPyNode):
    """Refuses to answer retrieve (and optionally the consistency check).

    Its vertices stay yellow — the paper's "remains yellow → host(v) is
    refusing to respond and is therefore faulty" outcome.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.refuse_retrieve = True
        self.refuse_consistency = True

    def retrieve(self, from_checkpoint=False, since_index=None):
        if self.refuse_retrieve:
            return None
        return super().retrieve(from_checkpoint, since_index)

    def head_authenticator(self):
        if self.refuse_retrieve:
            return None
        return super().head_authenticator()

    def authenticators_about(self, peer, since=0):
        if self.refuse_consistency:
            return []
        return super().authenticators_about(peer, since=since)


class OverTruncatingNode(SNooPyNode):
    """Advertises an honest retention floor, then truncates *below* it —
    discarding entries the handshake promised to retain (typically the
    region holding incriminating evidence, hoping red fades to yellow).

    Detection: the signed advertisement commits the node to serving
    segments that start at or below the floor. Any full build that gets
    a direct response starting above the advertised floor is proof of
    the violation — the querier marks the node proven faulty (check 6 of
    ``build._verify_response``, which reads the floor from
    ``Deployment.advertised_floor_of``).
    """

    def gc_truncate(self):
        chk = self.log.last_checkpoint_before(len(self.log))
        if chk is None or chk.index <= self.log.start_index:
            return super().gc_truncate()
        return self.log.trim(chk.index)


class FloorLiarNode(SNooPyNode):
    """Advertises a retention floor *above* live auditors' verified heads
    — claiming the right to discard entries still anchored on — and
    truncates to it unilaterally.

    Detection: the advertisement is signed, and the auditors' heads are
    signed; floor > head is a contradiction between two commitments the
    maintainer can exhibit (``Maintainer.retention_faults``), so the
    node is convicted at handshake time and queriers treat it as proven
    faulty without ever trusting its log again.
    """

    def advertise_retention_floor(self, mark=None):
        # Ignore the auditors' marks: advertise (and immediately truncate
        # to) the newest checkpoint, whatever anyone still anchors on.
        advert = super().advertise_retention_floor(mark=None)
        if advert is not None:
            self.log.trim(advert.floor_index)
        return advert

