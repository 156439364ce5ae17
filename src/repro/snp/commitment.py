"""The commitment protocol: signed message batches and acknowledgments.

Per-message protocol (paper Section 5.4): to send m, node i appends a snd
entry, then transmits ``(m, h_{x-1}, t_x, σ_i(t_x || h_x))``; the receiver j
recomputes ``h_x``, checks the signature and the timestamp plausibility
window (``Δclock + Tprop``), logs a rcv entry, and returns a signed
acknowledgment that commits j to that rcv entry. i verifies the ack by
recomputing j's rcv-entry hash from its *own* message and authenticator
(it knows the entry's content exactly) and logs an ack entry.

Batching (Section 5.6): with ``Tbatch > 0``, messages to the same
destination are logged immediately (so the log's input/output ordering
invariant holds) but transmitted together under a *single* signature
covering the last entry of the window. Entries interleaved between the
batched snd entries are disclosed only as ``(index, t, type, H(content))``
metadata, which is enough to verify hash-chain continuity without revealing
their content. Acknowledgments batch symmetrically.

Both directions are one decision: :func:`disclose` is how a signer
discloses a range of its log, :func:`reaches` how anyone checks one — the
chain recomputed from ``h_start`` over the disclosed entries arrives at
the authenticator's hash, and the last of them at its timestamp. The same check lets a querier hold a receiver
to what it was sent: a ``rcv`` entry of a one-entry batch carries the
whole range (``h_start`` and the authenticator over the sender's snd
entry), so a receiver that logged another message than the one signed is
proven faulty (:func:`repro.snp.build.check_receipts`). A ``rcv`` entry of
a longer batch does not carry the batch's gap metadata, so it cannot be
checked yet.
"""

from repro.crypto.hashing import chain_hash, chain_time, content_digest
from repro.model import WireValue
from repro.snp.evidence import sign_authenticator, verify_authenticator
from repro.snp.log import SND, RCV
from repro.util.errors import AuthenticationError


class WireBatch:
    """One signed bundle of ``+τ/−τ`` messages from src to dst.

    Attributes:
        msgs: list of (Msg, snd_entry_index, entry_timestamp).
        gaps: metadata tuples (index, t, type, content_hash) for entries in
            the covered range that are not these snd entries.
        start_index: index of the first covered entry.
        h_start: chain hash immediately before start_index.
        auth: Authenticator over the last covered entry.
    """

    __slots__ = ("src", "dst", "msgs", "gaps", "start_index", "h_start",
                 "auth")

    def __init__(self, src, dst, msgs, gaps, start_index, h_start, auth):
        self.src = src
        self.dst = dst
        self.msgs = msgs
        self.gaps = gaps
        self.start_index = start_index
        self.h_start = h_start
        self.auth = auth

    def __repr__(self):
        return f"WireBatch({self.src}->{self.dst}, {len(self.msgs)} msgs)"


class WireAck(WireValue):
    """One signed acknowledgment covering the messages of a WireBatch.

    ``rcv_metas`` lists (msg_id, rcv_entry_index, rcv_entry_timestamp) for
    each covered message, in receive order; ``gaps`` discloses chain
    metadata for the receiver's interleaved entries (e.g. the snd entries
    of outputs it produced while processing the batch).
    """

    __slots__ = ("src", "dst", "batch_auth", "rcv_metas", "gaps",
                 "start_index", "h_start", "auth", "msgs")

    def __init__(self, src, dst, batch_auth, rcv_metas, gaps, start_index,
                 h_start, auth, msgs):
        self.src = src                # the acker (original receiver)
        self.dst = dst                # the original sender
        self.batch_auth = batch_auth  # echoes which batch is acked
        self.rcv_metas = rcv_metas
        self.gaps = gaps
        self.start_index = start_index
        self.h_start = h_start
        self.auth = auth
        self.msgs = msgs              # the covered Msg objects

    def __repr__(self):
        return f"WireAck({self.src}->{self.dst}, {len(self.rcv_metas)} msgs)"


def snd_entry_content(msg):
    """Committed content of a snd entry: ``(t_k, snd, (m, j))``."""
    return (msg.canonical(), msg.dst)


def rcv_entry_content(msg, batch):
    """Committed content of a rcv entry: ``(m, i, a, b, c)`` — the message,
    the sender, and the batch authenticator binding it to the sender's log."""
    return (
        msg.canonical(), msg.src,
        batch.h_start, batch.start_index,
        batch.auth.index, batch.auth.timestamp, batch.auth.entry_hash,
        batch.auth.signature,
    )


def ack_entry_content(wire_ack):
    """Committed content of an ack entry on the original sender."""
    return (
        tuple(m.msg_id() for m in wire_ack.msgs),
        wire_ack.h_start, wire_ack.start_index,
        wire_ack.auth.index, wire_ack.auth.timestamp,
        wire_ack.auth.entry_hash, wire_ack.auth.signature,
    )


def disclose(log, identity, shown, last):
    """A signer's disclosure of its entries ``shown[0].index .. last``
    beside the *shown* entries themselves: ``(gaps, start_index, h_start,
    auth)`` — the metadata of every other entry in the range, where the
    range starts, the chain hash it starts on, and the signature over its
    last entry."""
    first = shown[0].index
    indexes = {entry.index for entry in shown}
    gaps = [log.entry(index).meta() for index in range(first, last + 1)
            if index not in indexes]
    end = log.entry(last)
    return gaps, first, log.hash_at(first - 1), sign_authenticator(
        identity, end.index, end.timestamp, end.entry_hash)


def reaches(h_start, start_index, metas, auth):
    """Whether a disclosed range is on the chain *auth* signs: the chain
    recomputed from *h_start* (``h_{start_index - 1}``) over *metas* —
    ``(index, t, type, content hash)`` of every entry the range
    discloses — through ``auth.index`` arrives at ``auth.entry_hash``,
    and the entry at ``auth.index`` has the signed timestamp, bit for
    bit as the chain hashes it (a signer always signs its entry's own; a
    misdated authenticator — or one signed at an equal int or ``-0.0`` —
    would let a sender frame a receiver whose rcv entry re-chains at the
    signed time). An entry omitted, disclosed twice or outside the
    signed range does not."""
    pieces = {}
    for index, t_entry, entry_type, c_hash in metas:
        if index in pieces or not start_index <= index <= auth.index:
            return False
        pieces[index] = (t_entry, entry_type, c_hash)
    last = pieces.get(auth.index)
    if last is None:
        return False
    current = h_start
    try:  # a digest, time or type no chain step takes reaches nothing
        if chain_time(last[0]) != chain_time(auth.timestamp):
            return False
        for index in range(start_index, auth.index + 1):
            piece = pieces.get(index)
            if piece is None:
                return False
            current = chain_hash(current, *piece)
    except ValueError:
        return False
    return current == auth.entry_hash


def _check_signed_range(what, value, verifier_identity, public_key, metas,
                        local_time, plausibility_window):
    """*value* (a batch or an ack) is signed, timely (``Δclock +
    Tprop``), and its range — *metas* and its gaps — reaches the signed
    hash; raises AuthenticationError otherwise."""
    auth = value.auth
    verify_authenticator(verifier_identity, public_key, auth)
    if not isinstance(auth.timestamp, float) \
            or not abs(auth.timestamp - local_time) <= plausibility_window:
        raise AuthenticationError(
            f"{what} from {value.src!r} has an implausible timestamp "
            f"({auth.timestamp!r} vs local {local_time:g})"
        )
    if not reaches(value.h_start, value.start_index,
                   [*metas, *value.gaps], auth):
        raise AuthenticationError(
            f"{what} from {value.src!r} fails hash-chain verification"
        )
    return True


def build_batch(log, identity, dst, queued):
    """Assemble and sign a WireBatch from already-logged snd entries.

    *queued* is a list of (msg, LogEntry) in log order.
    """
    return WireBatch(
        identity.node_id, dst,
        [(msg, entry.index, entry.timestamp) for msg, entry in queued],
        *disclose(log, identity, [entry for _msg, entry in queued],
                  queued[-1][1].index),
    )


def verify_batch(batch, verifier_identity, sender_public_key, local_time,
                 plausibility_window):
    """Receiver-side validation of a WireBatch (Section 5.4): the
    authenticator's signature, the timestamp plausibility window, and
    the hash chain recomputed over the covered range — each message's
    snd entry and the disclosed gaps — up to the signed hash. Raises
    AuthenticationError on any failure.
    """
    for msg, _index, _t_entry in batch.msgs:
        if msg.src != batch.src:
            raise AuthenticationError(
                f"batch from {batch.src!r} contains a message claiming "
                f"src={msg.src!r}"
            )
    metas = [(index, t_entry, SND, content_digest(snd_entry_content(msg)))
             for msg, index, t_entry in batch.msgs]
    return _check_signed_range("batch", batch, verifier_identity,
                               sender_public_key, metas, local_time,
                               plausibility_window)


def build_ack(log, identity, batch, rcv_entries):
    """Assemble and sign a WireAck for *batch*, committing everything up
    to the head.

    *rcv_entries* is the list of (msg, LogEntry) for the rcv entries this
    node appended while processing the batch, in log order.
    """
    return WireAck(
        identity.node_id, batch.src, batch.auth,
        [(msg.msg_id(), entry.index, entry.timestamp)
         for msg, entry in rcv_entries],
        *disclose(log, identity, [entry for _msg, entry in rcv_entries],
                  len(log)),
        [msg for msg, _entry in rcv_entries],
    )


def verify_ack(wire_ack, verifier_identity, acker_public_key, batch,
               local_time, plausibility_window):
    """Sender-side validation of a WireAck: the receiver's rcv entries
    are rebuilt from what the sender *sent* — its own messages in *batch*
    and its batch authenticator, never a message the receiver supplies —
    and chained with the disclosed gaps up to the signed head. An ack
    naming any other message is refused, since the ack entry is what the
    sender's replay says was acknowledged. This is what makes an ack a
    non-repudiable commitment that the receiver logged what it was sent.
    """
    sent = {msg.msg_id(): msg for msg, _index, _t_entry in batch.msgs}
    named = [sent.get(msg_id) for msg_id, _index, _t in wire_ack.rcv_metas]
    if None in named or [m.canonical() for m in wire_ack.msgs] \
            != [m.canonical() for m in named]:
        raise AuthenticationError(
            f"ack from {wire_ack.src!r} names a message its batch did not "
            "carry"
        )
    metas = []
    for msg, (_msg_id, index, t_entry) in zip(named, wire_ack.rcv_metas):
        content = rcv_entry_content(msg, batch)
        metas.append((index, t_entry, RCV, content_digest(content)))
    return _check_signed_range("ack", wire_ack, verifier_identity,
                               acker_public_key, metas, local_time,
                               plausibility_window)
