"""The commitment protocol: signed message batches and acknowledgments.

Per-message protocol (paper Section 5.4): to send m, node i appends a snd
entry, then transmits ``(m, h_{x-1}, t_x, σ_i(t_x || h_x))``; the receiver j
recomputes ``h_x``, checks the signature and the timestamp plausibility
window (``Δclock + Tprop``), logs a rcv entry, and returns a signed
acknowledgment that commits j to that rcv entry. i verifies the ack by
recomputing j's rcv-entry hash (it knows the entry's content) and logs an
ack entry.

Batching (Section 5.6): with ``Tbatch > 0``, messages to the same
destination are logged immediately (so the log's input/output ordering
invariant holds) but transmitted together under a *single* signature
covering the last entry of the window. Entries interleaved between the
batched snd entries are disclosed only as ``(index, t, type, H(content))``
metadata, which is enough to verify hash-chain continuity without revealing
their content. Acknowledgments batch symmetrically.
"""

from repro.crypto.hashing import chain_hash, content_digest
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


def build_batch(log, identity, dst, queued):
    """Assemble and sign a WireBatch from already-logged snd entries.

    *queued* is a list of (msg, LogEntry) in log order.
    """
    first_index = queued[0][1].index
    last_index = queued[-1][1].index
    covered = {entry.index for _msg, entry in queued}
    gaps = []
    for index in range(first_index, last_index + 1):
        if index not in covered:
            gaps.append(log.entry(index).meta())
    last_entry = queued[-1][1]
    auth = sign_authenticator(
        identity, last_entry.index, last_entry.timestamp,
        last_entry.entry_hash,
    )
    return WireBatch(
        src=identity.node_id,
        dst=dst,
        msgs=[(msg, entry.index, entry.timestamp) for msg, entry in queued],
        gaps=gaps,
        start_index=first_index,
        h_start=log.hash_before(first_index),
        auth=auth,
    )


def verify_batch(batch, verifier_identity, sender_public_key, local_time,
                 plausibility_window):
    """Receiver-side validation of a WireBatch (Section 5.4).

    Checks (1) the recomputed hash chain over the covered range matches the
    authenticator, (2) the authenticator's signature, and (3) the timestamp
    plausibility window ``Δclock + Tprop``. Raises AuthenticationError on
    any failure.
    """
    verify_authenticator(verifier_identity, sender_public_key, batch.auth)
    if abs(batch.auth.timestamp - local_time) > plausibility_window:
        raise AuthenticationError(
            f"batch from {batch.src!r} has an implausible timestamp "
            f"({batch.auth.timestamp:g} vs local {local_time:g})"
        )
    # Recompute h over [start_index .. auth.index].
    pieces = {}
    for msg, index, t_entry in batch.msgs:
        if msg.src != batch.src:
            raise AuthenticationError(
                f"batch from {batch.src!r} contains a message claiming "
                f"src={msg.src!r}"
            )
        pieces[index] = (t_entry, SND, content_digest(snd_entry_content(msg)))
    for index, t_entry, entry_type, c_hash in batch.gaps:
        if index in pieces:
            raise AuthenticationError("batch gap overlaps a message entry")
        pieces[index] = (t_entry, entry_type, c_hash)
    current = batch.h_start
    for index in range(batch.start_index, batch.auth.index + 1):
        if index not in pieces:
            raise AuthenticationError(
                f"batch from {batch.src!r} omits entry {index}"
            )
        t_entry, entry_type, c_hash = pieces[index]
        current = chain_hash(current, t_entry, entry_type, c_hash)
    if current != batch.auth.entry_hash:
        raise AuthenticationError(
            f"batch from {batch.src!r} fails hash-chain verification"
        )
    return True


def build_ack(log, identity, batch, rcv_entries):
    """Assemble and sign a WireAck for *batch*.

    *rcv_entries* is the list of (msg, LogEntry) for the rcv entries this
    node appended while processing the batch, in log order.
    """
    first_index = rcv_entries[0][1].index
    last_index = len(log)  # commit everything up to the head
    covered = {entry.index for _msg, entry in rcv_entries}
    gaps = []
    for index in range(first_index, last_index + 1):
        if index not in covered:
            gaps.append(log.entry(index).meta())
    head_entry = log.entry(last_index)
    auth = sign_authenticator(
        identity, head_entry.index, head_entry.timestamp,
        head_entry.entry_hash,
    )
    return WireAck(
        src=identity.node_id,
        dst=batch.src,
        batch_auth=batch.auth,
        rcv_metas=[
            (msg.msg_id(), entry.index, entry.timestamp)
            for msg, entry in rcv_entries
        ],
        gaps=gaps,
        start_index=first_index,
        h_start=log.hash_before(first_index),
        auth=auth,
        msgs=[msg for msg, _entry in rcv_entries],
    )


def verify_ack(wire_ack, verifier_identity, acker_public_key, batch,
               local_time, plausibility_window):
    """Sender-side validation of a WireAck.

    The sender recomputes the receiver's rcv-entry hashes — it knows their
    committed content exactly (the message plus the batch authenticator it
    itself produced) — chains them with the disclosed gap metadata, and
    checks the signed head. This is the step that makes a receiver's
    acknowledgment a non-repudiable commitment that it logged the message.
    """
    verify_authenticator(verifier_identity, acker_public_key, wire_ack.auth)
    if abs(wire_ack.auth.timestamp - local_time) > plausibility_window:
        raise AuthenticationError(
            f"ack from {wire_ack.src!r} has an implausible timestamp"
        )
    by_id = {msg.msg_id(): msg for msg in wire_ack.msgs}
    pieces = {}
    for msg_id, index, t_entry in wire_ack.rcv_metas:
        msg = by_id.get(msg_id)
        if msg is None:
            raise AuthenticationError("ack covers an unknown message")
        content = rcv_entry_content(msg, batch)
        pieces[index] = (t_entry, RCV, content_digest(content))
    for index, t_entry, entry_type, c_hash in wire_ack.gaps:
        if index in pieces:
            raise AuthenticationError("ack gap overlaps a rcv entry")
        pieces[index] = (t_entry, entry_type, c_hash)
    current = wire_ack.h_start
    for index in range(wire_ack.start_index, wire_ack.auth.index + 1):
        if index not in pieces:
            raise AuthenticationError(
                f"ack from {wire_ack.src!r} omits entry {index}"
            )
        t_entry, entry_type, c_hash = pieces[index]
        current = chain_hash(current, t_entry, entry_type, c_hash)
    if current != wire_ack.auth.entry_hash:
        raise AuthenticationError(
            f"ack from {wire_ack.src!r} fails hash-chain verification"
        )
    return True
