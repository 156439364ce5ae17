"""Simulator, tamper-evident log, authenticators, commitment wire formats."""

import pytest

from repro.crypto.hashing import chain_hash, content_digest
from repro.crypto.keys import CertificateAuthority, NodeIdentity
from repro.model import Msg, Tup, PLUS
from repro.net.simulator import DELTA_CLOCK, MIN_DELAY, T_PROP, Simulator
from repro.snp.commitment import (
    WireBatch, build_ack, build_batch, rcv_entry_content, snd_entry_content,
    verify_ack, verify_batch,
)
from repro.snp.evidence import (
    Authenticator, sign_authenticator, verify_authenticator,
)
from repro.snp.log import (
    NodeLog, LogEntry, INS, SND, RCV, CHK, ENTRY_HEADER_BYTES,
    encode_contents,
)
from repro.snp.replay import verify_segment_hashes
from repro.snp.snoopy import RetrieveResponse
from repro.util.errors import AuthenticationError, LogVerificationError


class TestSimulator:
    def test_schedule_order(self):
        sim = Simulator(seed=0)
        order = []
        sim.schedule(0.2, lambda: order.append("b"))
        sim.schedule(0.1, lambda: order.append("a"))
        sim.run()
        assert order == ["a", "b"]

    def test_tie_break_is_fifo(self):
        sim = Simulator(seed=0)
        order = []
        sim.schedule(0.1, lambda: order.append(1))
        sim.schedule(0.1, lambda: order.append(2))
        sim.run()
        assert order == [1, 2]

    def test_determinism_across_runs(self):
        def run():
            sim = Simulator(seed=5)
            got = []
            for i in range(20):
                sim.schedule(sim.link_delay(), lambda i=i: got.append(i))
            sim.run()
            return got, sim.now
        assert run() == run()

    def test_run_until(self):
        sim = Simulator(seed=0)
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(3.0, lambda: fired.append(2))
        sim.run_until(2.0)
        assert fired == [1] and sim.now == 2.0

    def test_clock_skew_bounded(self):
        sim = Simulator(seed=3)
        for n in range(10):
            clock = sim.register_clock(f"n{n}")
            assert abs(clock.skew) <= DELTA_CLOCK / 2

    def test_link_delay_bounds(self):
        sim = Simulator(seed=3)
        for _ in range(100):
            d = sim.link_delay()
            assert MIN_DELAY <= d <= T_PROP

    def test_negative_schedule_rejected(self):
        sim = Simulator(seed=0)
        with pytest.raises(ValueError):
            sim.schedule(-1, lambda: None)


class TestNodeLog:
    def test_append_assigns_indices_and_hashes(self):
        log = NodeLog("n")
        e1 = log.append(1.0, INS, ("x",))
        e2 = log.append(2.0, INS, ("y",))
        assert (e1.index, e2.index) == (1, 2)
        assert e1.entry_hash != e2.entry_hash
        assert log.head_hash() == e2.entry_hash

    def test_hash_at(self):
        log = NodeLog("n")
        e1 = log.append(1.0, INS, ("x",))
        assert log.hash_at(0) == bytes(32)
        assert log.hash_at(1) == e1.entry_hash
        assert log.hash_at(2) is None

    def test_after_slices_a_suffix(self):
        log = NodeLog("n")
        for i in range(5):
            log.append(float(i), INS, (i,))
        entries, start, anchor = log.after(1)
        assert [e.index for e in entries] == [2, 3, 4, 5]
        assert (start, anchor) == (2, log.hash_at(1))
        assert log.after()[1:] == (1, bytes(32))

    def test_unknown_entry_type_rejected(self):
        log = NodeLog("n")
        with pytest.raises(ValueError):
            log.append(1.0, "bogus", ())

    def test_checkpoint_entry(self):
        log = NodeLog("n")
        snapshot = {"seq": {}, "appeared": {Tup("r", "n", 1): 0.5}}
        entry = log.append_checkpoint(1.0, snapshot)
        assert entry.entry_type == CHK
        assert log.last_checkpoint_before(2) is entry
        assert entry.aux == {"snapshot": snapshot}
        assert entry.content == ("checkpoint", content_digest(snapshot))

    def test_a_content_that_does_not_encode_matches_no_digest(self):
        # an authenticator has no canonical form: its entry encodes to
        # None — never to b"", a raw b"" content's digest input, nor to
        # None's own encoding — and the chain check calls it a mismatch
        log = NodeLog("n")
        log.append(1.0, INS, Tup("r", "n", 1))
        auth = Authenticator("n", 1, 1.0, bytes(32), b"sig")
        for lie in (content_digest(b""), content_digest(None)):
            entry = LogEntry(2, 2.0, INS, (Tup("r", "n", 2), auth), lie,
                             chain_hash(log.head_hash(), 2.0, INS, lie))
            response = RetrieveResponse("n", [*log.entries, entry], 1,
                                        log.start_hash, None)
            encoded = encode_contents(response.entries)
            assert encoded[1] is None
            with pytest.raises(LogVerificationError,
                               match="entry 2 content does not match its "
                                     "digest"):
                verify_segment_hashes(response, encoded)

    def test_last_checkpoint_before_none(self):
        log = NodeLog("n")
        log.append(1.0, INS, ("x",))
        assert log.last_checkpoint_before(1) is None


class TestLogTruncation:
    """Checkpoint GC at the log layer: trim keeps the tombstone anchor so
    indexes, suffixes and chain hashes at or above the floor behave
    exactly as before truncation."""

    def _log_with_checkpoint_at(self, chk_index, total=8):
        log = NodeLog("n")
        for i in range(1, chk_index):
            log.append(float(i), INS, (i,))
        log.append_checkpoint(float(chk_index), {"seq": {}})
        for i in range(chk_index + 1, total + 1):
            log.append(float(i), INS, (i,))
        return log

    def test_truncate_reclaims_bytes_and_keeps_logical_indexes(self):
        log = self._log_with_checkpoint_at(4)
        before = log.size_bytes()
        pre_head = log.head_hash()
        reclaimed = log.trim(4)
        assert reclaimed > 0
        assert log.size_bytes() == before - reclaimed
        assert log.start_index == 4               # 3 entries discarded
        assert len(log) == 8                      # head index is logical
        assert log.entry(4).entry_type == CHK
        assert log.entry(8).index == 8
        assert log.head_hash() == pre_head

    def test_tombstone_anchor_survives(self):
        log = self._log_with_checkpoint_at(4)
        anchor = log.hash_at(3)
        seg_hashes = [e.entry_hash for e in log.after(3)[0]]
        log.trim(4)
        assert log.start_hash == log.hash_at(3) == anchor
        assert [e.entry_hash for e in log.after(3)[0]] == seg_hashes
        assert log.hash_at(2) is None
        with pytest.raises(IndexError):
            log.entry(3)
        # a suffix below the anchor cannot anchor: it gets everything
        assert log.after(1) == log.after(3)

    def test_append_continues_past_truncation(self):
        log = self._log_with_checkpoint_at(4)
        log.trim(4)
        entry = log.append(9.0, INS, ("post",))
        assert entry.index == 9
        assert log.entry(9) is entry
        # The chain keeps folding from the same head it had before.
        from repro.crypto.hashing import chain_hash
        assert entry.entry_hash == chain_hash(
            log.entry(8).entry_hash, 9.0, INS, entry.content_hash
        )

    def test_trim_off_a_checkpoint_changes_nothing(self):
        # A floor on no replay-seeding checkpoint, or past the head, is
        # one the holder cannot prove replaceable: nothing is discarded.
        log = self._log_with_checkpoint_at(4)
        shape = (log.start_index, log.start_hash, list(log.entries))
        assert log.trim(5) == 0
        assert log.trim(99) == 0
        assert (log.start_index, log.start_hash, log.entries) == shape

    def test_truncate_at_or_below_base_is_a_noop(self):
        log = self._log_with_checkpoint_at(4)
        assert log.trim(1) == 0
        log.trim(4)
        assert log.trim(4) == 0
        assert log.trim(2) == 0

    def test_trim_drops_a_content_that_does_not_encode_at_its_header(self):
        # A stored copy of a hostile log may hold a content with no
        # canonical encoding: trim drops it like any other entry and
        # charges it its header, as a querier charges it on receipt.
        log = self._log_with_checkpoint_at(4)
        honest = [e.size_bytes() for e in log.entries[:3]]
        anchor = log.hash_at(3)
        entry = log.entries[1]
        entry.content = (entry.content,
                         Authenticator("n", 1, 1.0, bytes(32), b"sig"))
        assert entry.size_bytes() == ENTRY_HEADER_BYTES
        assert log.trim(4) == honest[0] + ENTRY_HEADER_BYTES + honest[2]
        assert (log.start_index, log.start_hash) == (4, anchor)

    def test_last_checkpoint_before_respects_truncation(self):
        log = self._log_with_checkpoint_at(4)
        log.trim(4)
        assert log.last_checkpoint_before(8).index == 4
        assert log.last_checkpoint_before(3) is None


class TestAuthenticators:
    def _identity(self, name="n1"):
        ca = CertificateAuthority(key_bits=256, seed=1)
        return NodeIdentity(name, ca, key_bits=256)

    def test_sign_and_verify(self):
        ident = self._identity()
        auth = sign_authenticator(ident, 3, 1.0, "ab" * 32)
        assert verify_authenticator(ident, ident.keypair.public_only(), auth)

    def test_forged_authenticator_rejected(self):
        ident = self._identity()
        auth = sign_authenticator(ident, 3, 1.0, "ab" * 32)
        auth.index = 4
        with pytest.raises(AuthenticationError):
            verify_authenticator(ident, ident.keypair.public_only(), auth)


def _other_tuple(msg):
    return Msg(msg.polarity, Tup("r", "b", 999), msg.src, msg.dst, msg.seq,
               msg.t_sent)


def _tamper_message(wire, _signer, _log):
    if isinstance(wire, WireBatch):
        msg, index, t_entry = wire.msgs[0]
        wire.msgs[0] = (_other_tuple(msg), index, t_entry)
    else:
        wire.msgs[0] = _other_tuple(wire.msgs[0])


def _implausible_timestamp(wire, signer, _log):
    auth = wire.auth
    wire.auth = sign_authenticator(signer, auth.index, auth.timestamp + 500,
                                   auth.entry_hash)


def _omit_entry(wire, _signer, _log):
    wire.gaps = []


def _overlap_gap(wire, _signer, log):
    # the shown entry's own, genuine metadata, disclosed a second time
    wire.gaps = wire.gaps + [log.entry(wire.start_index).meta()]


def _misdated_auth(wire, signer, _log):
    # inside the plausibility window, but not the signed entry's time
    auth = wire.auth
    wire.auth = sign_authenticator(signer, auth.index, auth.timestamp + 0.001,
                                   auth.entry_hash)


def _unsigned_range(wire, _signer, _log):
    # a range that starts past the signed entry, on its hash: nothing
    # disclosed would be chained
    wire.start_index = wire.auth.index + 1
    wire.h_start = wire.auth.entry_hash


def _wrong_head(wire, signer, _log):
    auth = wire.auth
    wire.auth = sign_authenticator(signer, auth.index, auth.timestamp,
                                   "ab" * 32)


class TestWireBatch:
    """Both directions of the commitment protocol: a batch from ``a`` to
    ``b`` (a gap between its two snd entries) and ``b``'s ack of it (an
    output ``b`` logged between its two rcv entries), each checked by
    the one range check (``commitment.reaches``) behind the signature
    and plausibility checks."""

    def _exchange(self):
        ca = CertificateAuthority(key_bits=256, seed=1)
        a = NodeIdentity("a", ca, key_bits=256)
        b = NodeIdentity("b", ca, key_bits=256)
        send_log, recv_log = NodeLog("a"), NodeLog("b")
        batch = build_batch(send_log, a, "b",
                            self._queue(send_log, a, with_gap=True))
        rcv_entries = []
        for msg, _index, t_entry in batch.msgs:
            if rcv_entries:
                recv_log.append(t_entry + 0.5, SND, ("output",))
            entry = recv_log.append(t_entry + 1.0, RCV,
                                    rcv_entry_content(msg, batch))
            rcv_entries.append((msg, entry))
        ack = build_ack(recv_log, b, batch, rcv_entries)
        return (a, send_log, batch), (b, recv_log, ack)

    def _verify(self, side):
        """``(signer, signer's log, wire, verify)`` for one side."""
        (a, send_log, batch), (b, recv_log, ack) = self._exchange()
        if side == "batch":
            return a, send_log, batch, lambda: verify_batch(
                batch, b, a.keypair.public_only(), 2.0, 10.0)
        return b, recv_log, ack, lambda: verify_ack(
            ack, a, b.keypair.public_only(), batch, 2.0, 10.0)

    def _setup(self):
        ca = CertificateAuthority(key_bits=256, seed=1)
        ident = NodeIdentity("a", ca, key_bits=256)
        verifier = NodeIdentity("b", ca, key_bits=256)
        log = NodeLog("a")
        return ident, verifier, log

    def _queue(self, log, ident, n=2, with_gap=False):
        queued = []
        for i in range(n):
            if with_gap and i == 1:
                log.append(1.0 + i, INS, ("gap", i))
            msg = Msg(PLUS, Tup("r", "b", i), "a", "b", i, 1.0 + i)
            entry = log.append(1.0 + i, SND, snd_entry_content(msg))
            queued.append((msg, entry))
        return queued

    @pytest.mark.parametrize("side", ["batch", "ack"])
    def test_roundtrip_verification(self, side):
        _signer, _log, wire, verify = self._verify(side)
        assert len(wire.gaps) == 1
        assert verify()

    def test_gap_entries_verified_by_digest(self):
        ident, verifier, log = self._setup()
        queued = self._queue(log, ident, with_gap=True)
        batch = build_batch(log, ident, "b", queued)
        assert len(batch.gaps) == 1
        assert verify_batch(batch, verifier, ident.keypair.public_only(),
                            2.0, 10.0)

    @pytest.mark.parametrize("lie", [
        _tamper_message, _implausible_timestamp, _misdated_auth,
        _omit_entry, _overlap_gap, _unsigned_range, _wrong_head,
    ], ids=["tampered-message", "implausible-timestamp", "misdated-auth",
            "omitted-entry", "gap-overlap", "unsigned-range", "wrong-head"])
    @pytest.mark.parametrize("side", ["batch", "ack"])
    def test_a_range_that_misses_the_signed_hash_is_rejected(self, side,
                                                             lie):
        signer, log, wire, verify = self._verify(side)
        lie(wire, signer, log)
        with pytest.raises(AuthenticationError):
            verify()

    def test_ack_of_a_message_never_sent_is_rejected(self):
        _b, _log, ack, verify = self._verify("ack")
        msg_id, index, t_entry = ack.rcv_metas[0]
        ack.rcv_metas[0] = (("a", "b", 999), index, t_entry)
        with pytest.raises(AuthenticationError, match="did not carry"):
            verify()

    def test_ack_of_a_misreceived_message_is_rejected(self):
        # b logs and acks another tuple than the one a signed, under a's
        # authenticator: self-consistent, unless a rebuilds the rcv entry
        # from its own message
        (a, _send_log, batch), (b, _recv_log, _ack) = self._exchange()
        msg, _index, t_entry = batch.msgs[0]
        lie = _other_tuple(msg)
        recv_log = NodeLog("b")
        entry = recv_log.append(t_entry + 1.0, RCV,
                                rcv_entry_content(lie, batch))
        ack = build_ack(recv_log, b, batch, [(lie, entry)])
        with pytest.raises(AuthenticationError):
            verify_ack(ack, a, b.keypair.public_only(), batch, 2.0, 10.0)

    def test_spoofed_src_rejected(self):
        ident, verifier, log = self._setup()
        spoofed = Msg(PLUS, Tup("r", "b", 0), "mallory", "b", 0, 1.0)
        entry = log.append(1.0, SND, snd_entry_content(spoofed))
        batch = build_batch(log, ident, "b", [(spoofed, entry)])
        with pytest.raises(AuthenticationError):
            verify_batch(batch, verifier, ident.keypair.public_only(),
                         2.0, 10.0)
