"""Simulator, tamper-evident log, authenticators, commitment wire formats."""

import pytest

from repro.crypto.keys import CertificateAuthority, NodeIdentity
from repro.model import Msg, Tup, PLUS
from repro.net.simulator import Simulator
from repro.snp.commitment import (
    build_batch, verify_batch, snd_entry_content,
)
from repro.snp.evidence import sign_authenticator, verify_authenticator
from repro.snp.log import NodeLog, INS, SND, CHK
from repro.util.errors import AuthenticationError


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
        sim = Simulator(seed=3, delta_clock=0.02)
        for n in range(10):
            clock = sim.register_clock(f"n{n}")
            assert abs(clock.skew) <= 0.01

    def test_link_delay_bounds(self):
        sim = Simulator(seed=3, t_prop=0.05, min_delay=0.005)
        for _ in range(100):
            d = sim.link_delay()
            assert 0.005 <= d <= 0.05

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

    def test_hash_before(self):
        log = NodeLog("n")
        e1 = log.append(1.0, INS, ("x",))
        assert log.hash_before(1) == "0" * 64
        assert log.hash_before(2) == e1.entry_hash

    def test_segment_slicing(self):
        log = NodeLog("n")
        for i in range(5):
            log.append(float(i), INS, (i,))
        seg = log.segment(2, 4)
        assert [e.index for e in seg] == [2, 3, 4]

    def test_unknown_entry_type_rejected(self):
        log = NodeLog("n")
        with pytest.raises(ValueError):
            log.append(1.0, "bogus", ())

    def test_checkpoint_entry(self):
        log = NodeLog("n")
        tup = Tup("r", "n", 1)
        entry = log.append_checkpoint(
            1.0, {"seq": {}}, [(tup, 0.5)], []
        )
        assert entry.entry_type == CHK
        assert log.last_checkpoint_before(2) is entry
        assert entry.aux["extant"] == [(tup, 0.5)]

    def test_last_checkpoint_before_none(self):
        log = NodeLog("n")
        log.append(1.0, INS, ("x",))
        assert log.last_checkpoint_before(1) is None


class TestLogTruncation:
    """Checkpoint GC at the log layer: truncate_below keeps the tombstone
    anchor so indexes, segments and chain hashes at or above the floor
    behave exactly as before truncation."""

    def _log_with_checkpoint_at(self, chk_index, total=8):
        log = NodeLog("n")
        for i in range(1, chk_index):
            log.append(float(i), INS, (i,))
        log.append_checkpoint(float(chk_index), {"seq": {}}, [], [])
        for i in range(chk_index + 1, total + 1):
            log.append(float(i), INS, (i,))
        return log

    def test_truncate_reclaims_bytes_and_keeps_logical_indexes(self):
        log = self._log_with_checkpoint_at(4)
        before = log.size_bytes()
        pre_head = log.head_hash()
        reclaimed = log.truncate_below(4)
        assert reclaimed > 0
        assert log.size_bytes() == before - reclaimed
        assert log.first_index == 4
        assert len(log) == 8                      # head index is logical
        assert log.entry(4).entry_type == CHK
        assert log.entry(8).index == 8
        assert log.head_hash() == pre_head
        assert log.discarded_entries == 3

    def test_tombstone_anchor_survives(self):
        log = self._log_with_checkpoint_at(4)
        anchor = log.hash_before(4)
        seg_hashes = [e.entry_hash for e in log.segment(4, 8)]
        log.truncate_below(4)
        assert log.hash_before(4) == anchor
        assert [e.entry_hash for e in log.segment(4, 8)] == seg_hashes
        with pytest.raises(IndexError):
            log.hash_before(3)
        with pytest.raises(IndexError):
            log.entry(3)
        with pytest.raises(IndexError):
            log.segment(2, 8)

    def test_append_continues_past_truncation(self):
        log = self._log_with_checkpoint_at(4)
        log.truncate_below(4)
        entry = log.append(9.0, INS, ("post",))
        assert entry.index == 9
        assert log.entry(9) is entry
        # The chain keeps folding from the same head it had before.
        from repro.crypto.hashing import chain_hash
        assert entry.entry_hash == chain_hash(
            log.entry(8).entry_hash, 9.0, INS, entry.content_hash
        )

    def test_truncate_below_non_checkpoint_rejected(self):
        log = self._log_with_checkpoint_at(4)
        with pytest.raises(ValueError, match="checkpoint"):
            log.truncate_below(5)
        with pytest.raises(ValueError, match="head"):
            log.truncate_below(99)

    def test_truncate_at_or_below_base_is_a_noop(self):
        log = self._log_with_checkpoint_at(4)
        assert log.truncate_below(1) == 0
        log.truncate_below(4)
        assert log.truncate_below(4) == 0
        assert log.truncate_below(2) == 0

    def test_last_checkpoint_before_respects_truncation(self):
        log = self._log_with_checkpoint_at(4)
        log.truncate_below(4)
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


class TestWireBatch:
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
            entry = log.append(1.0 + i, SND, snd_entry_content(msg),
                               aux={"msg": msg})
            queued.append((msg, entry))
        return queued

    def test_roundtrip_verification(self):
        ident, verifier, log = self._setup()
        queued = self._queue(log, ident)
        batch = build_batch(log, ident, "b", queued)
        assert verify_batch(batch, verifier,
                            ident.keypair.public_only(),
                            local_time=2.0, plausibility_window=10.0)

    def test_gap_entries_verified_by_digest(self):
        ident, verifier, log = self._setup()
        queued = self._queue(log, ident, with_gap=True)
        batch = build_batch(log, ident, "b", queued)
        assert len(batch.gaps) == 1
        assert verify_batch(batch, verifier, ident.keypair.public_only(),
                            2.0, 10.0)

    def test_tampered_message_rejected(self):
        ident, verifier, log = self._setup()
        queued = self._queue(log, ident)
        batch = build_batch(log, ident, "b", queued)
        msg, index, t = batch.msgs[0]
        batch.msgs[0] = (Msg(PLUS, Tup("r", "b", 999), "a", "b", 0, 1.0),
                         index, t)
        with pytest.raises(AuthenticationError):
            verify_batch(batch, verifier, ident.keypair.public_only(),
                         2.0, 10.0)

    def test_implausible_timestamp_rejected(self):
        ident, verifier, log = self._setup()
        queued = self._queue(log, ident)
        batch = build_batch(log, ident, "b", queued)
        with pytest.raises(AuthenticationError):
            verify_batch(batch, verifier, ident.keypair.public_only(),
                         local_time=500.0, plausibility_window=1.0)

    def test_spoofed_src_rejected(self):
        ident, verifier, log = self._setup()
        spoofed = Msg(PLUS, Tup("r", "b", 0), "mallory", "b", 0, 1.0)
        entry = log.append(1.0, SND, snd_entry_content(spoofed),
                           aux={"msg": spoofed})
        batch = build_batch(log, ident, "b", [(spoofed, entry)])
        with pytest.raises(AuthenticationError):
            verify_batch(batch, verifier, ident.keypair.public_only(),
                         2.0, 10.0)

    def test_omitted_entry_rejected(self):
        ident, verifier, log = self._setup()
        queued = self._queue(log, ident, with_gap=True)
        batch = build_batch(log, ident, "b", queued)
        batch.gaps = []  # hide the interleaved entry
        with pytest.raises(AuthenticationError):
            verify_batch(batch, verifier, ident.keypair.public_only(),
                         2.0, 10.0)
