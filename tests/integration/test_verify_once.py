"""Verification does each piece of work once.

* A fetched entry's content is encoded once, on receipt: the fetch is
  charged by those bytes and the chain check hashes the same bytes; the
  arithmetic size walk (``canonical_size``) never sees it.
* Within a batch, one authenticator under one key costs one RSA
  operation, however many checks ask for it; every check still counts in
  ``signatures_verified``.
"""

import collections
import sys

from hypothesis import given, settings, strategies as st

from repro.crypto.hashing import GENESIS_HASH, content_digest
from repro.crypto.rsa import RsaKeyPair
from repro.snp import QueryProcessor
from repro.snp.log import ENTRY_HEADER_BYTES, INS, NodeLog, encode_contents
from repro.snp.microquery import MicroQuerier
from repro.snp.replay import verify_segment_hashes
from repro.snp.snoopy import RetrieveResponse
from repro.util import serialization
from repro.util.serialization import canonical_size

from scenarios import bgp_scenario, chord_scenario


class _Spy:
    """Wraps a module-level function under every ``repro.*`` name bound
    to it, recording each argument while ``on``."""

    def __init__(self, monkeypatch, original):
        self.on = False
        self.args = []

        def spy(value):
            if self.on:
                self.args.append(value)  # held: ids stay unique
            return original(value)

        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for attr, obj in list(vars(module).items()):
                if obj is original:
                    monkeypatch.setattr(module, attr, spy)


class _Fetches:
    """Records each charged fetch's response and its ``log_bytes``."""

    def __init__(self, monkeypatch):
        self.on = False
        self.seen = []
        charge = MicroQuerier._charge_fetch

        def recording(mq, response):
            before = mq.stats.log_bytes
            encoded = charge(mq, response)
            if self.on:
                self.seen.append((response, mq.stats.log_bytes - before))
            return encoded

        monkeypatch.setattr(MicroQuerier, "_charge_fetch", recording)


def _audit_encodes(monkeypatch, audit):
    """Run *audit* with the encoder, the sizer and the fetch charge
    watched; assert what one encode per fetched entry means."""
    encodes = _Spy(monkeypatch, serialization.canonical_bytes)
    sizes = _Spy(monkeypatch, serialization.canonical_size)
    fetches = _Fetches(monkeypatch)
    for watch in (encodes, sizes, fetches):
        watch.on = True
    try:
        audit()
    finally:
        for watch in (encodes, sizes, fetches):
            watch.on = False
    assert fetches.seen and any(r.entries for r, _ in fetches.seen)
    fetched = collections.Counter(
        id(entry.content) for response, _ in fetches.seen
        for entry in response.entries)
    encoded = collections.Counter(
        id(value) for value in encodes.args if id(value) in fetched)
    assert encoded == fetched
    assert not [value for value in sizes.args if id(value) in fetched]
    for response, charged in fetches.seen:
        assert charged == sum(e.size_bytes() for e in response.entries)


class TestOneEncodePerFetchedEntry:
    def test_cold_chord_audit(self, monkeypatch):
        _name, dep, query, _run_further = chord_scenario()
        qp = QueryProcessor(dep)
        _audit_encodes(monkeypatch, lambda: query(qp))

    def test_bgp_refresh(self, monkeypatch):
        _name, dep, query, run_further = bgp_scenario()
        qp = QueryProcessor(dep)
        query(qp)
        run_further()

        def refresh():
            qp.refresh()
            query(qp)

        _audit_encodes(monkeypatch, refresh)
        assert qp.mq.stats.delta_fetches


_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(max_size=8), st.sampled_from(["τ@n", "naïve", "日本"]),
    st.binary(max_size=8),
)
_contents = st.one_of(
    st.binary(max_size=40),  # a raw bytes content: hashed raw, not encoded
    st.recursive(_scalars,
                 lambda children: st.lists(children, max_size=4).map(tuple),
                 max_leaves=12),
)


class TestTheOneEncodeIsTheCommittedForm:
    @settings(max_examples=150, deadline=None)
    @given(_contents)
    def test_digest_and_size_from_the_encoding(self, content):
        entry = NodeLog("n").append(1.0, INS, content)
        response = RetrieveResponse("n", [entry], 1, GENESIS_HASH, None)
        encoded = encode_contents(response.entries)
        # The chain check recomputes the digest from the encoding and
        # compares it with the committed content_digest(content).
        assert entry.content_hash == content_digest(content)
        assert verify_segment_hashes(response, encoded) == [entry.entry_hash]
        assert len(encoded[0]) + ENTRY_HEADER_BYTES \
            == canonical_size(content) + 16 == entry.size_bytes()


class TestOneRsaOperationPerAuthenticatorPerBatch:
    def test_cold_chord_audit(self, monkeypatch):
        _name, dep, query, _run_further = chord_scenario()
        verify = RsaKeyPair.verify
        batches = []

        def counting(key, message, signature):
            batches[-1].append((message, bytes(signature), id(key)))
            return verify(key, message, signature)

        run_batch = MicroQuerier._run_batch

        def batch(mq, jobs):
            batches.append([])
            return run_batch(mq, jobs)

        monkeypatch.setattr(RsaKeyPair, "verify", counting)
        monkeypatch.setattr(MicroQuerier, "_run_batch", batch)
        qp = QueryProcessor(dep)
        query(qp)
        checks = qp.mq.stats.signatures_verified
        operations = sum(len(ops) for ops in batches)
        assert 0 < operations < checks
        for ops in batches:
            assert len(set(ops)) == len(ops)
