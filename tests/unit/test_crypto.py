"""Crypto substrate: RSA, certificates, hash chains."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.mincost import build_paper_network
from repro.crypto.hashing import GENESIS_HASH, chain_hash, content_digest
from repro.crypto.keys import CertificateAuthority, NodeIdentity
from repro.crypto.rsa import RsaKeyPair, _expand_digest, generate_keypair
from repro.service import ServicePusher
from repro.snp import Deployment
from repro.snp.log import NodeLog
from repro.util.errors import AuthenticationError


class TestRsa:
    def test_sign_verify_roundtrip(self):
        key = generate_keypair(bits=256, seed=1)
        sig = key.sign(b"hello")
        assert key.verify(b"hello", sig)

    def test_tampered_message_rejected(self):
        key = generate_keypair(bits=256, seed=1)
        sig = key.sign(b"hello")
        assert not key.verify(b"hellp", sig)

    def test_tampered_signature_rejected(self):
        key = generate_keypair(bits=256, seed=1)
        sig = bytearray(key.sign(b"hello"))
        sig[0] ^= 0xFF
        assert not key.verify(b"hello", bytes(sig))

    def test_wrong_key_rejected(self):
        a = generate_keypair(bits=256, seed=1)
        b = generate_keypair(bits=256, seed=2)
        assert not b.verify(b"hello", a.sign(b"hello"))

    def test_deterministic_keygen(self):
        a = generate_keypair(bits=256, seed=7)
        b = generate_keypair(bits=256, seed=7)
        assert (a.n, a.e) == (b.n, b.e)

    def test_different_seeds_different_keys(self):
        a = generate_keypair(bits=256, seed=7)
        b = generate_keypair(bits=256, seed=8)
        assert a.n != b.n

    def test_public_only_cannot_sign(self):
        key = generate_keypair(bits=256, seed=1).public_only()
        with pytest.raises(AuthenticationError):
            key.sign(b"x")

    def test_public_only_can_verify(self):
        key = generate_keypair(bits=256, seed=1)
        sig = key.sign(b"payload")
        assert key.public_only().verify(b"payload", sig)

    def test_modulus_size(self):
        key = generate_keypair(bits=512, seed=3)
        assert key.bits == 512

    def test_fingerprint_stable(self):
        key = generate_keypair(bits=256, seed=4)
        assert key.fingerprint() == key.public_only().fingerprint()

    def test_too_small_modulus_rejected(self):
        with pytest.raises(ValueError):
            generate_keypair(bits=64)

    def test_wrong_length_signature_rejected(self):
        key = generate_keypair(bits=256, seed=1)
        assert not key.verify(b"hello", b"\x00" * 7)


def textbook_sign(key, message):
    """``H(m)^d mod n`` with the full private exponent rebuilt from the
    key's primes — the definition CRT signing must reproduce byte for
    byte. The reference lives here on purpose: ``src/`` has one signing
    path and no ``d``."""
    p, q = key._private[:2]
    d = pow(key.e, -1, (p - 1) * (q - 1))
    size = (key.n.bit_length() + 7) // 8
    digest = hashlib.sha256(message).digest()
    stream = b"".join(
        hashlib.sha256(digest + counter.to_bytes(4, "big")).digest()
        for counter in range(-(-size // 32))
    )
    padded = int.from_bytes(b"\x00" + stream[1:size], "big")
    return pow(padded, d, key.n).to_bytes(size, "big")


#: The paper's 1024 bits (§7.6), the benchmarks' 256, and the default.
SEEDED_KEYS = {bits: generate_keypair(bits=bits, seed=7)
               for bits in (256, 512, 1024)}


def ints_in(value):
    """Every integer reachable through the containers of *value*."""
    if isinstance(value, int):
        yield value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from ints_in(key)
            yield from ints_in(item)
    elif isinstance(value, (tuple, list, set, frozenset)):
        for item in value:
            yield from ints_in(item)


class TestCrtSigning:
    @pytest.mark.parametrize("bits", sorted(SEEDED_KEYS))
    @settings(max_examples=25, deadline=None)
    @given(message=st.binary(max_size=300))
    def test_sign_is_the_textbook_signature(self, bits, message):
        key = SEEDED_KEYS[bits]
        signature = key.sign(message)
        assert signature == textbook_sign(key, message)
        assert key.verify(message, signature)

    def test_the_key_stream_is_pinned(self):
        """Logs, authenticators and fetch bytes are functions of the keys
        a seed yields: a change to how the rng is consumed shows here
        first, not as six hundred moved hashes."""
        assert SEEDED_KEYS[256].n == int(
            "8deac66832b54d36663d7c029b2552cc"
            "62a5706415cee74ebd0f8dc16d4ddf3f", 16)
        assert SEEDED_KEYS[256].e == 65537

    @pytest.mark.parametrize("modulus_bytes", [32, 33, 64, 128],
                             ids=["256-bit", "33-byte", "512-bit", "1024-bit"])
    @settings(max_examples=25, deadline=None)
    @given(message=st.binary(max_size=300))
    def test_expand_digest_matches_the_block_loop(self, modulus_bytes,
                                                 message):
        """The padding is built in one join of ceil(size / 32) blocks; the
        loop it replaced, which re-summed the blocks before each one, is
        the oracle."""
        digest = hashlib.sha256(message).digest()
        blocks = []
        counter = 0
        while sum(len(b) for b in blocks) < modulus_bytes:
            blocks.append(hashlib.sha256(
                digest + counter.to_bytes(4, "big")).digest())
            counter += 1
        oracle = b"\x00" + b"".join(blocks)[:modulus_bytes][1:]
        padded = _expand_digest(message, modulus_bytes)
        assert padded == oracle and len(padded) == modulus_bytes

    def test_one_seed_one_key_field_for_field(self):
        again = generate_keypair(bits=256, seed=7)
        assert vars(again) == vars(SEEDED_KEYS[256])
        assert again._private is not None

    @pytest.mark.parametrize("damage", [
        lambda p, q, dp, dq, qinv: (q, p, dp, dq, qinv),     # swapped primes
        lambda p, q, dp, dq, qinv: (p, q + 2, dp, dq, qinv),  # p*q != n
        lambda p, q, dp, dq, qinv: (p, q, dp + 1, dq, qinv),  # wrong dp
        lambda p, q, dp, dq, qinv: (p, q, dp, dq + 1, qinv),  # wrong dq
        lambda p, q, dp, dq, qinv: (p, q, dp, dq, qinv + 1),  # wrong qinv
        lambda p, q, dp, dq, qinv: (1, p * q, 0, dq, 0),      # no primes
    ])
    def test_a_private_half_of_another_key_is_refused(self, damage):
        key = SEEDED_KEYS[256]
        assert RsaKeyPair(key.n, key.e, key._private).sign(b"m") \
            == key.sign(b"m")
        with pytest.raises(ValueError):
            RsaKeyPair(key.n, key.e, damage(*key._private))

    def test_public_only_carries_no_private_material(self):
        key = SEEDED_KEYS[512]
        public = key.public_only()
        assert vars(public) == vars(RsaKeyPair(key.n, key.e))
        assert public._private is None
        assert not set(ints_in(list(vars(public).values()))) \
            & set(key._private)
        with pytest.raises(AuthenticationError):
            public.sign(b"x")
        assert public.verify(b"x", key.sign(b"x"))


class TestPublicKeysLeaveTheNodeBare:
    @pytest.fixture(scope="class")
    def dep(self):
        dep = Deployment(seed=3, key_bits=256)
        build_paper_network(dep)
        return dep

    @staticmethod
    def private_ints(dep):
        return {value for node in dep.nodes
                for value in dep.identity_of(node).keypair._private}

    def test_public_key_of_is_the_certificate_key(self, dep):
        public = dep.public_key_of("a")
        assert public is dep.public_key_of("a")
        assert public is dep.identity_of("a").certificate.public_key
        with pytest.raises(AuthenticationError):
            public.sign(b"x")
        identity = dep.identity_of("a")
        signature = identity.sign(("payload", 1))
        assert identity.verify(public, ("payload", 1), signature)

    def test_hello_ships_n_and_e_only(self, dep):
        hello = ServicePusher(dep, "127.0.0.1", 0).hello_message()
        for node in dep.nodes:
            key = dep.identity_of(node).keypair
            assert hello["nodes"][node]["key"] == (key.n, key.e)
        private = self.private_ints(dep)
        assert len(private) == 5 * len(dep.nodes)
        assert not set(ints_in(hello)) & private


class TestCertificates:
    def test_issue_and_verify(self):
        ca = CertificateAuthority(key_bits=256, seed=9)
        identity = NodeIdentity("n1", ca, key_bits=256)
        assert ca.verify(identity.certificate)

    def test_forged_certificate_rejected(self):
        ca = CertificateAuthority(key_bits=256, seed=9)
        identity = NodeIdentity("n1", ca, key_bits=256)
        identity.certificate.node_id = "mallory"
        with pytest.raises(AuthenticationError):
            ca.verify(identity.certificate)

    def test_identity_sign_verify_counted(self):
        ca = CertificateAuthority(key_bits=256, seed=9)
        identity = NodeIdentity("n1", ca, key_bits=256)
        sig = identity.sign(("payload", 1))
        assert identity.verify(identity.keypair.public_only(),
                               ("payload", 1), sig)
        assert identity.counter.signatures == 1
        assert identity.counter.verifications == 1


#: Prints node ``a``'s modulus in ``Deployment(seed=1)``.
_MODULUS_OF_A = (
    "from repro.apps.mincost import build_paper_network\n"
    "from repro.snp import Deployment\n"
    "dep = Deployment(seed=1, key_bits=256)\n"
    "build_paper_network(dep)\n"
    "print(dep.identity_of('a').keypair.n)\n")


class TestNodeKeys:
    """A node's key is a function of the deployment seed and its id."""

    def test_keys_do_not_depend_on_the_hash_seed(self):
        src = str(Path(__file__).parents[2] / "src")
        moduli = {
            subprocess.run(
                [sys.executable, "-c", _MODULUS_OF_A],
                env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hs),
                check=True, capture_output=True, text=True, timeout=60,
            ).stdout.strip()
            for hs in ("1", "2")
        }
        assert len(moduli) == 1
        (modulus,) = moduli
        one = Deployment(seed=1, key_bits=256)
        build_paper_network(one)
        assert int(modulus) == one.identity_of("a").keypair.n

    def test_deployment_seeds_give_different_keys(self):
        keys = []
        for seed in (1, 2):
            dep = Deployment(seed=seed, key_bits=256)
            build_paper_network(dep)
            keys.append({n: dep.identity_of(n).keypair.n for n in dep.nodes})
        assert len(set(keys[0].values())) == len(keys[0])
        assert not set(keys[0].values()) & set(keys[1].values())


class TestHashChain:
    """The chain as the log keeps it: one hash per entry, on the entry."""

    def test_genesis(self):
        log = NodeLog("n")
        assert log.head_hash() == GENESIS_HASH
        assert len(log) == 0

    def test_append_changes_head(self):
        log = NodeLog("n")
        h1 = log.append(1.0, "ins", ("x",)).entry_hash
        assert log.head_hash() == h1
        assert h1 == chain_hash(GENESIS_HASH, 1.0, "ins",
                                content_digest(("x",)))
        assert len(log) == 1

    def test_order_sensitivity(self):
        a, b = NodeLog("n"), NodeLog("n")
        a.append(1.0, "ins", ("x",))
        a.append(2.0, "ins", ("y",))
        b.append(1.0, "ins", ("y",))
        b.append(2.0, "ins", ("x",))
        assert a.head_hash() != b.head_hash()

    def test_hash_at_indexing(self):
        log = NodeLog("n")
        h1 = log.append(1.0, "ins", ("x",)).entry_hash
        h2 = log.append(2.0, "del", ("x",)).entry_hash
        assert log.hash_at(0) == GENESIS_HASH
        assert log.hash_at(1) == h1
        assert log.hash_at(2) == h2

    def test_type_field_is_committed(self):
        a, b = NodeLog("n"), NodeLog("n")
        a.append(1.0, "ins", ("x",))
        b.append(1.0, "del", ("x",))
        assert a.head_hash() != b.head_hash()

    def test_timestamp_is_committed(self):
        a, b = NodeLog("n"), NodeLog("n")
        a.append(1.0, "ins", ("x",))
        b.append(2.0, "ins", ("x",))
        assert a.head_hash() != b.head_hash()
