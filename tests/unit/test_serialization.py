"""Canonical serialization: determinism, distinctness, type coverage."""

import collections
import enum
import hashlib
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.hashing import GENESIS_HASH, chain_hash, content_digest
from repro.model import Msg, PLUS, Tup
from repro.snp.evidence import Authenticator
from repro.snp.log import NodeLog
from repro.util.serialization import canonical_bytes, canonical_size

from scenarios import run_chord


class TestScalars:
    def test_none(self):
        assert canonical_bytes(None) == b"N"

    def test_booleans_distinct_from_ints(self):
        assert canonical_bytes(True) != canonical_bytes(1)
        assert canonical_bytes(False) != canonical_bytes(0)

    def test_int_roundtrip_stability(self):
        assert canonical_bytes(12345) == canonical_bytes(12345)

    def test_large_int(self):
        big = 2 ** 4096 + 17
        assert canonical_bytes(big) == canonical_bytes(big)
        assert canonical_bytes(big) != canonical_bytes(big + 1)

    def test_negative_int(self):
        assert canonical_bytes(-5) != canonical_bytes(5)

    def test_float(self):
        assert canonical_bytes(1.5) == canonical_bytes(1.5)
        assert canonical_bytes(1.5) != canonical_bytes(1.25)

    def test_float_distinct_from_int(self):
        assert canonical_bytes(1.0) != canonical_bytes(1)

    def test_str_bytes_distinct(self):
        assert canonical_bytes("ab") != canonical_bytes(b"ab")

    def test_unicode(self):
        assert canonical_bytes("τ@n") == canonical_bytes("τ@n")


class TestContainers:
    def test_tuple_vs_list_distinct(self):
        assert canonical_bytes((1, 2)) != canonical_bytes([1, 2])

    def test_nesting_unambiguous(self):
        # ((1,2),3) must differ from (1,(2,3)) and from (1,2,3).
        a = canonical_bytes(((1, 2), 3))
        b = canonical_bytes((1, (2, 3)))
        c = canonical_bytes((1, 2, 3))
        assert len({a, b, c}) == 3

    def test_dict_key_order_irrelevant(self):
        assert canonical_bytes({"a": 1, "b": 2}) == \
            canonical_bytes({"b": 2, "a": 1})

    def test_dict_distinct_values(self):
        assert canonical_bytes({"a": 1}) != canonical_bytes({"a": 2})

    def test_frozenset_order_irrelevant(self):
        assert canonical_bytes(frozenset([1, 2, 3])) == \
            canonical_bytes(frozenset([3, 1, 2]))

    def test_empty_containers_distinct(self):
        values = [(), [], {}, frozenset()]
        encodings = {canonical_bytes(v) for v in values}
        assert len(encodings) == 4


class TestObjects:
    def test_tup_canonical_protocol(self):
        t = Tup("link", "a", "b", 3)
        assert canonical_bytes(t) == canonical_bytes(t.canonical())

    def test_tup_loc_matters(self):
        assert canonical_bytes(Tup("r", "a", 1)) != \
            canonical_bytes(Tup("r", "b", 1))

    def test_unencodable_raises(self):
        with pytest.raises(TypeError):
            canonical_bytes(object())

    def test_canonical_size_positive(self):
        assert canonical_size(("x", 1, 2.0)) > 0


# ------------------------------------------------------------ format freeze
#
# The isinstance-chain encoder this module shipped with until the
# type-dispatched one replaced it, kept verbatim as the oracle: the
# production encoder must agree with it byte for byte on every input it
# accepted, and reject every input it rejected.

_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"i"
_TAG_FLOAT = b"f"
_TAG_STR = b"s"
_TAG_BYTES = b"b"
_TAG_TUPLE = b"t"
_TAG_LIST = b"l"
_TAG_DICT = b"d"
_TAG_FROZENSET = b"S"


def oracle_bytes(value):
    out = []
    _oracle_encode(value, out)
    return b"".join(out)


def _oracle_encode(value, out):
    if value is None:
        out.append(_TAG_NONE)
    elif value is True:
        out.append(_TAG_TRUE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif isinstance(value, int):
        body = str(value).encode("ascii")
        out.append(_TAG_INT + struct.pack(">I", len(body)) + body)
    elif isinstance(value, float):
        out.append(_TAG_FLOAT + struct.pack(">d", value))
    elif isinstance(value, str):
        body = value.encode("utf-8")
        out.append(_TAG_STR + struct.pack(">I", len(body)) + body)
    elif isinstance(value, bytes):
        out.append(_TAG_BYTES + struct.pack(">I", len(value)) + value)
    elif isinstance(value, tuple):
        out.append(_TAG_TUPLE + struct.pack(">I", len(value)))
        for item in value:
            _oracle_encode(item, out)
    elif isinstance(value, list):
        out.append(_TAG_LIST + struct.pack(">I", len(value)))
        for item in value:
            _oracle_encode(item, out)
    elif isinstance(value, dict):
        encoded = sorted(
            (oracle_bytes(k), oracle_bytes(v)) for k, v in value.items()
        )
        out.append(_TAG_DICT + struct.pack(">I", len(encoded)))
        for key_bytes, val_bytes in encoded:
            out.append(struct.pack(">I", len(key_bytes)) + key_bytes)
            out.append(struct.pack(">I", len(val_bytes)) + val_bytes)
    elif isinstance(value, frozenset):
        encoded = sorted(oracle_bytes(item) for item in value)
        out.append(_TAG_FROZENSET + struct.pack(">I", len(encoded)))
        for item_bytes in encoded:
            out.append(struct.pack(">I", len(item_bytes)) + item_bytes)
    elif hasattr(value, "canonical"):
        _oracle_encode(value.canonical(), out)
    else:
        raise TypeError(f"cannot canonically encode {type(value).__name__}")


class Polarity(enum.IntEnum):
    PLUS = 1
    MINUS = 2


class Label(str):
    """A str subclass: encoded as the string it is."""


Hop = collections.namedtuple("Hop", "node cost")


class Wrapped:
    """Exposes ``canonical()``, like Tup and Msg."""

    def __init__(self, inner):
        self.inner = inner

    def canonical(self):
        return ("wrapped", self.inner)


class Opaque:
    """Neither a supported type nor ``canonical()``: must be rejected."""


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, float("inf"), float("-inf"), float("nan")]),
    st.text(max_size=12),
    st.sampled_from(["τ@n", "naïve", "日本", "\x00"]),
    st.binary(max_size=12),
    st.sampled_from(list(Polarity)),
    st.text(max_size=6).map(Label),
)
_hashable = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3).map(tuple),
        st.lists(children, max_size=3).map(frozenset),
        st.tuples(st.text(max_size=4), st.integers()).map(lambda p: Hop(*p)),
        # encoded as its memoized canonical_key(), the oracle's bytes
        st.tuples(st.text(max_size=4), st.text(max_size=3), children)
        .map(lambda p: Tup(*p)),
    ),
    max_leaves=6,
)
_encodable = st.recursive(
    st.one_of(_scalars, _hashable),
    lambda children: st.one_of(
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4),
        st.dictionaries(_hashable, children, max_size=3),
        children.map(Wrapped),
    ),
    max_leaves=12,
)


def _with_opaque(value):
    """*value* with an unencodable object buried inside it."""
    return st.sampled_from([
        Opaque(), (value, Opaque()), [value, [Opaque()]],
        {"k": (value, Opaque())}, Wrapped(Opaque()), frozenset([Opaque()]),
        bytearray(b"ab"), {1, 2}, 1 + 2j,
    ])


class TestAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(_encodable)
    def test_bytes_equal_the_oracle(self, value):
        assert canonical_bytes(value) == oracle_bytes(value)

    @settings(max_examples=300, deadline=None)
    @given(_encodable)
    def test_size_is_the_encoded_length(self, value):
        assert canonical_size(value) == len(oracle_bytes(value))

    @settings(max_examples=60, deadline=None)
    @given(_encodable.flatmap(_with_opaque))
    def test_same_inputs_rejected(self, value):
        with pytest.raises(TypeError):
            oracle_bytes(value)
        with pytest.raises(TypeError):
            canonical_bytes(value)
        with pytest.raises(TypeError):
            canonical_size(value)

    def test_subclasses_encode_as_their_base(self):
        assert canonical_bytes(Polarity.MINUS) == oracle_bytes(Polarity.MINUS)
        assert canonical_bytes(Label("x")) == canonical_bytes("x")
        assert canonical_bytes(Hop("a", 2)) == canonical_bytes(("a", 2))
        assert canonical_bytes(collections.OrderedDict(b=1, a=2)) == \
            canonical_bytes({"a": 2, "b": 1})

    def test_non_ascii_costs_its_utf8_length(self):
        assert canonical_size("τ") == len(canonical_bytes("τ")) == 5 + 2
        assert canonical_size("日本") == 5 + 6


class TestPinnedFormat:
    """Digests of the committed format: a change to any of these bytes
    invalidates every recorded log, signature and checkpoint. A digest
    is 32 raw bytes; the pins spell it in hex."""

    TUP = Tup("link", "a", "b", 3, 2.5, "τ")

    def test_tup(self):
        assert self.TUP.canonical_key().hex() == (
            "7400000004730000000374757073000000046c696e6b7300000001617400"
            "0000047300000001626900000001336640040000000000007300000002cf84"
        )
        assert content_digest(self.TUP.canonical()).hex() == (
            "0783d22e4f626fddbbc0d11e0eec6d3127e2d0174116ac2004bf214578954a10"
        )

    def test_msg(self):
        msg = Msg(PLUS, self.TUP, "a", "b", 7, 1.25)
        assert content_digest(msg.canonical()).hex() == (
            "30e794c422295bbe9eb5d3a0d663c50bc0958b0c0ab77e64846305988f950c26"
        )

    def test_authenticator_payload(self):
        auth = Authenticator("a", 12, 3.5, content_digest(b"entry"), None)
        assert content_digest(auth.payload()).hex() == (
            "c3148289fbd877a7f8da1bc0e0e2f51ca8f8663ad2c907711c8bb6f08b11b17c"
        )

    def test_chain_step_is_the_papers_concatenation(self):
        # h_k = H(h_{k-1} || t_k || y_k || H(c_k)): 32 + 8 + 3 + 32 bytes
        # for an ins entry, no encoding around any of them
        digest = content_digest(("x",))
        joined = GENESIS_HASH + struct.pack(">d", 1.0) + b"ins" + digest
        assert len(joined) == 75
        assert chain_hash(GENESIS_HASH, 1.0, "ins", digest) \
            == hashlib.sha256(joined).digest()

    @pytest.mark.parametrize("fields", [
        (GENESIS_HASH.hex(), 1.0, "ins", bytes(32)),   # a hex anchor
        (GENESIS_HASH, 1.0, "ins", bytes(31)),         # a short digest
        (GENESIS_HASH, 1, "ins", bytes(32)),           # an int time
        (GENESIS_HASH, "1.0", "ins", bytes(32)),       # a str time
        (GENESIS_HASH, 1.0, b"ins", bytes(32)),        # a bytes type
        (GENESIS_HASH, 1.0, "τ", bytes(32)),           # a non-ASCII type
    ])
    def test_a_chain_step_takes_only_its_fixed_form(self, fields):
        with pytest.raises(ValueError):
            chain_hash(*fields)

    def test_checkpoint_content_and_chain(self):
        # A chk entry commits to its whole snapshot by digest; Tup keys,
        # nested dicts and a frozenset all meet the canonical encoding.
        snapshot = {
            "seq": {"b": 2},
            "store": {"base": {self.TUP: 1}, "appeared": {self.TUP: 1.0},
                      "beliefs": {Tup("cost", "b", "c", 2): {"b": 1}}},
            "emitted": frozenset({"j1", "j0"}),
        }
        entry = NodeLog("a").append_checkpoint(4.0, snapshot)
        kind, digest = entry.content
        assert kind == "checkpoint" and digest.hex() == (
            "12ca5332e32fd06f527a6ef662844bb5f6cf3a2a6a851e18eaab7a6fbe2a120a"
        )
        assert entry.content_hash.hex() == (
            "795c7b05d264c11330b817e6106866e851c4adbf1b9d53640e6fc0352c631001"
        )
        assert entry.entry_hash.hex() == (
            "7fd95a63313cfdef7bf3590e33269f4bb8b6f603d2f997f2f03b99ea8998db56"
        )

    def test_committed_bytes_per_entry_type(self):
        # (entries, committed bytes) per type on one chord@5 recording. A
        # rcv or an ack commits to two digests (h_start and the signed
        # hash), 32 bytes each; with hex digests both were 64 B more per
        # entry (ack 15 189, rcv 19 939), and the rest as here.
        dep = run_chord(n_nodes=5, rounds=1, lookups=2, seed=7).deployment
        sizes = {}
        for node in dep.nodes.values():
            for entry in node.log.entries:
                count, size = sizes.get(entry.entry_type, (0, 0))
                sizes[entry.entry_type] = (count + 1,
                                           size + entry.size_bytes())
        assert sizes == {"ack": (61, 11_285), "del": (5, 300),
                         "ins": (82, 5_530), "rcv": (61, 16_035),
                         "snd": (61, 7_861)}
