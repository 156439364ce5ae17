"""Property-based tests: serialization and the hash chain.

These are the invariants the security argument leans on: canonical
encoding must be injective-in-practice and deterministic, and the hash
chain must commit to order and content.
"""

from hypothesis import given, settings, strategies as st

from repro.model import Tup
from repro.snp.evidence import Authenticator
from repro.snp.log import NodeLog
from repro.snp.snoopy import LogCopy, RetrieveResponse
from repro.util.serialization import canonical_bytes

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 64), max_value=2 ** 64),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
    st.binary(max_size=20),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=5), children, max_size=4),
    ),
    max_leaves=12,
)


class TestCanonicalBytes:
    @given(values)
    def test_deterministic(self, value):
        assert canonical_bytes(value) == canonical_bytes(value)

    @given(values, values)
    def test_distinct_values_distinct_encodings(self, a, b):
        # For values that compare unequal, encodings differ (int/float
        # cross-equality like 1 == 1.0 is carved out: the encoding is
        # deliberately type-tagged).
        if a != b or type(a) is not type(b):
            if canonical_bytes(a) == canonical_bytes(b):
                assert a == b and type(a) is type(b)

    @given(st.text(max_size=10), st.text(max_size=10),
           st.lists(st.integers(), max_size=3))
    def test_tup_encoding_tracks_fields(self, rel, loc, args):
        t1 = Tup(rel, loc, *args)
        t2 = Tup(rel + "x", loc, *args)
        assert canonical_bytes(t1) != canonical_bytes(t2)


class TestHashChainProperties:
    entries = st.lists(
        st.tuples(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                  st.sampled_from(["ins", "del", "snd", "rcv", "ack"]),
                  st.text(max_size=10)),
        min_size=1, max_size=20,
    )

    @given(entries)
    def test_chain_deterministic(self, items):
        def build():
            log = NodeLog("n")
            for t, y, c in items:
                log.append(t, y, (c,))
            return log.head_hash()
        assert build() == build()

    @given(entries, st.integers(min_value=0, max_value=19))
    def test_any_modification_changes_head(self, items, position):
        if position >= len(items):
            position = len(items) - 1
        original = NodeLog("n")
        for t, y, c in items:
            original.append(t, y, (c,))
        modified = NodeLog("n")
        for index, (t, y, c) in enumerate(items):
            payload = (c + "-tampered",) if index == position else (c,)
            modified.append(t, y, payload)
        assert original.head_hash() != modified.head_hash()

    @given(entries)
    def test_prefix_hashes_stable_under_extension(self, items):
        log = NodeLog("n")
        prefix_hashes = []
        for t, y, c in items:
            log.append(t, y, (c,))
            prefix_hashes.append(log.head_hash())
        # Extending the chain never changes earlier hashes.
        log.append(99.0, "ins", ("extra",))
        for index, expected in enumerate(prefix_hashes):
            assert log.hash_at(index + 1) == expected

    @given(st.lists(st.booleans(), min_size=1, max_size=16),
           st.lists(st.integers(min_value=0, max_value=18), max_size=4))
    def test_a_log_and_its_copy_trim_alike(self, checkpoints, floors):
        # *checkpoints*: which entries are chk entries; every floor is
        # applied to the node's log and to a stored copy of it
        log = NodeLog("n")
        for index, is_chk in enumerate(checkpoints, 1):
            if is_chk:
                log.append_checkpoint(float(index), {"seq": {}})
            else:
                log.append(float(index), "ins", (index,))
        head = log.entry(len(log))
        auth = Authenticator("n", head.index, head.timestamp,
                             head.entry_hash, b"sig")
        copy = LogCopy("n")
        assert copy.store(RetrieveResponse("n", *log.after(), auth))
        for floor in floors:
            assert log.trim(floor) == copy.trim(floor)
            assert (log.start_index, log.start_hash, log.entries) \
                == (copy.start_index, copy.start_hash, copy.entries)
