"""The wire layer's serialization contract (repro/snp/wire.py).

Three families of guarantees:

* the validating codec round-trips every supported value shape and
  rejects everything else (hypothesis-driven);
* value objects pickle *through their constructors*, so process-local
  memoized hashes can never leak across a process boundary;
* what a pusher ships — sanitized responses, factory specs — survives a
  pickle round trip with identical observable behavior (hashes
  re-verify, specs rebuild a working factory), and a malformed spec is
  a ``WireError``.
"""

import functools
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.mincost import build_paper_network, link, mincost_factory
from repro.model import Ack, Msg, Tup
from repro.apps import AppFactory, factory_from_spec
from repro.snp import Deployment
from repro.snp.commitment import WireAck
from repro.snp.log import LogEntry, encode_contents
from repro.snp.replay import verify_segment_hashes
from repro.snp.snoopy import RetrieveResponse
from repro.snp.evidence import Authenticator
from repro.snp.wire import (
    BUILDERS, WireError, sanitize_response, value_from_wire, value_to_wire,
)

# ------------------------------------------------------------- strategies

atoms = st.one_of(
    st.none(), st.booleans(), st.integers(-2**40, 2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8), st.binary(max_size=8),
)

tups = st.builds(
    lambda rel, loc, args: Tup(rel, loc, *args),
    st.text(min_size=1, max_size=6), st.text(min_size=1, max_size=4),
    st.lists(st.one_of(st.integers(), st.text(max_size=4)), max_size=3),
)

msgs = st.builds(
    lambda pol, tup, src, dst, seq, t: Msg(pol, tup, src, dst, seq, t),
    st.sampled_from("+-"), tups, st.text(min_size=1, max_size=3),
    st.text(min_size=1, max_size=3), st.integers(0, 99),
    st.floats(0, 100, allow_nan=False),
)

acks = st.builds(
    lambda src, dst, ms, t: Ack(src, dst, ms, t),
    st.text(min_size=1, max_size=3), st.text(min_size=1, max_size=3),
    st.lists(msgs, max_size=2), st.floats(0, 100, allow_nan=False),
)

values = st.recursive(
    st.one_of(atoms, tups, msgs, acks),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.one_of(atoms.filter(lambda a: a is not None
                                               or True), tups),
                        children, max_size=3),
        st.sets(st.one_of(st.integers(), st.text(max_size=4)), max_size=3),
        st.frozensets(st.integers(), max_size=3),
    ),
    max_leaves=12,
)


#: A well-formed Authenticator wire form.
_AUTH = ("W.auth", "a", 1, 1.0, "h", b"sig")

#: The tags of the classes the push plane ships.
_PUSHED = {"W.entry": LogEntry, "W.resp": RetrieveResponse,
           "W.wack": WireAck}


def _only_builtins(wire):
    if wire is None or isinstance(wire, (bool, int, float, str, bytes)):
        return True
    if isinstance(wire, tuple):
        return all(_only_builtins(v) for v in wire)
    return False


class TestValueCodec:
    @settings(max_examples=120, deadline=None)
    @given(values)
    def test_round_trip_is_identity_on_the_wire(self, value):
        wire = value_to_wire(value)
        assert _only_builtins(wire)
        assert pickle.loads(pickle.dumps(wire)) == wire
        decoded = value_from_wire(wire)
        assert value_to_wire(decoded) == wire

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(tups, msgs))
    def test_decoded_value_objects_compare_equal(self, value):
        decoded = value_from_wire(value_to_wire(value))
        assert decoded == value
        assert hash(decoded) == hash(value)

    def test_rejects_unencodable_values(self):
        for bad in (lambda: None, object(), type("X", (), {})()):
            with pytest.raises(WireError):
                value_to_wire(bad)

    def test_rejects_unknown_wire_forms(self):
        with pytest.raises(WireError):
            value_from_wire(("W.nonsense", 1))
        with pytest.raises(WireError):
            value_from_wire(object())

    @pytest.mark.parametrize("wire", [
        # wrong arity: every fixed-shape tag, too short and too long
        ("W.tup", 1), ("W.tup", "r", "n", (), "extra"),
        ("W.msg",), ("W.msg", "+", ("W.tup", "r", "n", ()), "a", "b", 1),
        ("W.ack", "a", "b"), ("W.auth", 1, 2), ("W.floor", "n", 1),
        ("W.der", "R1"),
        # wrong shape: a scalar where a sequence of members belongs
        ("W.t", 5), ("W.l", None), ("W.set", 7), ("W.fset", 1.5),
        ("W.d", 5), ("W.d", (1, 2)), ("W.d", (("k",),)),
        ("W.tup", "r", "n", 5), ("W.ack", "a", "b", 9, 0.0),
        ("W.der", "R1", 3), ("W.t",), ("W.d",),
        # unhashable member where a hashable one is required
        ("W.d", ((("W.l", ()), 1),)), ("W.set", (("W.l", ()),)),
        ("W.fset", (("W.d", ()),)),
        # malformed forms nested inside well-formed ones
        ("W.l", (("W.t", (("W.auth", 1, 2),)),)),
        ("W.d", (("k", ("W.tup", 1)),)),
        # the pushed classes: wrong arity, then each checked field
        ("W.entry", 1, 0.0, "ins"), ("W.resp", "a"), ("W.wack", "a", "b"),
        ("W.entry", "1", 0.0, "ins", ("W.t", ()), "c", "h", ("W.d", ())),
        ("W.entry", 1, 0.0, "ins", ("W.t", ()), "c", "h", ("W.l", ())),
        ("W.resp", "a", ("W.l", ("entry",)), 1, "h", _AUTH, None, False),
        ("W.resp", "a", ("W.t", ()), 1, "h", _AUTH, None, False),
        ("W.resp", "a", ("W.l", ()), 1.0, "h", _AUTH, None, False),
        ("W.resp", "a", ("W.l", ()), 1, "h", None, None, False),
        ("W.resp", "a", ("W.l", ()), 1, "h", _AUTH, "chk", False),
        ("W.wack", "a", "b", _AUTH, ("W.l", ()), ("W.l", ()), 1, "h",
         _AUTH, ("W.l", ()), "extra"),
        ("W.auth", "a", 1, 1.0, "h", 10 ** 12),
        ("W.floor", "a", "1", 1.0, b"sig"),
        # nesting deeper than the decoder's stack
        pytest.param(functools.reduce(
            lambda wire, _: ("W.l", (wire,)), range(5000), 1),
            id="nested-5000-deep"),
        # not a wire form at all
        ("W.nonsense", 1), (), ((),), [1, 2], {"k": 1},
        # (an explicit id: repr() of a bare object embeds its address,
        # which would rename the test on every run)
        pytest.param(object(), id="object()"),
    ], ids=repr)
    def test_malformed_forms_raise_wire_error(self, wire):
        """The decoder faces bytes from outside the program (a pusher's
        app spec): whatever the encoder cannot have produced must raise
        WireError — never a bare ValueError/TypeError."""
        with pytest.raises(WireError):
            value_from_wire(wire)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(_PUSHED)), st.lists(st.one_of(
        atoms, st.just(_AUTH), st.just(("W.l", ())), st.just(("W.d", ())),
        st.just(("W.t", ()))), max_size=10))
    def test_pushed_tags_build_their_class_or_raise_wire_error(
            self, tag, fields):
        try:
            value = value_from_wire((tag, *fields))
        except WireError:
            return
        assert type(value) is _PUSHED[tag]

    def test_encoding_snapshots_mutable_containers(self):
        store = {"h": "text"}
        wire = value_to_wire(store)
        store["h2"] = "later"
        assert value_from_wire(wire) == {"h": "text"}


class TestConstructorPickling:
    """Tup/Msg memoize their hash; pickling must rebuild via __init__ so
    the hash is recomputed in the unpickling process."""

    def test_tup_reduce_goes_through_init(self):
        tup = Tup("link", "a", "b", 3)
        fn, args = tup.__reduce__()
        assert fn is Tup and args == ("link", "a", "b", 3)
        clone = pickle.loads(pickle.dumps(tup))
        assert clone == tup and hash(clone) == hash(tup)
        assert {tup: 1}[clone] == 1

    def test_msg_reduce_goes_through_init(self):
        msg = Msg("+", Tup("r", "a"), "a", "b", 7, 1.25)
        fn, _args = msg.__reduce__()
        assert fn is Msg
        clone = pickle.loads(pickle.dumps(msg))
        assert clone == msg and hash(clone) == hash(msg)

    def test_other_value_classes_pickle_through_their_table_builder(self):
        auth = Authenticator("a", 3, 1.5, "h", b"sig")
        build, fields = auth.__reduce__()
        assert build is BUILDERS["W.auth"]
        assert fields == ("a", 3, 1.5, "h", b"sig")
        clone = pickle.loads(pickle.dumps(auth))
        assert value_to_wire(clone) == value_to_wire(auth)
        # the builder's checks hold on any pickle too
        auth.index = "3"
        with pytest.raises(WireError):
            pickle.loads(pickle.dumps(auth))

    def test_build_cannot_patch_a_value_object(self):
        with pytest.raises(TypeError, match="never patched"):
            Tup("r", "a").__setstate__((None, {"_hash": 5}))

    def test_tup_canonical_key_survives(self):
        tup = Tup("r", "a", 1)
        clone = pickle.loads(pickle.dumps(tup))
        assert clone.canonical_key() == tup.canonical_key()


# --------------------------------------------------- composite wire forms


def _network(seed=7):
    dep = Deployment(seed=seed, key_bits=256)
    nodes = build_paper_network(dep)
    dep.run()
    return dep, nodes


class TestResponseWire:
    def test_sanitized_response_round_trips_and_reverifies(self):
        dep, _nodes = _network()
        response = dep.node("a").retrieve()
        original_hashes = verify_segment_hashes(
            response, encode_contents(response.entries))
        clone = pickle.loads(pickle.dumps(sanitize_response(response)))
        assert clone.node == response.node
        assert clone.start_index == response.start_index
        assert clone.start_hash == response.start_hash
        assert len(clone.entries) == len(response.entries)
        assert verify_segment_hashes(
            clone, encode_contents(clone.entries)) == original_hashes
        assert clone.head_auth.signature == response.head_auth.signature

    def test_sanitize_strips_only_non_wire_aux(self):
        dep, _nodes = _network()
        response = dep.node("a").retrieve()
        sanitized = sanitize_response(response)
        for old, new in zip(response.entries, sanitized.entries):
            assert set(new.aux) <= set(old.aux)
            assert "batch" not in new.aux
            for key in ("tup", "msg", "batch_auth", "wire_ack"):
                assert (key in new.aux) == (key in old.aux)

    def test_checkpointed_response_round_trips(self):
        dep, nodes = _network()
        dep.checkpoint_all()
        nodes["a"].insert(link("a", "q", 3))
        dep.run()
        response = dep.node("a").retrieve(from_checkpoint=True)
        assert response.checkpoint is not None
        clone = pickle.loads(pickle.dumps(sanitize_response(response)))
        assert clone.checkpoint.aux["snapshot"].keys() \
            == response.checkpoint.aux["snapshot"].keys()
        assert verify_segment_hashes(clone, encode_contents(clone.entries)) \
            == verify_segment_hashes(response,
                                     encode_contents(response.entries))


class TestSpecs:
    def test_app_factory_spec_resolves_through_registry(self):
        factory = mincost_factory()
        assert isinstance(factory, AppFactory)
        spec = factory.wire_spec()
        assert _only_builtins(value_to_wire(spec))
        rebuilt = factory_from_spec(spec)
        machine = rebuilt("n1")
        assert machine.handle_insert(link("n1", "n2", 1), 0.0) is not None

    @pytest.mark.parametrize("spec", [
        None, 5, ("mincost",), ("mincost", ("W.d", ()), "extra"), "abc",
        ("mincost", ("W.d", 5)),
    ], ids=repr)
    def test_malformed_spec_raises_wire_error(self, spec):
        with pytest.raises(WireError):
            factory_from_spec(spec)

    def test_unknown_spec_name_is_rejected(self):
        with pytest.raises(WireError, match="no application builder"):
            factory_from_spec(("no-such-app", value_to_wire({})))
