"""The value table (repro/snp/wire.py) and what crosses a frame by it.

Three families of guarantees:

* a value object becomes bytes only as a frame's persistent id
  ``(tag, *fields)``, and its row's builder rebuilds it through the
  constructor: any nesting of builtins and value objects round-trips
  (hypothesis-driven), memoized hashes are recomputed, and a pushed log
  segment re-verifies on the far side;
* a builder refuses what the daemon or the build step would use
  unchecked (a ``WireError``), and an id of the wrong arity, or of a tag
  the table does not list, costs its frame and nothing else;
* a hello's app spec (:meth:`repro.apps.AppFactory.wire_spec`) is plain
  data — the registry name and a dict of kwargs — that a frame carries
  as it is; :func:`repro.apps.factory_from_spec` accepts only a pair its
  builder takes, and anything else is a ``WireError``.
"""

import io
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import AppFactory, factory_from_spec
from repro.apps.mapreduce import content_hash, map_task
from repro.apps.mincost import link, mincost_factory
from repro.crypto.hashing import GENESIS_HASH
from repro.datalog.store import DerivationInstance
from repro.metrics import ServiceMeter
from repro.model import Ack, Blob, Msg, Tup
from repro.service.framing import (
    FrameDecoder, FramingError, encode_frame, frame_payload,
)
from repro.snp.commitment import WireAck
from repro.snp.evidence import Authenticator, RetentionFloor
from repro.snp.log import LogEntry, NodeLog, encode_contents
from repro.snp.replay import verify_segment_hashes
from repro.snp.snoopy import RetrieveResponse
from repro.snp.wire import BUILDERS, FIELDS, VALUE_CLASSES, WireError
from repro.util.errors import LogVerificationError

from scenarios import paper_network


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
        st.dictionaries(st.one_of(atoms, tups), children, max_size=3),
        st.sets(st.one_of(st.integers(), st.text(max_size=4)), max_size=3),
        st.frozensets(st.integers(), max_size=3),
    ),
    max_leaves=12,
)


# ---------------------------------------------------------------- helpers

class _Id(tuple):
    """A hand-built persistent id: its members may be table objects."""


def _payload(obj):
    """*obj* pickled as a frame pickles it, each :class:`_Id` in it
    handed to ``persistent_load`` as the tuple it holds."""
    out = io.BytesIO()

    def persistent_id(value):
        if type(value) is _Id:
            return tuple(value)
        if type(value) in FIELDS:
            tag, fields = FIELDS[type(value)]
            return (tag,) + fields(value)
        return None

    pickler = pickle.Pickler(out, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.persistent_id = persistent_id
    pickler.dump(obj)
    return out.getvalue()


def _decode(frame):
    """*frame*, then an honest one, through one decoder: the decoder and
    what *frame* decoded to (``[]`` when it was counted corrupt)."""
    honest = {"tup": Tup("link", "a", "b", 3)}
    dec = FrameDecoder(ServiceMeter())
    out = dec.feed(frame + encode_frame(honest))
    assert out[-1] == honest
    assert dec.meter.frames_received + dec.meter.corrupt_frames == 2
    assert dec.pending_bytes() == 0
    return dec, out[:-1]


def _cross(value):
    (back,) = FrameDecoder(ServiceMeter()).feed(encode_frame(value))
    return back


def _plain(value):
    """*value* as plain data, each table object as the ``(tag, *fields)``
    a frame's persistent id carries, walked down to builtins."""
    row = FIELDS.get(type(value))
    if row is not None:
        tag, fields = row
        return (tag, *map(_plain, fields(value)))
    if isinstance(value, (list, tuple)):
        return type(value)(map(_plain, value))
    if isinstance(value, dict):
        return {_plain(k): _plain(v) for k, v in value.items()}
    return value


#: A digest as every digest field holds one: 32 raw bytes.
H = bytes(range(32))


def _honest():
    """One honest instance of every row of the table, by tag."""
    tup = Tup("link", "a", "b", 3)
    msg = Msg("+", tup, "a", "b", 0, 0.5)
    auth = Authenticator("a", 1, 1.0, H, b"sig")
    entry = LogEntry(1, 0.0, "ins", tup, H, H, {})
    return {
        "W.tup": tup, "W.blob": Blob("d", "text"), "W.msg": msg,
        "W.ack": Ack("b", "a", [msg], 1.5),
        "W.auth": auth, "W.floor": RetentionFloor("a", 1, 1.0, b"sig"),
        "W.der": DerivationInstance("R1", (tup,)), "W.entry": entry,
        "W.resp": RetrieveResponse("a", [entry], 1, H, auth),
        "W.wack": WireAck("b", "a", auth, [(msg.msg_id(), 1, 1.0)], [], 1,
                          H, auth, [msg]),
    }


_TAGS = [row[1] for row in VALUE_CLASSES]


# ------------------------------------------------------------ round trips

class TestFrameRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(values)
    def test_any_nesting_of_builtins_and_value_objects_round_trips(
            self, value):
        assert _plain(_cross(value)) == _plain(value)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(tups, msgs))
    def test_decoded_value_objects_compare_equal(self, value):
        decoded = _cross(value)
        assert decoded == value
        assert hash(decoded) == hash(value)

    def test_a_decoded_tup_is_a_working_key(self):
        tup = Tup("r", "a", 1)
        clone = _cross(tup)
        assert clone is not tup
        assert {tup: 1}[clone] == 1
        assert clone.canonical_key() == tup.canonical_key()

    def test_a_value_a_frame_cannot_carry_is_a_framing_error(self):
        for bad in (lambda: None, type("Local", (), {})(),
                    (n for n in range(3))):
            with pytest.raises(FramingError):
                encode_frame({"value": bad})

    def test_an_object_of_no_table_class_does_not_cross(self):
        """A picklable object of a class the table does not list is
        pickled by name, and a frame resolves no name."""
        dec, out = _decode(encode_frame({"value": object()}))
        assert out == []
        assert (dec.meter.corrupt_frames, dec.meter.refused_globals) == (1, 1)

    def test_encoding_snapshots_mutable_containers(self):
        store = {"h": "text"}
        frame = encode_frame(store)
        store["h2"] = "later"
        assert FrameDecoder(ServiceMeter()).feed(frame) == [{"h": "text"}]

    def test_a_response_re_verifies_after_a_frame(self):
        dep, _nodes = paper_network(7)
        response = dep.node("a").retrieve()
        original = verify_segment_hashes(
            response, encode_contents(response.entries))
        clone = _cross(response)
        assert (clone.node, clone.start_index, clone.start_hash) \
            == (response.node, response.start_index, response.start_hash)
        assert [e.entry_hash for e in clone.entries] \
            == [e.entry_hash for e in response.entries]
        assert verify_segment_hashes(
            clone, encode_contents(clone.entries)) == original
        assert clone.head_auth.signature == response.head_auth.signature

    @pytest.mark.parametrize("lie", [
        "anchor in hex", "time an int", "time a str", "type in bytes"])
    def test_a_field_no_builder_saw_is_a_chain_verdict(self, lie):
        """A response that never crossed a frame — a replica's copy, in
        the same process — can hold what the builders refuse: the chain
        check refuses it as proof, and raises nothing else."""
        entry = NodeLog("a").append(1.0, "ins", ("x",))
        fields = {name: getattr(entry, name) for name in LogEntry.__slots__}
        anchor = GENESIS_HASH.hex() if lie == "anchor in hex" \
            else GENESIS_HASH
        if lie.startswith("time"):
            fields["timestamp"] = 1 if lie == "time an int" else "1.0"
        elif lie == "type in bytes":
            fields["entry_type"] = b"ins"
        response = RetrieveResponse("a", [LogEntry(**fields)], 1, anchor,
                                    None)
        with pytest.raises(LogVerificationError,
                           match="not of a form the chain hashes"):
            verify_segment_hashes(response, encode_contents(response.entries))

    def test_a_checkpointed_response_round_trips(self):
        dep, nodes = paper_network(7)
        dep.checkpoint_all()
        nodes["a"].insert(link("a", "q", 3))
        dep.run()
        response = dep.node("a").retrieve(from_checkpoint=True)
        assert response.seed is response.entries[0]
        clone = _cross(response)
        assert clone.seed.aux["snapshot"].keys() \
            == response.seed.aux["snapshot"].keys()
        assert verify_segment_hashes(clone, encode_contents(clone.entries)) \
            == verify_segment_hashes(response,
                                     encode_contents(response.entries))


# ------------------------------------------------------------ the builders

#: A pushed row's id with a field its builder checks gone wrong.
UNCHECKED_FIELDS = {
    "Blob digest in bytes": ("W.blob", H, "text"),
    "Blob digest None": ("W.blob", None, "text"),
    "Blob text in bytes": ("W.blob", "d", b"text"),
    "Authenticator index a str": ("W.auth", "a", "1", 1.0, H, b"sig"),
    "Authenticator index a float": ("W.auth", "a", 1.0, 1.0, H, b"sig"),
    "Authenticator signature an int": ("W.auth", "a", 1, 1.0, H, 10 ** 12),
    "Authenticator signature a str": ("W.auth", "a", 1, 1.0, H, "sig"),
    "Authenticator time an int": ("W.auth", "a", 1, 1, H, b"sig"),
    "Authenticator hash in hex": ("W.auth", "a", 1, 1.0, H.hex(), b"sig"),
    "Authenticator hash short": ("W.auth", "a", 1, 1.0, H[:31], b"sig"),
    "RetentionFloor index a str": ("W.floor", "a", "1", 1.0, b"sig"),
    "RetentionFloor signature None": ("W.floor", "a", 1, 1.0, None),
    "LogEntry index a str": ("W.entry", "1", 0.0, "ins", (), H, H, {}),
    "LogEntry aux a list": ("W.entry", 1, 0.0, "ins", (), H, H, []),
    "LogEntry aux pairs": (
        "W.entry", 1, 0.0, "ins", (), H, H, (("tup", 1),)),
    "LogEntry aux None": ("W.entry", 1, 0.0, "ins", (), H, H, None),
    "LogEntry time an int": ("W.entry", 1, 0, "ins", (), H, H, {}),
    "LogEntry time a str": ("W.entry", 1, "0.0", "ins", (), H, H, {}),
    "LogEntry content hash in hex": (
        "W.entry", 1, 0.0, "ins", (), H.hex(), H, {}),
    "LogEntry entry hash in hex": (
        "W.entry", 1, 0.0, "ins", (), H, H.hex(), {}),
    "LogEntry entry hash None": ("W.entry", 1, 0.0, "ins", (), H, None, {}),
    "response entries a tuple": ("W.resp", "a", (), 1, H, "W.auth"),
    "response entries not LogEntries": (
        "W.resp", "a", ["entry"], 1, H, "W.auth"),
    "response start a float": ("W.resp", "a", [], 1.0, H, "W.auth"),
    "response anchor in hex": ("W.resp", "a", [], 1, H.hex(), "W.auth"),
    "response head auth None": ("W.resp", "a", [], 1, H, None),
    "response head auth a floor": ("W.resp", "a", [], 1, H, "W.floor"),
}


class TestValueTable:
    def test_every_row_has_a_distinct_tag_and_a_builder(self):
        assert len(set(_TAGS)) == len(VALUE_CLASSES) == len(BUILDERS)
        assert sorted(_honest()) == sorted(_TAGS)
        for cls, tag, _fields, _build in VALUE_CLASSES:
            assert FIELDS[cls][0] == tag
            assert type(_honest()[tag]) is cls

    @pytest.mark.parametrize("name", sorted(UNCHECKED_FIELDS))
    def test_a_builder_refuses_a_field_used_unchecked(self, name):
        """Outside bytes must not reach the daemon or the build step as a
        field they index, sign-check or iterate without looking: the
        builder raises ``WireError``, and the frame is corrupt once."""
        honest = _honest()
        tag, *fields = UNCHECKED_FIELDS[name]
        # a field naming a tag stands for that row's honest instance
        fields = [honest[f] if isinstance(f, str) and f in honest else f
                  for f in fields]
        with pytest.raises(WireError, match="malformed wire form"):
            BUILDERS[tag](*fields)
        dec, out = _decode(frame_payload(_payload(_Id((tag, *fields)))))
        assert out == [] and dec.meter.corrupt_frames == 1

    @pytest.mark.parametrize("arity", ["exact", "one short", "one long"])
    @pytest.mark.parametrize("tag", _TAGS)
    def test_an_id_of_the_wrong_arity_costs_its_frame(self, tag, arity):
        value = _honest()[tag]
        fields = list(FIELDS[type(value)][1](value))
        if arity == "one short":
            fields.pop()
        elif arity == "one long":
            fields.append("extra")
        dec, out = _decode(frame_payload(_payload(_Id((tag, *fields)))))
        if arity == "exact":
            (back,) = out
            assert type(back) is type(value)
            assert _plain(back) == _plain(value)
        else:
            assert out == [] and dec.meter.corrupt_frames == 1
        assert dec.meter.refused_globals == 0

    @pytest.mark.parametrize("tag", ["W.t", "W.l", "W.d", "W.set", "W.fset"])
    def test_a_container_tag_builds_nothing(self, tag):
        """Containers cross as pickle's own opcodes; a tag the table does
        not list is no persistent id."""
        assert tag not in BUILDERS
        dec, out = _decode(frame_payload(_payload(_Id((tag, ())))))
        assert out == [] and dec.meter.corrupt_frames == 1

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["W.entry", "W.resp", "W.wack"]), st.lists(
        st.one_of(atoms, st.sampled_from(["W.auth", "W.entry"]),
                  st.just([]), st.just({}), st.just(())), max_size=10))
    def test_pushed_tags_build_their_class_or_cost_their_frame(
            self, tag, fields):
        honest = _honest()
        fields = [honest[f] if f in ("W.auth", "W.entry") else f
                  for f in fields]
        dec, out = _decode(frame_payload(_payload(_Id((tag, *fields)))))
        if out:
            (back,) = out
            assert type(back) is type(honest[tag])
        else:
            assert dec.meter.corrupt_frames == 1

    def test_a_changed_field_is_checked_again_on_the_far_side(self):
        """A frame carries fields, not a verdict: an object whose field
        was changed after it was built is judged by the builder again."""
        auth = Authenticator("a", 3, 1.5, H, b"sig")
        back = _cross(auth)
        assert type(back) is Authenticator and _plain(back) == _plain(auth)
        auth.index = "3"
        dec, out = _decode(encode_frame(auth))
        assert out == [] and dec.meter.corrupt_frames == 1


# ------------------------------------------------------------------ specs

class TestSpecs:
    def test_app_factory_spec_resolves_through_registry(self):
        factory = mincost_factory()
        assert isinstance(factory, AppFactory)
        (spec,) = FrameDecoder(ServiceMeter()).feed(
            encode_frame(factory.wire_spec()))
        assert spec == ("mincost", factory.kwargs)
        machine = factory_from_spec(spec)("n1")
        assert machine.handle_insert(link("n1", "n2", 1), 0.0) is not None

    def test_a_split_crosses_in_its_task_tuple_not_in_the_spec(self):
        """MapReduce's spec is static; a split's text crosses a frame in
        its mapTask tuple's blob, which still commits to the digest
        alone, and a blob whose digest or text is no str costs its
        frame."""
        assert _cross(AppFactory("mapreduce").wire_spec()) \
            == ("mapreduce", {})
        text = "the lazy dog"
        task = map_task("m", "j", "s", Blob(content_hash(text), text), ("r",))
        back = _cross(task)
        assert back == task and back.args[2].text == text
        assert back.canonical_key() == task.canonical_key() \
            == map_task("m", "j", "s", content_hash(text),
                        ("r",)).canonical_key()
        assert _cross(Blob("d", None)).text is None
        for digest, text in ((H, "text"), ("d", b"text"), ("d", 5)):
            dec, out = _decode(frame_payload(_payload(
                _Id(("W.blob", digest, text)))))
            assert out == [] and dec.meter.corrupt_frames == 1

    @pytest.mark.parametrize("spec", [
        None, 5, "abc", ("mincost",), ("mincost", {}, "extra"),
        # kwargs that are not a dict
        ("mincost", None), ("mincost", ("W.d", ())),
        ("mincost", [("max_cost", 3)]), ("mincost", "max_cost"),
        # a dict the builder cannot take
        ("mincost", {1: 2}), ("mincost", {"no_such_kwarg": 1}),
        # a name that cannot be looked up
        (["mincost"], {}),
    ], ids=repr)
    def test_malformed_spec_raises_wire_error(self, spec):
        with pytest.raises(WireError):
            factory_from_spec(spec)

    def test_unknown_spec_name_is_rejected(self):
        with pytest.raises(WireError, match="no application builder"):
            factory_from_spec(("no-such-app", {}))


def test_build_cannot_patch_a_value_object():
    with pytest.raises(TypeError, match="never patched"):
        Tup("r", "a").__setstate__((None, {"_hash": 5}))
