"""Framing layer: round-trips under arbitrary fragmentation, and damage
tolerance — a truncated, oversized, or garbage-wrapped frame never
corrupts a later well-formed one."""

import functools
import io
import pickle
import pickletools
import struct
import zlib

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.apps.mincost import build_paper_network, link
from repro.datalog.store import DerivationInstance
from repro.metrics import ServiceMeter
from repro.model import Ack, Blob, Msg, Tup
from repro.service import ServicePusher, framing
from repro.service.framing import (
    FrameDecoder, FramingError, HEADER_BYTES, MAGIC, encode_frame,
)
from repro.snp import Deployment, QueryProcessor
from repro.snp.wire import FIELDS, VALUE_CLASSES


def raw_frame(payload, length=None):
    """Hand-build a frame around *payload* bytes (bypassing pickle)."""
    if length is None:
        length = len(payload)
    prefix = struct.pack(">4sI", MAGIC, length)
    return prefix + struct.pack(
        ">II", zlib.crc32(prefix), zlib.crc32(payload)
    ) + payload


def decode_all(data, chunks=None):
    """Feed *data* to a fresh decoder, optionally split at *chunks*."""
    dec = FrameDecoder(ServiceMeter())
    out = []
    if chunks is None:
        out.extend(dec.feed(data))
    else:
        prev = 0
        for cut in list(chunks) + [len(data)]:
            out.extend(dec.feed(data[prev:cut]))
            prev = cut
    return dec, out


def _pickled_with_id(pid):
    """A pickle of one value that crosses as the persistent id *pid*."""
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.persistent_id = lambda value: pid if value is Ellipsis else None
    pickler.dump({"value": Ellipsis})
    return buffer.getvalue()


def _damaged(frame):
    bad = bytearray(frame)
    bad[HEADER_BYTES + 2] ^= 0xFF
    return bytes(bad)


PAYLOADS = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.text(max_size=20),
        st.binary(max_size=40),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=8), inner, max_size=4),
    ),
    max_leaves=12,
)


class TestRoundTrip:
    def test_single_frame(self):
        dec, out = decode_all(encode_frame({"type": "hello", "n": 3}))
        assert out == [{"type": "hello", "n": 3}]
        assert dec.meter.frames_received == 1
        assert dec.meter.garbage_bytes == 0

    def test_wire_value_objects_cross_natively(self):
        tup = Tup("lookupResult", "n1", 42, "n2", 7)
        _dec, out = decode_all(encode_frame({"tup": tup}))
        assert out[0]["tup"] == tup

    def test_byte_at_a_time(self):
        msgs = [{"i": i, "pad": "x" * i} for i in range(5)]
        data = b"".join(encode_frame(m) for m in msgs)
        dec, out = decode_all(data, chunks=range(1, len(data)))
        assert out == msgs
        assert dec.pending_bytes() == 0
        assert dec.meter.bytes_received == len(data)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(PAYLOADS, min_size=1, max_size=4), st.data())
    def test_arbitrary_splits(self, msgs, data):
        stream = b"".join(encode_frame(m) for m in msgs)
        cuts = data.draw(
            st.lists(st.integers(0, len(stream)), max_size=8).map(sorted)
        )
        dec, out = decode_all(stream, chunks=cuts)
        assert out == msgs
        assert dec.meter.frames_received == len(msgs)
        assert dec.meter.garbage_bytes == 0
        assert dec.meter.corrupt_frames == 0


class TestDamage:
    def test_truncated_frame_waits_without_emitting(self):
        data = encode_frame({"k": "v" * 100})
        dec, out = decode_all(data[:-10])
        assert out == []
        assert dec.pending_bytes() == len(data) - 10
        # The rest arriving later completes it.
        assert dec.feed(data[-10:]) == [{"k": "v" * 100}]

    def test_truncated_frame_then_eof_is_clean(self):
        # A connection dying mid-frame leaves buffered bytes and no
        # phantom frame — the owner just drops the decoder.
        dec, out = decode_all(encode_frame([1, 2, 3])[:7])
        assert out == []
        assert dec.meter.frames_received == 0

    def test_leading_garbage_is_skipped(self):
        frame = encode_frame("payload")
        dec, out = decode_all(b"\x00\x01NOISE" + frame)
        assert out == ["payload"]
        assert dec.meter.garbage_bytes == 7

    def test_mid_stream_garbage_between_frames(self):
        a, b = encode_frame("a"), encode_frame("b")
        dec, out = decode_all(a + b"garbage bytes!" + b)
        assert out == ["a", "b"]
        assert dec.meter.garbage_bytes == 14

    def test_garbage_containing_magic_prefix(self):
        frame = encode_frame("ok")
        # Garbage that ends with a partial magic marker must not eat the
        # real frame that follows.
        dec, out = decode_all(b"xx" + MAGIC[:2] + b"yy" + frame)
        assert out == ["ok"]

    def test_corrupt_payload_crc_resyncs_to_next_frame(self):
        bad = bytearray(encode_frame({"seq": 1}))
        bad[HEADER_BYTES + 2] ^= 0xFF
        good = encode_frame({"seq": 2})
        dec, out = decode_all(bytes(bad) + good)
        assert out == [{"seq": 2}]
        assert dec.meter.corrupt_frames == 1

    def test_corrupt_length_field_cannot_swallow_next_frame(self):
        # Flip the top byte of the length field (claiming ~16 MB): the
        # header CRC catches it immediately — the decoder neither waits
        # for nor skips the bytes the lying length claims, so the next
        # frame is recovered.
        frame = bytearray(encode_frame("x"))
        frame[4] ^= 0x01
        good = encode_frame("recovered")
        dec, out = decode_all(bytes(frame) + good)
        assert "recovered" in out
        assert dec.meter.corrupt_frames >= 1

    def test_oversized_length_is_rejected_without_buffering(
            self, monkeypatch):
        huge = raw_frame(b"", length=1 << 30)
        good = encode_frame("after")
        monkeypatch.setattr(framing, "MAX_FRAME_BYTES", 1024)
        dec, out = decode_all(huge + good)
        assert out == ["after"]
        assert dec.meter.oversized_frames == 1
        assert dec.pending_bytes() < 2048

    def test_oversized_encode_raises(self, monkeypatch):
        monkeypatch.setattr(framing, "MAX_FRAME_BYTES", 10)
        with pytest.raises(FramingError):
            encode_frame(b"x" * 100)

    def test_valid_crc_bad_pickle_consumes_frame(self):
        dec, out = decode_all(
            raw_frame(b"not a pickle at all") + encode_frame("next"))
        assert out == ["next"]
        assert dec.meter.corrupt_frames == 1

    def test_unpickler_rejects_modules_outside_the_table(self):
        # A frame naming an arbitrary importable (the classic pickle
        # gadget) is dropped as corrupt, and the stream continues.
        evil = pickle.dumps(zlib.crc32)  # by-reference: names module zlib
        dec, out = decode_all(raw_frame(evil) + encode_frame("survives"))
        assert out == ["survives"]
        assert dec.meter.corrupt_frames == 1
        assert dec.meter.refused_globals == 1

    def test_line_damage_is_not_a_refused_global(self):
        bad = bytearray(encode_frame({"seq": 1}))
        bad[HEADER_BYTES + 2] ^= 0xFF
        dec, _out = decode_all(
            bytes(bad) + raw_frame(b"not a pickle at all") + b"junk")
        assert dec.meter.corrupt_frames == 2
        assert dec.meter.refused_globals == 0

    @pytest.mark.parametrize("make, owed", [
        (lambda: raw_frame(b"not a pickle at all"), 1),
        (lambda: raw_frame(pickle.dumps(zlib.crc32)), 1),
        (lambda: raw_frame(_pickled_with_id(("no-such-tag", 1))), 1),
        (lambda: _damaged(encode_frame({"seq": 1})), 0),
    ], ids=["not-a-pickle", "a-global", "an-id-no-builder-takes",
            "line-damage"])
    def test_an_intact_frame_that_does_not_decode_is_owed_an_answer(
            self, make, owed):
        """Both CRCs passed, so the sender wrote this frame and waits for
        a reply: its owner counts it apart from line damage."""
        dec, out = decode_all(make() + encode_frame("next"))
        assert out == ["next"]
        assert (dec.meter.corrupt_frames, dec.undecodable_frames) == (1, owed)


    @settings(max_examples=40, deadline=None)
    @given(st.binary(max_size=200), st.lists(PAYLOADS, max_size=3))
    def test_garbage_prefix_never_corrupts_following_frames(
            self, garbage, msgs):
        stream = garbage + b"".join(encode_frame(m) for m in msgs)
        _dec, out = decode_all(stream)
        assert out == msgs


def _short(text):
    return b"\x8c" + bytes([len(text)]) + text.encode("ascii")


def global_probe(module, name, call=b")R"):
    """A protocol-4 payload that resolves ``module`` / ``name`` through
    ``STACK_GLOBAL`` and (by default) calls it with no arguments."""
    return b"\x80\x04" + _short(module) + _short(name) + b"\x93" + call + b"."


#: Benign stand-ins for code execution. Under the module-prefix test the
#: push port once had, each of these *returned a value* when unpickled:
#: 42, the daemon's pid, an OrderedDict, copyreg's dispatch table, the
#: globals of ``repro.model``. The first two are ROADMAP item 6's probes,
#: byte for byte.
PROBES = {
    "builtins.eval":
        b"\x80\x04\x8c\x08builtins\x8c\x04eval\x93\x8c\x041+41\x85R.",
    "os through an allowed module's imports":
        b"\x80\x04\x8c\x12repro.snp.executor\x8c\x09os.getpid\x93)R.",
    "collections": global_probe("collections", "OrderedDict"),
    "copyreg": global_probe("copyreg", "dispatch_table", call=b""),
    "dotted name under a listed class":
        global_probe("repro.model", "Tup.__init__.__globals__", call=b""),
    "unlisted repro class": global_probe("repro.snp.deployment", "Deployment"),
    "unlisted name in a listed module":
        global_probe("repro.model", "canonical_bytes", call=b"N\x85R"),
}
#: The seven classes an exact name table once let a frame resolve: a
#: value class crosses as a persistent id now, never by its name.
PROBES.update({f"{module}.{name}": global_probe(module, name, call=b"")
               for module, name in (
                   ("repro.model", "Tup"), ("repro.model", "Msg"),
                   ("repro.snp.commitment", "WireAck"),
                   ("repro.snp.evidence", "Authenticator"),
                   ("repro.snp.evidence", "RetentionFloor"),
                   ("repro.snp.log", "LogEntry"),
                   ("repro.snp.snoopy", "RetrieveResponse"))})


@functools.lru_cache(maxsize=None)
def widest_deployment():
    """Batched acks, checkpoints, signed retention floors: the widest
    honest hello and push, and the deployment they describe."""
    dep = Deployment(seed=77, key_bits=256, t_batch=0.05)
    nodes = build_paper_network(dep)
    dep.run()
    dep.checkpoint_all()
    nodes["a"].insert(link("a", "e", 9))
    dep.run()
    auditor = QueryProcessor(dep)
    dep.register_querier(auditor)
    auditor.refresh()
    dep.run_gc()
    pusher = ServicePusher(dep, "127.0.0.1", 0)
    hello, push = pusher.hello_message(), pusher.build_push()
    return dep, hello, push


@functools.lru_cache(maxsize=None)
def first_push():
    """A batched deployment's first push: whole logs, every entry type."""
    dep = Deployment(seed=78, key_bits=256, t_batch=0.05)
    build_paper_network(dep)
    dep.run()
    return ServicePusher(dep, "127.0.0.1", 0).build_push()


def as_fields(value):
    """*value* as plain data, each table object as the ``(tag, *fields)``
    a frame's persistent id carries, walked down to builtins."""
    row = FIELDS.get(type(value))
    if row is not None:
        tag, fields = row
        return (tag, *map(as_fields, fields(value)))
    if isinstance(value, (list, tuple)):
        return type(value)(map(as_fields, value))
    if isinstance(value, dict):
        return {as_fields(k): as_fields(v) for k, v in value.items()}
    return value


def one_of_each():
    """One honest instance of every class in the value table."""
    dep, _hello, push = widest_deployment()
    response = first_push()["nodes"]["a"]["response"]
    entries = {entry.entry_type: entry for entry in response.entries}
    msg = entries["snd"].content[0]
    return [msg.tup, Blob("d", "text"), msg, Ack("b", "a", [msg], 1.5),
            response.head_auth,
            next(iter(dep.retention_floors.values())),
            DerivationInstance("R1", (msg.tup,)), entries["snd"], response,
            entries["ack"].aux["wire_ack"]]


class TestNoGlobalResolves:
    """The push port resolves no global — not by module, not by name,
    not through a dotted path; value objects cross as persistent ids of
    ``repro.snp.wire``'s table."""

    @pytest.mark.parametrize("name", sorted(PROBES))
    def test_probe_is_refused_by_loads(self, name):
        with pytest.raises(framing.RefusedGlobal):
            framing._Unpickler(PROBES[name]).load()

    @pytest.mark.parametrize("name", sorted(PROBES))
    def test_framed_probe_is_counted_and_the_stream_goes_on(self, name):
        dec = FrameDecoder(ServiceMeter())
        assert dec.feed(raw_frame(PROBES[name])) == []
        assert (dec.meter.refused_globals, dec.meter.corrupt_frames,
                dec.meter.frames_received) == (1, 1, 0)
        honest = {"tup": Tup("link", "a", "b", 3)}
        assert dec.feed(encode_frame(honest)) == [honest]
        assert (dec.meter.refused_globals, dec.meter.frames_received) == (1, 1)
        assert dec.pending_bytes() == 0

    def test_no_name_table_is_left(self):
        assert not hasattr(framing, "_ALLOWED_MODULES")
        assert not hasattr(framing, "_WIRE_GLOBALS")

    def test_every_table_class_round_trips_through_a_frame(self):
        values = one_of_each()
        assert [type(v) for v in values] \
            == [row[0] for row in VALUE_CLASSES]
        # a shared object crosses once and arrives shared
        (back, again), = decode_all(encode_frame((values, values[3])))[1]
        assert again is back[3]
        for sent, got in zip(values, back):
            assert type(got) is type(sent)
            assert as_fields(got) == as_fields(sent)
        assert back[0] == values[0] and hash(back[0]) == hash(values[0])

    def test_the_table_covers_what_a_deployment_pushes(self):
        """The widest honest hello and push cross as they are."""
        _dep, hello, push = widest_deployment()
        assert push["floors"] and any(
            part["auths"] for part in push["nodes"].values())
        dec, out = decode_all(encode_frame(hello) + encode_frame(push))
        assert dec.meter.refused_globals == 0 and len(out) == 2
        assert out[0] == hello
        assert sorted(out[1]["nodes"]) == sorted(push["nodes"])
        for node, part in push["nodes"].items():
            back = out[1]["nodes"][node]["response"]
            assert [e.entry_hash for e in back.entries] \
                == [e.entry_hash for e in part["response"].entries]

    def test_a_pushed_entry_carries_the_aux_keys_of_its_log(self):
        """Entries cross as the origin's log stores them (a push holds
        the log's own entry objects): a decoded entry has exactly their
        aux keys. Only an entry whose content commits by reference has
        any — an ack entry the wire ack, a checkpoint its snapshot; an
        ``ins``/``snd``/``rcv`` entry's content holds its tuple or
        message, and it carries no aux."""
        _dep, _hello, widest = widest_deployment()
        kinds = set()
        by_reference = {"ack": {"wire_ack"}, "chk": {"snapshot"}}
        for push in (first_push(), widest):
            (back,) = decode_all(encode_frame(push))[1]
            for node, part in push["nodes"].items():
                sent, got = part["response"], back["nodes"][node]["response"]
                for old, new in zip(sent.entries, got.entries):
                    kinds.add(old.entry_type)
                    assert set(new.aux) == set(old.aux) \
                        == by_reference.get(old.entry_type, set())
                    if old.entry_type == "ins":
                        assert type(new.content) is Tup
                    elif old.entry_type in ("snd", "rcv"):
                        assert type(new.content[0]) is Msg
        assert kinds == {"ins", "snd", "rcv", "ack", "chk"}


# ------------------------------------------------------- hostile payloads

HONEST = {"type": "push", "seq": 3, "tup": Tup("link", "a", "b", 3)}


def puts_stay_small(payload):
    """Whether every memo index *payload* PUTs stays small. The C
    unpickler sizes its memo to the largest index a PUT names, so nine
    bytes can make it allocate gigabytes (ROADMAP item 6 records the
    hole); hostile inputs here stay clear of that one."""
    try:
        for opcode, arg, _pos in pickletools.genops(payload):
            if opcode.name.endswith("PUT") and arg > 1 << 16:
                return False
    except Exception:
        pass  # the unpickler stops where genops does
    return True


def assert_contained(payload):
    """*payload* framed, then an honest frame: ``feed`` never raises, the
    payload costs at most itself — decoded, or counted corrupt exactly
    once — and the honest frame decodes equal."""
    dec = FrameDecoder(ServiceMeter())
    out = dec.feed(raw_frame(payload) + encode_frame(HONEST))
    assert out[-1] == HONEST
    assert len(out) == dec.meter.frames_received
    assert dec.meter.frames_received + dec.meter.corrupt_frames == 2
    assert (dec.meter.garbage_bytes, dec.meter.oversized_frames,
            dec.pending_bytes()) == (0, 0, 0)
    return dec


def with_pid(pid):
    """A payload that hands *pid* (a tuple of builtins) to
    ``persistent_load``."""
    return pickle.dumps(pid, protocol=4)[:-1] + b"Q."


#: name -> hand-built payload the decoder must count corrupt, once.
HOSTILE_IDS = {
    "unknown tag": with_pid(("W.nonsense", 1)),
    "no fields": with_pid(("W.tup",)),
    "empty id": with_pid(()),
    "id is not a tuple": b"\x80\x04\x8c\x05W.tupQ.",
    "text persistent id": b"P('W.tup', 'r', 'a', ())\n.",
    "tag is unhashable": b"\x80\x04]\x8c\x01r\x86Q.",
    "wrong arity": with_pid(("W.tup", "r", "a", (), "extra")),
    "unhashable Tup arg": b"\x80\x04(\x8c\x05W.tup\x8c\x01r\x8c\x01a]\x85tQ.",
    "Tup args not a tuple": with_pid(("W.tup", "r", "a", 5)),
    "bad Msg polarity": with_pid(
        ("W.msg", "?", ("W.tup", "r", "a", ()), "a", "b", 0, 0.0)),
    "unhashable Msg field": with_pid(("W.msg", "+", "t", [], "b", 0, 0.0)),
    "Authenticator index not an int": with_pid(
        ("W.auth", "a", "7", 1.0, "h", b"sig")),
    "Authenticator signature an int": with_pid(
        ("W.auth", "a", 7, 1.0, "h", 10 ** 12)),
    "RetentionFloor index a float": with_pid(
        ("W.floor", "a", 1.0, 1.0, b"sig")),
    "LogEntry aux a list": with_pid(
        ("W.entry", 1, 0.0, "ins", (), "c", "h", [])),
    "response entries not LogEntries": with_pid(
        ("W.resp", "a", ["entry"], 1, "h", None)),
}


#: A valid Tup, then ``BUILD`` setting its memoized hash to 5.
REWRITTEN_AFTER_BUILD = (with_pid(("W.tup", "r", "a", ()))[:-1]
                         + b"N}\x8c\x05_hashK\x05s\x86b.")


#: A response built from an entry list L (memo 0), then ``"x"``
#: appended to L, then ``(response, L)``. Both digests are 32 zero bytes.
APPENDED_AFTER_BUILD = (
    b"\x80\x04]\x94(\x8c\x06W.resp\x8c\x01ah\x00K\x01C\x20" + bytes(32)
    + b"(\x8c\x06W.auth\x8c\x01aK\x01G" + struct.pack(">d", 1.0)
    + b"C\x20" + bytes(32) + b"C\x01stQtQh\x00\x8c\x01xa\x86.")

#: ``[r(@a), s(@b)]`` from two persistent ids of one size, neither
#: memoized: the first is freed once loaded, so the second may be
#: allocated at its address.
UNMEMOIZED_TWINS = (
    b"\x80\x04((\x8c\x05W.tup\x8c\x01r\x8c\x01a)tQ"
    b"(\x8c\x05W.tup\x8c\x01s\x8c\x01b)tQl.")


class TestHostilePayloads:
    """The frame payload decoder against bytes written to hurt it."""

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=160))
    def test_random_bytes_under_a_valid_header(self, payload):
        assume(puts_stay_small(payload))
        assert_contained(payload)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(["hello", "push", "first push"]), st.data())
    def test_mutated_honest_frames(self, which, data):
        _dep, hello, push = widest_deployment()
        frames = {"hello": hello, "push": push, "first push": first_push()}
        payload = bytearray(encode_frame(frames.pop(which))[HEADER_BYTES:])
        donor = encode_frame(frames[data.draw(st.sampled_from(
            sorted(frames)))])
        for _ in range(data.draw(st.integers(1, 4))):
            at = data.draw(st.integers(0, len(payload) - 1))
            how = data.draw(st.sampled_from(["flip", "truncate", "splice"]))
            if how == "flip":
                payload[at] = data.draw(st.integers(0, 255))
            elif how == "truncate":
                del payload[at:]
                payload = payload or bytearray(b".")
            else:
                lo = data.draw(st.integers(HEADER_BYTES, len(donor) - 1))
                payload[at:at] = donor[lo:lo + data.draw(
                    st.integers(1, 64))]
        assume(puts_stay_small(bytes(payload)))
        assert_contained(bytes(payload))

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.sampled_from(
               [row[1] for row in VALUE_CLASSES] + ["W.t", ""]),
               st.text(max_size=6)),
           st.lists(st.one_of(
               st.none(), st.booleans(), st.integers(), st.floats(),
               st.text(max_size=4), st.binary(max_size=4),
               st.lists(st.integers(), max_size=2),
               st.dictionaries(st.text(max_size=2), st.integers(),
                               max_size=2),
               st.tuples(st.integers())), max_size=10))
    def test_hand_built_persistent_ids(self, tag, fields):
        assert_contained(with_pid((tag, *fields)))

    @pytest.mark.parametrize("name", sorted(HOSTILE_IDS))
    def test_malformed_id_is_corrupt_once(self, name):
        dec = assert_contained(HOSTILE_IDS[name])
        assert (dec.meter.corrupt_frames, dec.meter.refused_globals) == (1, 0)

    def test_an_object_cannot_be_rewritten_after_it_was_built(self):
        """``BUILD`` would set slots directly, past the builder: a Tup
        whose memoized hash a payload rewrites must not leave the
        decoder."""
        with pytest.raises(TypeError, match="never patched"):
            framing._Unpickler(REWRITTEN_AFTER_BUILD).load()
        assert assert_contained(
            REWRITTEN_AFTER_BUILD).meter.corrupt_frames == 1

    def test_a_checked_list_cannot_be_grown_after_the_check(self):
        """The response keeps a copy of the entry list its builder
        checked; the list the payload can still reach is not it."""
        response, grown = framing._Unpickler(APPENDED_AFTER_BUILD).load()
        assert grown == ["x"] and response.entries == []

    def test_an_unmemoized_id_is_built_from_its_own_fields(self):
        """Each persistent id builds its own object, even when the
        payload memoized neither and the second reuses the first's
        address."""
        assert framing._Unpickler(UNMEMOIZED_TWINS).load() \
            == [Tup("r", "a"), Tup("s", "b")]
