"""Framing layer: round-trips under arbitrary fragmentation, and damage
tolerance — a truncated, oversized, or garbage-wrapped frame never
corrupts a later well-formed one."""

import pickle
import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.mincost import build_paper_network, link
from repro.model import Tup
from repro.service import ServicePusher, framing
from repro.service.framing import (
    FrameDecoder, FramingError, HEADER_BYTES, MAGIC, encode_frame,
)
from repro.snp import Deployment, QueryProcessor


def raw_frame(payload, length=None):
    """Hand-build a frame around *payload* bytes (bypassing pickle)."""
    if length is None:
        length = len(payload)
    prefix = struct.pack(">4sI", MAGIC, length)
    return prefix + struct.pack(
        ">II", zlib.crc32(prefix), zlib.crc32(payload)
    ) + payload


def decode_all(data, chunks=None, **kwargs):
    """Feed *data* to a fresh decoder, optionally split at *chunks*."""
    dec = FrameDecoder(**kwargs)
    out = []
    if chunks is None:
        out.extend(dec.feed(data))
    else:
        prev = 0
        for cut in list(chunks) + [len(data)]:
            out.extend(dec.feed(data[prev:cut]))
            prev = cut
    return dec, out


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
        assert dec.frames_decoded == 1
        assert dec.garbage_bytes == 0

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

    @settings(max_examples=60, deadline=None)
    @given(st.lists(PAYLOADS, min_size=1, max_size=4), st.data())
    def test_arbitrary_splits(self, msgs, data):
        stream = b"".join(encode_frame(m) for m in msgs)
        cuts = data.draw(
            st.lists(st.integers(0, len(stream)), max_size=8).map(sorted)
        )
        dec, out = decode_all(stream, chunks=cuts)
        assert out == msgs
        assert dec.frames_decoded == len(msgs)
        assert dec.garbage_bytes == 0
        assert dec.corrupt_frames == 0


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
        assert dec.frames_decoded == 0

    def test_leading_garbage_is_skipped(self):
        frame = encode_frame("payload")
        dec, out = decode_all(b"\x00\x01NOISE" + frame)
        assert out == ["payload"]
        assert dec.garbage_bytes == 7

    def test_mid_stream_garbage_between_frames(self):
        a, b = encode_frame("a"), encode_frame("b")
        dec, out = decode_all(a + b"garbage bytes!" + b)
        assert out == ["a", "b"]
        assert dec.garbage_bytes == 14

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
        assert dec.corrupt_frames == 1

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
        assert dec.corrupt_frames >= 1

    def test_oversized_length_is_rejected_without_buffering(self):
        huge = raw_frame(b"", length=1 << 30)
        good = encode_frame("after")
        dec, out = decode_all(huge + good, max_frame_bytes=1024)
        assert out == ["after"]
        assert dec.oversized_frames == 1
        assert dec.pending_bytes() < 2048

    def test_oversized_encode_raises(self):
        with pytest.raises(FramingError):
            encode_frame(b"x" * 100, max_frame_bytes=10)

    def test_valid_crc_bad_pickle_consumes_frame(self):
        dec, out = decode_all(
            raw_frame(b"not a pickle at all") + encode_frame("next"))
        assert out == ["next"]
        assert dec.corrupt_frames == 1

    def test_unpickler_rejects_modules_outside_the_table(self):
        # A frame naming an arbitrary importable (the classic pickle
        # gadget) is dropped as corrupt, and the stream continues.
        evil = pickle.dumps(zlib.crc32)  # by-reference: names module zlib
        dec, out = decode_all(raw_frame(evil) + encode_frame("survives"))
        assert out == ["survives"]
        assert dec.corrupt_frames == 1
        assert dec.refused_globals == 1

    def test_line_damage_is_not_a_refused_global(self):
        bad = bytearray(encode_frame({"seq": 1}))
        bad[HEADER_BYTES + 2] ^= 0xFF
        dec, _out = decode_all(
            bytes(bad) + raw_frame(b"not a pickle at all") + b"junk")
        assert dec.corrupt_frames == 2
        assert dec.refused_globals == 0

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


#: Benign stand-ins for code execution. At the parent of the PR that
#: introduced the table each of these *returned a value* from ``_loads``:
#: 42, the daemon's pid, an OrderedDict, copyreg's dispatch table, the
#: globals of ``repro.model``. The first two are ROADMAP item 1's probes,
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


class TestGlobalTable:
    """The push port resolves the names in ``_WIRE_GLOBALS`` and no
    other: not by module, not by prefix, not through a dotted path."""

    @pytest.mark.parametrize("name", sorted(PROBES))
    def test_probe_is_refused_by_loads(self, name):
        with pytest.raises(pickle.UnpicklingError):
            framing._loads(PROBES[name])

    @pytest.mark.parametrize("name", sorted(PROBES))
    def test_framed_probe_is_counted_and_the_stream_goes_on(self, name):
        dec = FrameDecoder()
        assert dec.feed(raw_frame(PROBES[name])) == []
        assert (dec.refused_globals, dec.corrupt_frames,
                dec.frames_decoded) == (1, 1, 0)
        honest = {"tup": Tup("link", "a", "b", 3)}
        assert dec.feed(encode_frame(honest)) == [honest]
        assert (dec.refused_globals, dec.frames_decoded) == (1, 1)
        assert dec.pending_bytes() == 0

    def test_the_module_test_is_gone(self):
        assert not hasattr(framing, "_ALLOWED_MODULES")

    def test_every_listed_name_is_a_class_that_exists(self):
        for module, name in framing._WIRE_GLOBALS:
            assert "." not in name
            resolved = getattr(__import__(module, fromlist=[name]), name)
            assert isinstance(resolved, type), (module, name)

    def test_the_table_covers_what_a_deployment_pushes(self):
        """Batched acks, checkpoints and signed retention floors — the
        widest honest hello and push — cross on the table as it is."""
        dep = Deployment(seed=77, key_bits=256, t_batch=0.05)
        nodes = build_paper_network(dep)
        dep.run()
        dep.checkpoint_all()
        nodes["a"].insert(link("a", "e", 9))
        dep.run()
        with QueryProcessor(dep) as auditor:
            dep.register_querier(auditor)
            auditor.refresh()
            dep.run_gc()
        pusher = ServicePusher(dep, "127.0.0.1", 0)
        hello, (push, _cursors) = pusher.hello_message(), pusher.build_push()
        assert push["floors"] and any(
            part["auths"] for part in push["nodes"].values())
        dec, out = decode_all(encode_frame(hello) + encode_frame(push))
        assert dec.refused_globals == 0 and len(out) == 2
        assert out[0] == hello
        assert sorted(out[1]["nodes"]) == sorted(push["nodes"])
        for node, part in push["nodes"].items():
            back = out[1]["nodes"][node]["response"]
            assert [e.entry_hash for e in back.entries] \
                == [e.entry_hash for e in part["response"].entries]
