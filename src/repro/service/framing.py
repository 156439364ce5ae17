"""Framed message transport for the service plane.

A frame is ``MAGIC | length | header-crc | payload-crc | payload`` where
*payload* is a pickle of builtins only: an instance of a class in
:data:`repro.snp.wire.VALUE_CLASSES` crosses as the persistent id
``(tag, *fields)`` (once per object, however often it is referenced) and
is rebuilt by that table's builder. The unpickler resolves no global.

The header carries its *own* CRC (over magic + length) so a damaged
length field is detected the moment the header arrives — the decoder
never waits for, or skips, bytes a lying length claims. The payload CRC
then guards the body.

The decoder is an incremental state machine fed arbitrary byte chunks:
frames may arrive split across any number of reads, glued together, or
surrounded by garbage. Resynchronization scans for the magic marker, so
a corrupted or truncated frame can cost at most itself — a later
well-formed frame is always recovered intact. Defenses, in order:

* **header CRC mismatch**: the magic is dropped and scanning resumes at
  the next byte;
* **oversized length** (header intact, > ``max_frame_bytes``): counted
  and resynchronized past the magic — a hostile length cannot make the
  decoder buffer unbounded data;
* **payload CRC mismatch / undecodable payload**: the frame is consumed
  whole and counted, the stream continues. Undecodable includes an id a
  builder refuses, and pickle's ``BUILD`` on a built object (value
  classes refuse it: :class:`repro.model.WireValue`);
* **any global** named: written to be hostile, not damaged in flight —
  counted apart (``refused_globals``) as well as in ``corrupt_frames``.
"""

import io
import pickle
import struct
import zlib
from collections import deque

from repro.snp.wire import BUILDERS, FIELDS
from repro.util.errors import ReproError

MAGIC = b"SNPF"
# magic, payload length, crc32(magic+length), crc32(payload)
_HEADER = struct.Struct(">4sIII")
_HEADER_PREFIX = struct.Struct(">4sI")
HEADER_BYTES = _HEADER.size

#: Upper bound on a single frame's payload. Full chord@50 log pushes are
#: a few hundred KB; 32 MiB leaves two orders of magnitude of headroom
#: while keeping a hostile length field from reserving real memory.
MAX_FRAME_BYTES = 32 * 1024 * 1024


class FramingError(ReproError):
    """A frame could not be encoded (payload too large / unpicklable)."""


class RefusedGlobal(pickle.UnpicklingError):
    """A frame payload named a global; frames resolve none."""


class _Unpickler(pickle.Unpickler):
    """Builds table classes from persistent ids and nothing from names."""

    def __init__(self, data):
        super().__init__(io.BytesIO(data))
        # id(pid) -> (pid, object). Holding the pid keeps its id from being
        # reused: a pid the payload did not memoize is freed once loaded,
        # and a later pid of the same size may land at its address.
        self._built = {}

    def find_class(self, module, name):
        raise RefusedGlobal(
            f"frame payload names {module}.{name}; frames resolve no global")

    def persistent_load(self, pid):
        hit = self._built.get(id(pid))
        if hit is None:
            hit = self._built[id(pid)] = (pid, BUILDERS[pid[0]](*pid[1:]))
        return hit[1]


def frame_payload(payload):
    """*payload* bytes under a header with valid CRCs (what
    :func:`encode_frame` wraps a pickle in; tests and the e2e tool wrap
    hand-written payloads)."""
    prefix = _HEADER_PREFIX.pack(MAGIC, len(payload))
    return (prefix + struct.pack(">II", zlib.crc32(prefix),
                                 zlib.crc32(payload)) + payload)


def encode_frame(obj, max_frame_bytes=MAX_FRAME_BYTES):
    """Serialize *obj* as one frame (header + pickled payload), each
    table instance in it as one ``(tag, *fields)`` however often it
    recurs."""
    out, seen = io.BytesIO(), {}

    def persistent_id(value):
        if type(value) in FIELDS:
            pid = seen.get(id(value))
            if pid is None:
                tag, fields = FIELDS[type(value)]
                pid = seen[id(value)] = (tag,) + fields(value)
            return pid

    pickler = pickle.Pickler(out, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.persistent_id = persistent_id
    try:
        pickler.dump(obj)
    except Exception as exc:
        raise FramingError(f"frame payload is not picklable: {exc}") from exc
    payload = out.getvalue()
    if len(payload) > max_frame_bytes:
        raise FramingError(
            f"frame payload is {len(payload)} bytes, above the "
            f"{max_frame_bytes}-byte frame bound"
        )
    return frame_payload(payload)


class FrameDecoder:
    """Incremental frame decoder with garbage resynchronization.

    Feed it byte chunks as they arrive; it returns each fully decoded
    payload exactly once. Counters (``garbage_bytes``, ``corrupt_frames``,
    ``oversized_frames``, ``refused_globals``, ``frames_decoded``) let the
    connection owner meter hostile or damaged input without tearing the
    stream down.
    """

    def __init__(self, max_frame_bytes=MAX_FRAME_BYTES):
        self.max_frame_bytes = max_frame_bytes
        self._buf = bytearray()
        # Frames decoded but not yet consumed by recv_frame (one read
        # may complete several frames).
        self._pending = deque()
        self.frames_decoded = 0
        self.garbage_bytes = 0
        self.corrupt_frames = 0
        self.oversized_frames = 0
        self.refused_globals = 0

    def pending_bytes(self):
        """Bytes buffered awaiting a complete frame (bounded by
        ``HEADER_BYTES + max_frame_bytes`` plus one read chunk)."""
        return len(self._buf)

    def feed(self, data):
        """Consume *data*, returning the list of payloads completed by it."""
        self._buf.extend(data)
        out = []
        while True:
            status, payload = self._step()
            if status == "wait":
                return out
            if status == "frame":
                out.append(payload)

    def _resync(self, skip):
        """Drop *skip* bytes as garbage, then align on the next magic."""
        if skip:
            del self._buf[:skip]
            self.garbage_bytes += skip
        idx = self._buf.find(MAGIC)
        if idx == -1:
            # Keep a potential magic prefix at the tail (a frame split
            # inside its own marker), discard the rest.
            keep = 0
            for size in range(min(len(MAGIC) - 1, len(self._buf)), 0, -1):
                if self._buf[-size:] == MAGIC[:size]:
                    keep = size
                    break
            dropped = len(self._buf) - keep
            if dropped:
                self.garbage_bytes += dropped
                del self._buf[:dropped]
        elif idx:
            self.garbage_bytes += idx
            del self._buf[:idx]

    def _step(self):
        self._resync(0)
        if len(self._buf) < HEADER_BYTES:
            return "wait", None
        _magic, length, header_crc, payload_crc = _HEADER.unpack_from(
            self._buf)
        if zlib.crc32(self._buf[:_HEADER_PREFIX.size]) != header_crc:
            # Damaged length field (or garbage that aliased the magic):
            # detected before a single payload byte is trusted.
            self.corrupt_frames += 1
            self._resync(len(MAGIC))
            return "skip", None
        if length > self.max_frame_bytes:
            self.oversized_frames += 1
            self._resync(len(MAGIC))
            return "skip", None
        end = HEADER_BYTES + length
        if len(self._buf) < end:
            return "wait", None
        payload = bytes(self._buf[HEADER_BYTES:end])
        if zlib.crc32(payload) != payload_crc:
            self.corrupt_frames += 1
            self._resync(len(MAGIC))
            return "skip", None
        del self._buf[:end]
        try:
            obj = _Unpickler(payload).load()
        except Exception as exc:
            self.refused_globals += isinstance(exc, RefusedGlobal)
            self.corrupt_frames += 1
            return "skip", None
        self.frames_decoded += 1
        return "frame", obj


# ----------------------------------------------------- blocking sockets

def recv_frame(sock, decoder):
    """Block until *decoder* yields one frame from *sock*.

    Returns the payload, or ``None`` on orderly EOF. Socket timeouts
    propagate to the caller (the pusher's retry loop owns them). Extra
    frames completed by the same read are queued on the decoder for the
    next call.
    """
    while True:
        if decoder._pending:
            return decoder._pending.popleft()
        data = sock.recv(65536)
        if not data:
            return None
        decoder._pending.extend(decoder.feed(data))


# ------------------------------------------------------- asyncio streams

async def read_frames(reader, decoder):
    """Async-iterate until EOF, one list of decoded payloads per read —
    empty when the read completed no frame, so the connection owner can
    drain the decoder's counters while the stream is still open."""
    while True:
        data = await reader.read(65536)
        if not data:
            return
        yield decoder.feed(data)
