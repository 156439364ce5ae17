"""The value table: what bytes from outside the program may build.

Outside bytes reach the auditor through the service plane — a pusher's
hello (public keys, app specs) and its pushes (log segments, evidence).
This module decides what they may construct (DESIGN.md, "What the codec
promises"): every value object is a row of :data:`VALUE_CLASSES`. It
crosses a frame (:mod:`repro.service.framing`) as ``(tag, *fields)``
and the row's builder rebuilds it through the constructor — so memoized
``hash()`` values, process-specific under hash randomization, are
recomputed where they are used — checking what the daemon and the build
step rely on. Frames are the only encoding of a value object.

No signature or hash chain is checked here.
"""

from operator import attrgetter

from repro.crypto.hashing import is_digest
from repro.datalog.store import DerivationInstance
from repro.model import Ack, Msg, Tup
from repro.snp.commitment import WireAck
from repro.snp.evidence import Authenticator, RetentionFloor
from repro.snp.log import LogEntry
from repro.snp.snoopy import RetrieveResponse
from repro.util.errors import ReproError


class WireError(ReproError):
    """A value cannot be represented on (or decoded from) the wire."""


# ------------------------------------------------------ the value table

def _require(ok, what):
    if not ok:
        raise WireError("malformed wire form: " + what)


def _authenticator(node, index, timestamp, entry_hash, signature):
    _require(isinstance(index, int) and isinstance(signature, bytes)
             and isinstance(timestamp, float) and is_digest(entry_hash),
             "an Authenticator has an int index, a float timestamp, a "
             "digest and a bytes signature")
    return Authenticator(node, index, timestamp, entry_hash, signature)


def _floor(node, floor_index, floor_time, signature):
    _require(isinstance(floor_index, int) and isinstance(signature, bytes),
             "a RetentionFloor has an int index and a bytes signature")
    return RetentionFloor(node, floor_index, floor_time, signature)


def _entry(index, timestamp, entry_type, content, content_hash, entry_hash,
           aux):
    _require(isinstance(index, int) and type(aux) is dict
             and isinstance(timestamp, float) and is_digest(content_hash)
             and is_digest(entry_hash),
             "a LogEntry has an int index, a float timestamp, two digests "
             "and an aux dict")
    return LogEntry(index, timestamp, entry_type, content, content_hash,
                    entry_hash, aux)


def _response(node, entries, start_index, start_hash, head_auth):
    _require(type(entries) is list
             and all(isinstance(e, LogEntry) for e in entries)
             and isinstance(start_index, int) and is_digest(start_hash)
             and isinstance(head_auth, Authenticator),
             "a RetrieveResponse has LogEntries, an int start, a digest "
             "anchor and a head auth")
    # A copy: the list the bytes built stays theirs to reach.
    return RetrieveResponse(node, list(entries), start_index, start_hash,
                            head_auth)


#: ``(class, tag, fields, builder)`` for every class that bytes from
#: outside the program may build. A builder checks arity and the field
#: types the daemon or the build step use unchecked (indexes, signatures,
#: entry lists, and the digests and timestamps a chain step packs); what
#: the rest claims, verification judges.
VALUE_CLASSES = (
    (Tup, "W.tup", ("relation", "loc", "args"),
     lambda relation, loc, args: Tup(relation, loc, *args)),
    (Msg, "W.msg", ("polarity", "tup", "src", "dst", "seq", "t_sent"), Msg),
    (Ack, "W.ack", ("src", "dst", "msgs", "t_sent"), Ack),
    (Authenticator, "W.auth",
     ("node", "index", "timestamp", "entry_hash", "signature"),
     _authenticator),
    (RetentionFloor, "W.floor",
     ("node", "floor_index", "floor_time", "signature"), _floor),
    (DerivationInstance, "W.der", ("rule", "support"), DerivationInstance),
    (LogEntry, "W.entry", ("index", "timestamp", "entry_type", "content",
                           "content_hash", "entry_hash", "aux"), _entry),
    (RetrieveResponse, "W.resp", ("node", "entries", "start_index",
                                  "start_hash", "head_auth"),
     _response),
    (WireAck, "W.wack", ("src", "dst", "batch_auth", "rcv_metas", "gaps",
                         "start_index", "h_start", "auth", "msgs"), WireAck),
)

#: The table by class (how an instance crosses) and by tag (its builder).
FIELDS = {cls: (tag, attrgetter(*fields))
          for cls, tag, fields, _build in VALUE_CLASSES}
BUILDERS = {tag: build for _cls, tag, _fields, build in VALUE_CLASSES}


def __getattr__(name):
    # The frozen e2e tracer resolves its rows ``repro.snp.wire:compute_build``
    # and ``repro.snp.wire:verify_auth`` by getattr on this module, then
    # rebinds every ``repro.*`` alias of the function it finds. Both live in
    # repro.snp.build (which imports this module, hence the late import);
    # the next benchmark PR moves the two rows and deletes this forwarder.
    if name in ("compute_build", "verify_auth"):
        from repro.snp import build
        return getattr(build, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
