"""The value codec: what bytes from outside the program may build.

Outside bytes reach the auditor through the service plane — a pusher's
hello (public keys, app specs) and its pushes (log segments, evidence).
This module decides what they may construct (DESIGN.md, "What the codec
promises"):

* **One table builds every value object.** Each is a row of
  :data:`VALUE_CLASSES`: it crosses as ``(tag, *fields)`` and the row's
  builder rebuilds it through the constructor — so memoized ``hash()``
  values, process-specific under hash randomization, are recomputed
  where they are used — checking what the daemon and the build step
  rely on. Pickling a value object (:class:`~repro.model.WireValue`),
  :func:`value_to_wire` / :func:`value_from_wire` and the service
  plane's frames (:mod:`repro.service.framing`) all read it.
* **Log entries drop the aux keys replay never reads**
  (:func:`sanitize_response`) before a pusher ships them.

No signature or hash chain is checked here.
"""

from operator import attrgetter

from repro.datalog.store import DerivationInstance
from repro.model import Ack, Msg, Tup
from repro.snp.commitment import WireAck
from repro.snp.evidence import Authenticator, RetentionFloor
from repro.snp.log import LogEntry, INS, DEL, SND, RCV, ACK, CHK
from repro.snp.snoopy import RetrieveResponse
from repro.util.errors import ReproError


class WireError(ReproError):
    """A value cannot be represented on (or decoded from) the wire."""


# ------------------------------------------------------ the value table

def _require(ok, what):
    if not ok:
        raise WireError("malformed wire form: " + what)


def _authenticator(node, index, timestamp, entry_hash, signature):
    _require(isinstance(index, int) and isinstance(signature, bytes),
             "an Authenticator has an int index and a bytes signature")
    return Authenticator(node, index, timestamp, entry_hash, signature)


def _floor(node, floor_index, floor_time, signature):
    _require(isinstance(floor_index, int) and isinstance(signature, bytes),
             "a RetentionFloor has an int index and a bytes signature")
    return RetentionFloor(node, floor_index, floor_time, signature)


def _entry(index, timestamp, entry_type, content, content_hash, entry_hash,
           aux):
    _require(isinstance(index, int) and type(aux) is dict,
             "a LogEntry has an int index and an aux dict")
    return LogEntry(index, timestamp, entry_type, content, content_hash,
                    entry_hash, aux)


def _response(node, entries, start_index, start_hash, head_auth, checkpoint,
              from_mirror):
    _require(type(entries) is list
             and all(isinstance(e, LogEntry) for e in entries)
             and isinstance(start_index, int)
             and isinstance(head_auth, Authenticator)
             and (checkpoint is None or isinstance(checkpoint, LogEntry)),
             "a RetrieveResponse has LogEntries, an int start, a head auth")
    # A copy: the list the bytes built stays theirs to reach.
    return RetrieveResponse(node, list(entries), start_index, start_hash,
                            head_auth, checkpoint, from_mirror)


#: ``(class, tag, fields, builder)`` for every class that bytes from
#: outside the program may build. A builder checks arity and the field
#: types the daemon or the build step use unchecked (indexes, signatures,
#: entry lists); what the rest claims, verification judges.
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
                                  "start_hash", "head_auth", "checkpoint",
                                  "from_mirror"), _response),
    (WireAck, "W.wack", ("src", "dst", "batch_auth", "rcv_metas", "gaps",
                         "start_index", "h_start", "auth", "msgs"), WireAck),
)

#: The table by class (how an instance crosses) and by tag (its builder).
FIELDS = {cls: (tag, attrgetter(*fields))
          for cls, tag, fields, _build in VALUE_CLASSES}
BUILDERS = {tag: build for _cls, tag, _fields, build in VALUE_CLASSES}


# ---------------------------------------------------------------- values

_PRIMITIVES = (bool, int, float, str, bytes)

_TUPLE_TAG = "W.t"
_LIST_TAG = "W.l"
_SET_TAG = "W.set"
_FROZENSET_TAG = "W.fset"
_DICT_TAG = "W.d"
_CONTAINERS = {_TUPLE_TAG: tuple, _LIST_TAG: list, _SET_TAG: set,
               _FROZENSET_TAG: frozenset}


def value_to_wire(value):
    """Encode *value* (a nested structure of builtins and table value
    objects) as tagged plain builtins. Containers are tag-wrapped, so raw
    data that happens to look like a tag cannot be misread: every tuple in
    a wire form was produced by this encoder. Mutable containers are
    snapshotted by the encoding itself."""
    if value is None or isinstance(value, _PRIMITIVES):
        return value
    row = FIELDS.get(type(value))
    if row is not None:
        tag, fields = row
        return (tag, *map(value_to_wire, fields(value)))
    if isinstance(value, tuple):
        return (_TUPLE_TAG, tuple(value_to_wire(v) for v in value))
    if isinstance(value, list):
        return (_LIST_TAG, tuple(value_to_wire(v) for v in value))
    if isinstance(value, (set, frozenset)):
        tag = _FROZENSET_TAG if isinstance(value, frozenset) else _SET_TAG
        return (tag, tuple(sorted((value_to_wire(v) for v in value),
                                  key=repr)))
    if isinstance(value, dict):
        return (_DICT_TAG, tuple((value_to_wire(k), value_to_wire(v))
                                 for k, v in value.items()))
    raise WireError(
        f"cannot wire-encode a {type(value).__name__}: only plain data and "
        "the value table's classes may go on the wire"
    )


def value_from_wire(wire):
    """Rebuild the value :func:`value_to_wire` encoded, constructing every
    value object afresh in the current process. The input may come from
    outside the program (a pusher-supplied app spec): any form the
    encoder cannot have produced raises :class:`WireError`."""
    try:
        return _value_from_wire(wire)
    except (TypeError, ValueError, IndexError, RecursionError) as exc:
        # wrong arity, wrong shape (not iterable), an unhashable set
        # member / dict key, or nesting deeper than the stack
        raise WireError(f"malformed wire form: {exc}") from None


def _value_from_wire(wire):
    if wire is None or isinstance(wire, _PRIMITIVES):
        return wire
    if isinstance(wire, tuple) and wire:
        tag = wire[0]
        build = BUILDERS.get(tag)
        if build is not None:
            return build(*[_value_from_wire(field) for field in wire[1:]])
        kind = _CONTAINERS.get(tag)
        if kind is not None:
            return kind(map(_value_from_wire, wire[1]))
        if tag == _DICT_TAG:
            return {_value_from_wire(k): _value_from_wire(v)
                    for k, v in wire[1]}
    raise WireError(f"unrecognized wire form {wire!r}")


# ------------------------------------------------- log segments / evidence

#: Wire-relevant aux keys per entry type. ``aux`` is a simulation
#: convenience (parsed objects so the querier does not re-decode content);
#: anything not listed — e.g. the receiver-side ``batch`` an ack entry
#: remembers — stays home.
_AUX_KEYS = {
    INS: ("tup",), DEL: ("tup",), SND: ("msg",),
    RCV: ("msg", "batch_auth"), ACK: ("wire_ack",),
    CHK: ("snapshot", "extant", "believed"),
}


def sanitize_entry(entry):
    """The wire form of a log entry: the entry itself, with any aux key
    the audit path never reads stripped (a shallow copy is made only when
    something must go). Entries are value objects — content, hashes, and
    the parsed aux all pickle under the constructor-rebuilding contract.
    """
    keys = _AUX_KEYS.get(entry.entry_type, ())
    trimmed = {k: entry.aux[k] for k in keys if k in entry.aux}
    if len(trimmed) == len(entry.aux):
        return entry
    return LogEntry(entry.index, entry.timestamp, entry.entry_type,
                    entry.content, entry.content_hash, entry.entry_hash,
                    aux=trimmed)


def sanitize_response(response):
    """The wire form of a RetrieveResponse: itself, with entries
    sanitized. Only entries that carry non-wire aux (ack entries remember
    the sender-side ``WireBatch``) are copied."""
    entries = [sanitize_entry(e) for e in response.entries]
    checkpoint = (None if response.checkpoint is None
                  else sanitize_entry(response.checkpoint))
    if checkpoint is response.checkpoint and all(
            new is old for new, old in zip(entries, response.entries)):
        return response
    return RetrieveResponse(
        node=response.node, entries=entries,
        start_index=response.start_index, start_hash=response.start_hash,
        head_auth=response.head_auth, checkpoint=checkpoint,
        from_mirror=response.from_mirror,
    )


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
