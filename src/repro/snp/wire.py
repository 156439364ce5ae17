"""The wire codec: what may cross a process boundary, and how.

A view build's verify+replay step (:mod:`repro.snp.build`) may run in a
worker process (:mod:`repro.snp.resident`). Everything crossing that
boundary — through the pool's own pipe, pickled once per crossing — is
governed by this module's serialization contract (DESIGN.md, "The
executor boundary"):

* **One table builds every value object.** Each is a row of
  :data:`VALUE_CLASSES`: it crosses as ``(tag, *fields)`` and the row's
  builder rebuilds it through the constructor — so memoized ``hash()``
  values, process-specific under hash randomization, are recomputed
  where they are used — checking what the daemon and the build step
  rely on. The pool's pipe (:class:`~repro.model.WireValue`),
  :func:`value_to_wire` / :func:`value_from_wire` and the service
  plane's frames (:mod:`repro.service.framing`) all read it.
* **Unpicklable machinery gets an explicit wire form.** State machines
  close over compiled rules — they cross as *snapshots* plus a registry
  spec (:mod:`repro.apps`), rebuilt lazily on the far side; replay's
  retained GCA crosses via :func:`replay_to_wire` /
  :func:`replay_from_wire`; log entries drop the aux keys replay never
  reads (:func:`sanitize_response`).

Also here: the *handle* standing for a replay held on the far side
(:class:`ResidentReplay`). No signature or hash chain is checked here.
"""

from operator import attrgetter

from repro.datalog.store import DerivationInstance
from repro.metrics import QueryStats
from repro.model import Ack, Msg, Tup
from repro.snp.commitment import WireAck
from repro.snp.evidence import Authenticator, RetentionFloor
from repro.snp.log import LogEntry, INS, DEL, SND, RCV, ACK, CHK
from repro.snp.replay import ReplayResult
from repro.snp.snoopy import RetrieveResponse
from repro.util.errors import ReplayDivergence, ReproError


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
        "the value table's classes may cross the process boundary"
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


# ----------------------------------------------------------------- stats

def stats_to_wire(stats):
    return tuple(sorted(stats.as_dict().items()))


def stats_from_wire(wire):
    stats = QueryStats()
    for field, value in wire:
        setattr(stats, field, value)
    return stats


# --------------------------------------------------- replay (graph + GCA)

def _failure_to_wire(failure):
    if failure is None:
        return None
    if isinstance(failure, ReplayDivergence):
        return ("divergence", value_to_wire(failure.node), failure.detail)
    return ("error", str(failure))


def _failure_from_wire(wire):
    if wire is None:
        return None
    if wire[0] == "divergence":
        return ReplayDivergence(value_from_wire(wire[1]), wire[2])
    return ReproError(wire[1])


def replay_to_wire(result):
    """Encode a ReplayResult with its retained GCA.

    The graph and the four bookkeeping tables are picklable object
    payloads (pickle's own memo preserves the vertex sharing between
    them); the per-node *machines* are not — they close over compiled
    rules — so they cross as logical snapshots, restored lazily by the
    receiving side's factory on first use. The response is not encoded;
    the coordinator reattaches its own copy.
    """
    gca = result.gca
    if gca is None:
        raise WireError(
            f"replay result for {result.node!r} does not retain its GCA; "
            "cannot cross the process boundary"
        )
    snapshots = dict(gca.machine_snapshots)  # still-unrestored machines
    for node, machine in gca.machines.items():
        snapshots[node] = machine.snapshot()
    return ("W.replay", result.node, gca.graph, dict(gca._pending),
            {n: dict(t) for n, t in gca._ackpend.items()},
            {n: dict(t) for n, t in gca._unacked.items()},
            set(gca._nopreds), snapshots,
            frozenset(gca.known_alarm_msg_ids), gca.t_prop,
            result.events_replayed, result.replay_seconds,
            _failure_to_wire(result.failure))


def replay_from_wire(wire, machine_factory):
    """Rebuild a live, *extendable* ReplayResult from its wire form.

    *machine_factory* is the node's registered application factory; the
    machine snapshots are handed to the GCA for lazy restore (replay only
    ever drives the replayed node's own machine, so one factory covers
    the table — and a view that is never extended never pays the restore).
    The result's ``response`` is left None for the caller to reattach.
    """
    from repro.provgraph.gca import GraphConstructor
    (_tag, node, graph, pending, ackpend, unacked, nopreds, snapshots,
     alarms, t_prop, events_replayed, replay_seconds, failure) = wire
    gca = GraphConstructor(machine_factory, t_prop=t_prop)
    gca.graph = graph
    gca._pending = pending
    gca._ackpend = ackpend
    gca._unacked = unacked
    gca._nopreds = nopreds
    gca.machine_snapshots = dict(snapshots)
    gca.known_alarm_msg_ids = alarms
    return ReplayResult(
        node=node, graph=gca.graph, events_replayed=events_replayed,
        replay_seconds=replay_seconds, response=None,
        failure=_failure_from_wire(failure), gca=gca,
    )


def replay_handle_to_wire(replay):
    """The boundary-crossing form of a base replay: a ResidentReplay
    crosses as just its cache key (node affinity routes the work to the
    worker that owns the state); a live ReplayResult is encoded."""
    if isinstance(replay, ResidentReplay):
        return ("W.residentref", replay.head_index, replay.head_hash)
    return replay_to_wire(replay)


def replay_handle_from_wire(wire, machine_factory):
    if wire[0] == "W.residentref":
        return _ResidentRef(wire[1], wire[2])
    return replay_from_wire(wire, machine_factory)


# ------------------------------------------------ resident replay handles

class ResidentViewLost(ReproError):
    """A worker-resident view is gone (worker died, entry evicted, or the
    resident head moved) — the caller must fall back to a cold build."""


class _ResidentRef:
    """Worker-side marker for a base replay that should be resolved from
    the worker's own resident cache (decoded from ``W.residentref``)."""

    __slots__ = ("head_index", "head_hash")

    def __init__(self, head_index, head_hash):
        self.head_index = head_index
        self.head_hash = head_hash


class ResidentReplay:
    """Coordinator-side handle for a replay owned by a worker process.

    It holds only the replay's cache key — ``(node, head_index,
    head_hash)`` — and reaches the live state through the executor's
    affinity-routed resident ops. Graph reads (``query``) run *in the
    owning worker* and return cloned value vertices, so the coordinator
    never pays the decode; ``materialize`` pulls the full replay over
    only when in-process state is genuinely needed. Every op can raise
    :class:`ResidentViewLost`, the explicit invalidation signal the
    querier answers with a bit-identical cold rebuild.
    """

    __slots__ = ("executor", "node", "head_index", "head_hash",
                 "machine_factory", "response", "_result", "_ops")

    def __init__(self, executor, node, head_index, head_hash,
                 machine_factory=None, response=None):
        self.executor = executor
        self.node = node
        self.head_index = head_index
        self.head_hash = head_hash
        self.machine_factory = machine_factory
        self.response = response
        self._result = None
        self._ops = {}

    @property
    def materialized(self):
        return self._result is not None

    def query(self, op, payload=None):
        """Run a read-only graph op in the owning worker (memoized per
        handle — a handle is specific to one verified head, so results
        can never go stale under it)."""
        key = (op, payload)
        try:
            if key in self._ops:
                return self._ops[key]
        except TypeError:
            key = None
        value = self.executor.resident_op(
            self.node, self.head_index, self.head_hash, op, payload,
        )
        if key is not None:
            self._ops[key] = value
        return value

    def materialize(self):
        """Pull the resident replay's full state into this process."""
        if self._result is None:
            wire = self.executor.resident_op(
                self.node, self.head_index, self.head_hash, "blob",
            )
            result = replay_from_wire(wire, self.machine_factory)
            result.response = self.response
            self._result = result
        return self._result

    @property
    def graph(self):
        return self.materialize().graph

    def invalidate(self):
        """Drop the worker-side entry (fork conviction, GC floor,
        explicit invalidate). Best-effort: a dead worker already lost
        the entry."""
        self._ops = {}
        return self.executor.evict_resident(self.node)


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
