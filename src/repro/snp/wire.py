"""The wire codec: what may cross a process boundary, and how.

A view build's verify+replay step (:mod:`repro.snp.build`) may run in a
worker process (:mod:`repro.snp.resident`). Everything crossing that
boundary — through the pool's own pipe, pickled once per crossing — is
governed by this module's serialization contract (DESIGN.md, "The
executor boundary"):

* **Value objects pickle through their constructors.** ``Tup`` and
  ``Msg`` memoize ``hash()`` of their fields, and per-process hash
  randomization makes those values process-specific — so their
  ``__reduce__`` rebuilds through ``__init__`` and every unpickled
  object is native to the process using it. Bulk payloads (log segments,
  provenance graphs, machine snapshots) ride this at pickle speed.
* **Unpicklable machinery gets an explicit wire form.** State machines
  close over compiled rules — they cross as *snapshots* plus a registry
  spec (:mod:`repro.apps`), rebuilt lazily on the far side; replay's
  retained GCA crosses via :func:`replay_to_wire` /
  :func:`replay_from_wire`; log entries drop the aux keys replay never
  reads (:func:`sanitize_response`).
* **Specs and metadata go through the validating codec.**
  :func:`value_to_wire` / :func:`value_from_wire` encode nested plain
  data and registered value types as tagged builtins, snapshotting
  mutable inputs at encode time; anything else raises
  :class:`WireError`, on encode and on decode alike.

Also here: the *handle* standing for a replay held on the far side
(:class:`ResidentReplay`). No check lives here.
"""

from repro.metrics import QueryStats
from repro.model import Ack, Msg, Tup
from repro.snp.evidence import Authenticator, RetentionFloor
from repro.snp.log import LogEntry, INS, DEL, SND, RCV, ACK, CHK
from repro.snp.replay import ReplayResult
from repro.util.errors import ReplayDivergence, ReproError


class WireError(ReproError):
    """A value cannot be represented on (or decoded from) the wire."""


# ---------------------------------------------------------------- values

_PRIMITIVES = (bool, int, float, str, bytes)

_TUPLE_TAG = "W.t"
_LIST_TAG = "W.l"
_SET_TAG = "W.set"
_FROZENSET_TAG = "W.fset"
_DICT_TAG = "W.d"
_TUP_TAG = "W.tup"
_MSG_TAG = "W.msg"
_ACK_TAG = "W.ack"
_DER_TAG = "W.der"
_AUTH_TAG = "W.auth"
_FLOOR_TAG = "W.floor"


def value_to_wire(value):
    """Encode *value* (a nested structure of builtins and known value
    objects) as tagged plain builtins. Containers are tag-wrapped, so raw
    data that happens to look like a tag cannot be misread: every tuple in
    a wire form was produced by this encoder. Mutable containers are
    snapshotted by the encoding itself."""
    if value is None or isinstance(value, _PRIMITIVES):
        return value
    if isinstance(value, Tup):
        return (_TUP_TAG, value_to_wire(value.relation),
                value_to_wire(value.loc),
                tuple(value_to_wire(a) for a in value.args))
    if isinstance(value, Msg):
        return (_MSG_TAG, value.polarity, value_to_wire(value.tup),
                value_to_wire(value.src), value_to_wire(value.dst),
                value.seq, value.t_sent)
    if isinstance(value, Ack):
        return (_ACK_TAG, value_to_wire(value.src), value_to_wire(value.dst),
                tuple(value_to_wire(m) for m in value.msgs), value.t_sent)
    if isinstance(value, Authenticator):
        return (_AUTH_TAG, value_to_wire(value.node), value.index,
                value.timestamp, value.entry_hash, bytes(value.signature))
    if isinstance(value, RetentionFloor):
        return (_FLOOR_TAG, value_to_wire(value.node), value.floor_index,
                value.floor_time, bytes(value.signature))
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
    # DerivationInstance lives in datalog snapshots; import lazily to keep
    # this module's import footprint small for spawned workers.
    from repro.datalog.store import DerivationInstance
    if isinstance(value, DerivationInstance):
        return (_DER_TAG, value.rule,
                tuple(value_to_wire(s) for s in value.support))
    raise WireError(
        f"cannot wire-encode a {type(value).__name__}: only plain data and "
        "registered value types may cross the process boundary"
    )


def value_from_wire(wire):
    """Rebuild the value :func:`value_to_wire` encoded, constructing every
    value object afresh in the current process. The input may come from
    outside the program (a pusher-supplied app spec): any form the
    encoder cannot have produced raises :class:`WireError`."""
    try:
        return _value_from_wire(wire)
    except (TypeError, ValueError, IndexError) as exc:
        # wrong arity (tuple unpack, missing member list), wrong shape
        # (not iterable) or an unhashable set member / dict key
        raise WireError(f"malformed wire form: {exc}") from None


def _value_from_wire(wire):
    if wire is None or isinstance(wire, _PRIMITIVES):
        return wire
    if isinstance(wire, tuple) and wire:
        tag = wire[0]
        if tag == _TUP_TAG:
            _t, relation, loc, args = wire
            return Tup(_value_from_wire(relation), _value_from_wire(loc),
                       *[_value_from_wire(a) for a in args])
        if tag == _MSG_TAG:
            _t, polarity, tup, src, dst, seq, t_sent = wire
            return Msg(polarity, _value_from_wire(tup), _value_from_wire(src),
                       _value_from_wire(dst), seq, t_sent)
        if tag == _ACK_TAG:
            _t, src, dst, msgs, t_sent = wire
            return Ack(_value_from_wire(src), _value_from_wire(dst),
                       [_value_from_wire(m) for m in msgs], t_sent)
        if tag == _AUTH_TAG:
            _t, node, index, timestamp, entry_hash, signature = wire
            return Authenticator(_value_from_wire(node), index, timestamp,
                                 entry_hash, signature)
        if tag == _FLOOR_TAG:
            _t, node, floor_index, floor_time, signature = wire
            return RetentionFloor(_value_from_wire(node), floor_index,
                                  floor_time, signature)
        if tag == _TUPLE_TAG:
            return tuple(_value_from_wire(v) for v in wire[1])
        if tag == _LIST_TAG:
            return [_value_from_wire(v) for v in wire[1]]
        if tag == _SET_TAG:
            return {_value_from_wire(v) for v in wire[1]}
        if tag == _FROZENSET_TAG:
            return frozenset(_value_from_wire(v) for v in wire[1])
        if tag == _DICT_TAG:
            return {_value_from_wire(k): _value_from_wire(v)
                    for k, v in wire[1]}
        if tag == _DER_TAG:
            from repro.datalog.store import DerivationInstance
            _t, rule, support = wire
            return DerivationInstance(
                rule, tuple(_value_from_wire(s) for s in support)
            )
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
    from repro.snp.snoopy import RetrieveResponse
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
