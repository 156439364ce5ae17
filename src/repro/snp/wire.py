"""The wire layer: what may cross a process boundary, and how.

Process-pool view builds (see DESIGN.md, "Process-pool builds") split a
node's build into a *fetch* step on the coordinator and a *verify+replay*
step that may run in a worker process. Everything crossing that boundary
is governed by this module's serialization contract:

* **Value objects pickle through their constructors.** ``Tup`` and
  ``Msg`` memoize ``hash()`` of their fields at construction, and
  per-process hash randomization makes those values process-specific; an
  instance pickled whole would carry the *coordinator's* hash into a
  worker whose own constructions hash differently — equal keys landing in
  different dict buckets. Their ``__reduce__`` therefore rebuilds through
  ``__init__``, making every unpickled object native to the process using
  it. Bulk payloads (log segments, provenance graphs, machine snapshots)
  ride this contract at native pickle speed.
* **Unpicklable machinery gets an explicit wire form.** Application state
  machines close over compiled rules (guard lambdas) — they cross as
  *snapshots* plus a registry spec (see :mod:`repro.apps`) and are
  rebuilt lazily on the far side. Replay's retained GCA crosses as graph
  + bookkeeping + snapshots via :func:`replay_to_wire` /
  :func:`replay_from_wire`. Log entries drop the aux keys replay never
  reads (:func:`sanitize_response`), so a node-side object like a
  ``WireBatch`` can never drag hidden state across.
* **Specs and metadata go through the validating codec.**
  :func:`value_to_wire` / :func:`value_from_wire` encode nested plain
  data and registered value types as tagged builtins — anything else
  raises :class:`WireError` — and snapshot mutable inputs (e.g. a
  MapReduce content store) at encode time.

Wire-typed here: ``RetrieveResponse``/checkpoints, hash-chain material
(authenticators, chain hashes), ``ReplayResult`` + GCA, ``QueryStats``,
the :class:`BuildWork`/:class:`BuildContext` inputs of the compute step,
and the :class:`CompactOutcome` it hands back.

The compute step itself — :func:`compute_build` — also lives here: it is
a pure function of a work item and a context, mutating only objects the
work item owns, and is the *single* code path every executor (serial,
thread, process) runs, which is what makes the bit-identical
equivalence argument structural rather than statistical.
"""

import pickle
import time
from collections import OrderedDict
from multiprocessing import shared_memory as _shared_memory

from repro.crypto.rsa import RsaKeyPair
from repro.metrics import QueryStats
from repro.model import Ack, Msg, Tup
from repro.snp.evidence import Authenticator, RetentionFloor
from repro.snp.log import LogEntry, INS, DEL, SND, RCV, ACK, CHK
from repro.snp.replay import (
    ReplayResult, check_against_authenticator, extend_replay,
    replay_segment, verify_segment_hashes,
)
from repro.util.errors import (
    AuthenticationError, LogVerificationError, ReplayDivergence, ReproError,
)
from repro.util.serialization import canonical_bytes


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
    value object afresh in the current process."""
    if wire is None or isinstance(wire, _PRIMITIVES):
        return wire
    if isinstance(wire, tuple) and wire:
        tag = wire[0]
        if tag == _TUP_TAG:
            _t, relation, loc, args = wire
            return Tup(value_from_wire(relation), value_from_wire(loc),
                       *[value_from_wire(a) for a in args])
        if tag == _MSG_TAG:
            _t, polarity, tup, src, dst, seq, t_sent = wire
            return Msg(polarity, value_from_wire(tup), value_from_wire(src),
                       value_from_wire(dst), seq, t_sent)
        if tag == _ACK_TAG:
            _t, src, dst, msgs, t_sent = wire
            return Ack(value_from_wire(src), value_from_wire(dst),
                       [value_from_wire(m) for m in msgs], t_sent)
        if tag == _AUTH_TAG:
            _t, node, index, timestamp, entry_hash, signature = wire
            return Authenticator(value_from_wire(node), index, timestamp,
                                 entry_hash, signature)
        if tag == _FLOOR_TAG:
            _t, node, floor_index, floor_time, signature = wire
            return RetentionFloor(value_from_wire(node), floor_index,
                                  floor_time, signature)
        if tag == _TUPLE_TAG:
            return tuple(value_from_wire(v) for v in wire[1])
        if tag == _LIST_TAG:
            return [value_from_wire(v) for v in wire[1]]
        if tag == _SET_TAG:
            return {value_from_wire(v) for v in wire[1]}
        if tag == _FROZENSET_TAG:
            return frozenset(value_from_wire(v) for v in wire[1])
        if tag == _DICT_TAG:
            return {value_from_wire(k): value_from_wire(v)
                    for k, v in wire[1]}
        if tag == _DER_TAG:
            from repro.datalog.store import DerivationInstance
            _t, rule, support = wire
            return DerivationInstance(
                rule, tuple(value_from_wire(s) for s in support)
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
        node=node, graph=gca.graph, machine=None,
        events_replayed=events_replayed, replay_seconds=replay_seconds,
        hashes=None, response=None,
        failure=_failure_from_wire(failure), gca=gca,
    )


class LazyReplay:
    """A worker-produced replay held as its pickled wire blob.

    Decoding a replayed graph is coordinator-side (GIL-serialized) work,
    and a standing auditor's queries touch only a fraction of its views —
    so the coordinator defers the decode until something actually reads
    the view (a microquery resolving into it).
    """

    __slots__ = ("blob", "machine_factory", "response", "_result")

    def __init__(self, blob, machine_factory, response=None):
        self.blob = blob
        self.machine_factory = machine_factory
        self.response = response
        self._result = None

    def materialize(self):
        if self._result is None:
            result = replay_from_wire(pickle.loads(self.blob),
                                      self.machine_factory)
            result.response = self.response
            self._result = result
        return self._result

    @property
    def graph(self):
        return self.materialize().graph


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


# ------------------------------------------------- shared-memory transport

#: Payloads below this size ship inline through the pool's own pickle
#: pipe; the fixed cost of creating + attaching a shm segment only pays
#: off for bulk payloads (provenance graph snapshots, long log segments).
SHM_MIN_BYTES = 32 * 1024


def _shm_untrack(shm):
    """Drop *shm* from this process's resource tracker.

    Creating *and* attaching both register a segment with the per-process
    resource tracker, which warns about (and unlinks) everything still
    registered at interpreter exit. Our protocol instead unlinks each
    segment explicitly, exactly once, by whichever side owns the read —
    so every helper here balances its registration out immediately.
    """
    try:
        from multiprocessing import resource_tracker
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


def shm_publish(data):
    """Create a shared-memory segment holding *data*; returns its name.
    Untracked: destruction is the explicit protocol's job, not the
    resource tracker's."""
    shm = _shared_memory.SharedMemory(create=True, size=max(1, len(data)))
    shm.buf[:len(data)] = data
    shm.close()
    _shm_untrack(shm)
    return shm.name


def shm_read(name, size, unlink=False):
    """Read *size* bytes from segment *name*; with ``unlink=True`` the
    reader owns the segment and destroys it after the read."""
    shm = _shared_memory.SharedMemory(name=name)
    try:
        data = bytes(shm.buf[:size])
    finally:
        shm.close()
        if unlink:
            try:
                shm.unlink()  # also unregisters from the tracker
            except FileNotFoundError:
                _shm_untrack(shm)
        else:
            _shm_untrack(shm)
    return data


class ShmArena:
    """Coordinator-side registry of the shm segments it has published.

    ``publish`` creates a segment for one payload; ``release`` unlinks it
    (normally: after the consuming worker's future resolved). ``close``
    unlinks everything still live — builds that died between submit and
    collect must not leak segments past the executor's lifetime.
    """

    def __init__(self):
        import threading
        self._lock = threading.Lock()
        self._live = set()

    def publish(self, data):
        name = shm_publish(data)
        with self._lock:
            self._live.add(name)
        return name

    def release(self, name):
        with self._lock:
            if name not in self._live:
                return
            self._live.remove(name)
        self._destroy(name)

    def close(self):
        with self._lock:
            names, self._live = self._live, set()
        for name in names:
            self._destroy(name)

    @staticmethod
    def _destroy(name):
        try:
            shm = _shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            return
        shm.close()
        try:
            shm.unlink()  # also unregisters from the tracker
        except FileNotFoundError:
            _shm_untrack(shm)


def ship_payload(data, arena):
    """Coordinator → worker: wrap pre-pickled *data* for submission.

    Bulk payloads go through the arena (the pool's pipe then carries only
    the segment name); small ones ride the pipe inline. Returns
    ``(payload, shm_name, shm_bytes)`` — *shm_name* (or None) is what the
    caller must release after the worker's future resolves.
    """
    if len(data) >= SHM_MIN_BYTES:
        name = arena.publish(data)
        return ("W.shmref", name, len(data)), name, len(data)
    return ("W.blob", data), None, 0


def _load_shipped(payload):
    """Worker side: decode a :func:`ship_payload` payload to bytes."""
    tag = payload[0]
    if tag == "W.shmref":
        return shm_read(payload[1], payload[2], unlink=False)
    if tag == "W.blob":
        return payload[1]
    raise WireError(f"unrecognized shipped payload {tag!r}")


def _ship_result(data):
    """Worker → coordinator: wrap pre-pickled result bytes.

    The worker creates (and immediately untracks) the segment; the
    coordinator reads it once with ``unlink=True`` — worker-owned
    segments are single-shot, so no registry is needed."""
    if len(data) >= SHM_MIN_BYTES:
        # The creating worker never unlinks: ownership passes to the
        # coordinator with the name.
        return ("W.shmblob", shm_publish(data), len(data))
    return ("W.resultblob", data)


def collect_result(shipped):
    """Coordinator side: decode a :func:`_ship_result` payload.

    Returns ``(data, shm_bytes)`` where *shm_bytes* is how much of it
    crossed through shared memory (for ``QueryStats.shm_bytes``)."""
    tag = shipped[0]
    if tag == "W.shmblob":
        return shm_read(shipped[1], shipped[2], unlink=True), shipped[2]
    if tag == "W.resultblob":
        return shipped[1], 0
    raise WireError(f"unrecognized result payload {tag!r}")


# ----------------------------------------------------- resident view plane

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

    Where :class:`LazyReplay` holds the *bytes* of a worker-built replay,
    this holds only its cache key — ``(node, head_index, head_hash)`` —
    and reaches the live state through the executor's affinity-routed
    resident ops. Graph reads (``query``) run *in the owning worker* and
    return cloned value vertices, so the coordinator never pays the
    decode; ``materialize`` pulls the full blob over (shared memory for
    bulk) only when in-process state is genuinely needed. Every op can
    raise :class:`ResidentViewLost`, the explicit invalidation signal the
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

    def query(self, op, payload=None, stats=None):
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
            stats=stats,
        )
        if key is not None:
            self._ops[key] = value
        return value

    def materialize(self, stats=None):
        """Pull the resident replay's full state into this process."""
        if self._result is None:
            blob = self.executor.resident_op(
                self.node, self.head_index, self.head_hash, "blob", None,
                stats=stats,
            )
            result = replay_from_wire(pickle.loads(blob),
                                      self.machine_factory)
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
        evict = getattr(self.executor, "evict_resident", None)
        if evict is None:
            return False
        return evict(self.node)


# ----------------------------------------------------------- build context

class BuildContext:
    """The one-time per-pool context of the verify+replay step.

    Everything the compute step may consult beyond its work item: the
    querier's public-key table, the embedded-signature flag, and the
    deployment's Tprop bound for replay. Factories are *not* part of the
    context — a work item carries either a live factory (in-process
    executors) or a registry spec (process pool, resolved per work item so
    e.g. a refreshed content store is never stale).
    """

    __slots__ = ("public_keys", "verify_embedded_signatures", "t_prop",
                 "_factory_cache")

    def __init__(self, public_keys, verify_embedded_signatures=True,
                 t_prop=1.0):
        self.public_keys = public_keys
        self.verify_embedded_signatures = verify_embedded_signatures
        self.t_prop = t_prop
        self._factory_cache = {}

    def to_wire(self):
        keys = tuple(sorted(
            ((value_to_wire(node), key.n, key.e)
             for node, key in self.public_keys.items()),
            key=repr,
        ))
        return ("W.ctx", keys, bool(self.verify_embedded_signatures),
                self.t_prop)

    @classmethod
    def from_wire(cls, wire):
        _tag, keys, verify_embedded, t_prop = wire
        return cls(
            {value_from_wire(node): RsaKeyPair(n, e) for node, n, e in keys},
            verify_embedded_signatures=verify_embedded, t_prop=t_prop,
        )

    def factory_for(self, node, app_spec):
        """Resolve a registry spec to a factory (cached per spec)."""
        if app_spec is None:
            raise WireError(
                f"no application spec for node {node!r}; register its "
                "factory (repro.apps.AppFactory) to build views in a "
                "process pool"
            )
        try:
            cached = self._factory_cache.get(app_spec)
        except TypeError:  # unhashable spec — resolve uncached
            cached = None
        if cached is not None:
            return cached
        from repro.apps import factory_from_spec
        factory = factory_from_spec(app_spec)
        try:
            self._factory_cache[app_spec] = factory
        except TypeError:
            pass
        return factory


# --------------------------------------------------------------- the work

class BuildWork:
    """One node's verify+replay inputs, assembled by the fetch step.

    Owns every mutable object it references (the response, the base
    replay) for the duration of the compute step. ``known`` is the
    node's checked-authenticator memo snapshot; ``held`` the frozen
    evidence-store prefix; ``pending`` the skipped authenticators awaiting
    a wider segment; ``consistency`` the evidence collected from peers
    (None when the consistency check is disabled); ``alarms`` the
    maintainer's known-missing-ack message ids. For extends, ``head_index``
    / ``head_hash`` anchor the suffix and ``base_replay`` is the retained
    replay to advance. ``factory`` is the live application factory;
    ``app_spec`` its registry form (resolved on the far side of a process
    boundary). ``floor`` is the node's advertised retention floor (0 =
    never advertised): evidence below it is tombstoned (permanently
    uncheckable — the prefix is GC'd) instead of left pending, and with
    ``floor_strict`` (a full build that asked for the untruncated log) a
    direct response anchored *above* the floor convicts the node of
    over-truncation.
    """

    __slots__ = ("node", "kind", "response", "known", "held", "pending",
                 "consistency", "alarms", "head_index", "head_hash",
                 "base_replay", "factory", "app_spec", "spec_cache",
                 "floor", "floor_strict")

    def __init__(self, node, kind, response, known=frozenset(), held=(),
                 pending=(), consistency=None, alarms=frozenset(),
                 head_index=0, head_hash=None, base_replay=None,
                 factory=None, app_spec=None, spec_cache=None,
                 floor=0, floor_strict=False):
        self.floor = floor
        self.floor_strict = floor_strict
        self.node = node
        self.kind = kind
        self.response = response
        self.known = known
        self.held = tuple(held)
        self.pending = tuple(pending)
        self.consistency = consistency
        self.alarms = alarms
        self.head_index = head_index
        self.head_hash = head_hash
        self.base_replay = base_replay
        self.factory = factory
        self.app_spec = app_spec
        #: Batch-scoped memo of factory → encoded spec (the deployment is
        #: quiescent during a batch, so one snapshot of e.g. a MapReduce
        #: content store serves every node sharing the factory).
        self.spec_cache = spec_cache

    def resolve_factory(self, context):
        if self.factory is not None:
            return self.factory
        return context.factory_for(self.node, self.app_spec)

    def to_wire(self):
        app_spec = self.app_spec
        if app_spec is None and self.factory is not None:
            cache = self.spec_cache
            if cache is not None:
                app_spec = cache.get(id(self.factory))
        if app_spec is None and self.factory is not None:
            wire_spec = getattr(self.factory, "wire_spec", None)
            if wire_spec is None:
                raise WireError(
                    f"the application factory for node {self.node!r} is "
                    "not registry-backed; hand Deployment.add_node a "
                    "repro.apps.AppFactory (or register_app) to build "
                    "views in a process pool"
                )
            app_spec = wire_spec()
            if self.spec_cache is not None:
                self.spec_cache[id(self.factory)] = app_spec
        return ("W.work", self.node, self.kind,
                sanitize_response(self.response),
                frozenset(self.known), tuple(self.held),
                tuple(self.pending),
                None if self.consistency is None
                else tuple(self.consistency),
                frozenset(self.alarms),
                self.head_index, self.head_hash,
                None if self.base_replay is None
                else replay_handle_to_wire(self.base_replay),
                app_spec, self.floor, self.floor_strict)

    @classmethod
    def from_wire(cls, wire, context):
        (_tag, node, kind, response, known, held, pending, consistency,
         alarms, head_index, head_hash, base_replay, app_spec,
         floor, floor_strict) = wire
        work = cls(
            node, kind, response, known=known, held=held, pending=pending,
            consistency=consistency, alarms=alarms,
            head_index=head_index, head_hash=head_hash, app_spec=app_spec,
            floor=floor, floor_strict=floor_strict,
        )
        if base_replay is not None:
            work.base_replay = replay_handle_from_wire(
                base_replay, work.resolve_factory(context)
            )
        return work


# ------------------------------------------------------------ the outcome

class CompactOutcome:
    """One node's build/extend result: what the verify+replay step hands
    back (possibly across the worker boundary) and what finalize commits.

    The compute step fills in a status (``ok`` / ``verify-failed`` /
    ``replay-failed``) plus only value data — recomputed chain hashes,
    the checked / recovered / newly-skipped authenticator evidence,
    per-task QueryStats, and the (possibly extended) replay — and that is
    all :meth:`to_wire` ships. On the coordinator the build job's
    ``absorb`` then annotates the same object with the fetch step's
    bookkeeping (the coordinator-only slots below), identically whether
    the outcome was produced in-process or decoded from a worker.
    ``kind``:

    * ``built`` — a full build verified and replayed; the ``ok`` view is
      created during finalize, after the deferred evidence-store checks;
    * ``extended`` — an ``ok`` view (``base_view``) was advanced by a
      verified delta; finalize runs the evidence checks, then commits the
      new head and harvests;
    * ``final`` (coordinator only) — ``view`` is already decided
      (unreachable, proven faulty, or a kept stale view); nothing left
      but to commit it.
    """

    __slots__ = ("node", "kind", "status", "reason", "hashes", "checked",
                 "recovered", "skipped", "tombstoned", "stats",
                 "replay_result", "replay_ran", "resident_head",
                 # coordinator-only (never shipped):
                 "view", "base_view", "response", "cursor", "from_mirror",
                 "reset_memo", "evidence_prefix")

    OK = "ok"
    VERIFY_FAILED = "verify-failed"
    REPLAY_FAILED = "replay-failed"
    #: Resident executors only: the work referenced a worker-resident base
    #: replay the worker no longer holds (evicted, respawned, or at a
    #: different head). The coordinator falls back to a cold build.
    CACHE_MISS = "cache-miss"

    def __init__(self, node, kind):
        self.node = node
        self.kind = kind
        self.status = self.OK
        self.reason = None
        self.hashes = None
        self.checked = {}
        self.recovered = []
        self.skipped = []
        # Pending-skip signatures proven permanently uncheckable: they
        # fall below the node's advertised retention floor, whose prefix
        # GC discarded — the registry drains them (see microquery).
        self.tombstoned = []
        self.stats = None
        self.replay_result = None
        #: Whether replay advanced over suffix entries — for extends this
        #: means the base replay is no longer at its committed head, so a
        #: view kept on a failure path must not stay extendable.
        self.replay_ran = False
        #: Resident executors: ``(head_index, head_hash)`` of the replay
        #: now held in the worker's resident cache. Set instead of
        #: shipping the replay blob — the coordinator wraps it in a
        #: :class:`ResidentReplay` handle.
        self.resident_head = None
        self.view = None
        self.base_view = None
        self.response = None
        self.cursor = None
        self.from_mirror = False
        self.reset_memo = False
        #: How many of this node's evidence-store entries the compute step
        #: already checked (the store is frozen while jobs run); finalize
        #: checks only the tail harvested later in the batch.
        self.evidence_prefix = 0

    def to_wire(self):
        replay_blob = None
        if self.replay_result is not None:
            # Pre-pickled in the worker so the coordinator's (single,
            # GIL-bound) result thread only has to move bytes; the
            # decode is deferred until a query touches the view.
            replay_blob = pickle.dumps(
                replay_handle_to_wire(self.replay_result)
            )
        return ("W.outcome", self.node, self.kind, self.status, self.reason,
                None if self.hashes is None else tuple(self.hashes),
                tuple(sorted(self.checked.items())), tuple(self.recovered),
                tuple(self.skipped), tuple(self.tombstoned),
                stats_to_wire(self.stats), replay_blob, self.replay_ran,
                self.resident_head)

    @classmethod
    def from_wire(cls, wire, machine_factory):
        (_tag, node, kind, status, reason, hashes, checked, recovered,
         skipped, tombstoned, stats, replay_blob, replay_ran,
         resident_head) = wire
        outcome = cls(node, kind)
        outcome.status = status
        outcome.reason = reason
        outcome.hashes = None if hashes is None else list(hashes)
        outcome.checked = dict(checked)
        outcome.recovered = list(recovered)
        outcome.skipped = list(skipped)
        outcome.tombstoned = list(tombstoned)
        outcome.stats = stats_from_wire(stats)
        if replay_blob is not None:
            outcome.replay_result = LazyReplay(replay_blob, machine_factory)
        outcome.replay_ran = replay_ran
        outcome.resident_head = resident_head
        return outcome


# ------------------------------------------------------- the compute step

def verify_auth(public_key, auth, stats):
    """Signature check with accounting (Figure 8's verification cost)."""
    stats.signatures_verified += 1
    if not public_key.verify(canonical_bytes(auth.payload()),
                             auth.signature):
        raise AuthenticationError(
            f"authenticator from {auth.node!r} has an invalid signature"
        )


def note_checked(checked, response, auth):
    """Memoize an authenticator that was actually compared against the
    verified chain (not one merely skipped as pre-anchor): a later refresh
    extends the same chain, so the comparison stays valid. Notes land in
    the outcome-local dict (signature → entry index, so the querier can
    later evict memos that fell below a verified head) and are committed
    to the querier's memo only when the view finalizes ``ok``."""
    first = response.start_index
    last = first + len(response.entries) - 1
    if first - 1 <= auth.index <= last:
        checked[bytes(auth.signature)] = auth.index


def verify_checkpoint(node_id, chk_entry):
    """Verify the checkpoint's tuple lists against the Merkle roots
    committed in the log entry (Section 7.7: the Quagga-Disappear query
    spends most of its time 'verifying partial checkpoints using a Merkle
    Hash Tree'). A mismatch means the node's replay seed does not match
    what it committed to — proof of tampering."""
    from repro.crypto.merkle import MerkleTree
    _tag, local_root, belief_root, n_local, n_believed = chk_entry.content
    extant = chk_entry.aux.get("extant", [])
    believed = chk_entry.aux.get("believed", [])
    if len(extant) != n_local or len(believed) != n_believed:
        raise LogVerificationError(
            node_id, "checkpoint tuple counts do not match commitment"
        )
    local_tree = MerkleTree(
        [(tup.canonical(), appeared) for tup, appeared in extant]
    )
    belief_tree = MerkleTree(
        [(tup.canonical(), peer, appeared)
         for tup, peer, appeared in believed]
    )
    if local_tree.root() != local_root \
            or belief_tree.root() != belief_root:
        raise LogVerificationError(
            node_id, "checkpoint contents fail Merkle verification"
        )


def _verify_embedded(node_id, response, context, stats):
    for entry in response.entries:
        if entry.entry_type == RCV:
            auth = entry.aux.get("batch_auth")
            if auth is None:
                raise LogVerificationError(
                    node_id, f"rcv entry {entry.index} lacks evidence"
                )
            verify_auth(context.public_keys[auth.node], auth, stats)
        elif entry.entry_type == ACK:
            wire_ack = entry.aux.get("wire_ack")
            if wire_ack is None:
                raise LogVerificationError(
                    node_id, f"ack entry {entry.index} lacks evidence"
                )
            verify_auth(context.public_keys[wire_ack.src], wire_ack.auth,
                        stats)


def _verify_response(work, context, stats, outcome):
    """The node-local checks that can *prove* the node faulty.

    1. The fresh head authenticator must be validly signed and match the
       recomputed hash chain.
    2. Every evidence authenticator the querier already held for this node
       (the frozen store prefix in ``work.held``) must lie on the returned
       chain; evidence already verified on this same chain (``work.known``
       ∪ checked-this-pass) is neither re-verified nor re-counted.
    3. Pending skipped authenticators (below an earlier partial-segment
       anchor) are retroactively checked when this segment reaches far
       enough back; recovered ones are reported so the registry drains.
    4. Embedded authenticators in rcv/ack entries must carry valid
       signatures from their claimed signers.
    5. Consistency check (Section 5.5): evidence peers hold about this
       node must lie on the same chain; new below-anchor skips are
       reported for the pending registry — except those below the node's
       advertised retention floor *and* the segment anchor, which are
       tombstoned (the prefix is GC'd; no future segment can ever check
       them).
    6. An attached checkpoint must *anchor* the returned segment
       (``checkpoint.index + 1 == start_index`` and ``start_hash`` equal
       to the checkpoint's own chain hash) — otherwise the responder is
       pairing a stale snapshot with a different suffix, which would
       silently corrupt checkpoint-seeded replay.
    7. Retention coverage: a full build that asked for the untruncated
       log but got a direct response anchored *above* the node's signed
       retention floor proves the node truncated below what it
       advertised.

    Returns the recomputed chain hashes aligned with the entries.
    """
    node_id = work.node
    response = work.response
    public_key = context.public_keys[node_id]
    if response.checkpoint is not None:
        chk = response.checkpoint
        if chk.index + 1 != response.start_index \
                or chk.entry_hash != response.start_hash:
            raise LogVerificationError(
                node_id,
                f"attached checkpoint (entry {chk.index}) does not anchor "
                f"the returned segment starting at {response.start_index} "
                "— the replay seed and the suffix belong to different "
                "prefixes",
            )
    if work.floor and work.floor_strict and work.kind == "built" \
            and not response.from_mirror:
        # The anchor claim is start_index - 1; a lie about it cannot
        # evade conviction: the chain recomputation from the claimed
        # start_hash up to the *signed* head authenticator fails unless
        # the anchor is genuine.
        anchor = response.start_index - 1
        if anchor > work.floor:
            raise LogVerificationError(
                node_id,
                f"log served from entry {anchor + 1} cannot anchor at the "
                f"advertised retention floor {work.floor} — the node "
                "truncated below what it signed (retention violation)",
            )
    verify_auth(public_key, response.head_auth, stats)
    hashes = verify_segment_hashes(response)
    check_against_authenticator(response, hashes, response.head_auth, stats)
    for auth in work.held:
        sig = bytes(auth.signature)
        if sig in work.known or sig in outcome.checked:
            continue
        check_against_authenticator(response, hashes, auth, stats)
        note_checked(outcome.checked, response, auth)
    first = response.start_index
    for auth in work.pending:
        sig = bytes(auth.signature)
        if sig in work.known or sig in outcome.checked:
            outcome.recovered.append(sig)  # verified on this chain already
            continue
        if auth.index < first - 1:
            # Below this segment's anchor: the response in hand cannot
            # check it. Below the node's signed retention floor too, no
            # *future* segment ever will — drain the registry entry (the
            # coverage loss stays visible); otherwise it stays pending.
            if work.floor and auth.index < work.floor:
                stats.auth_checks_tombstoned += 1
                outcome.tombstoned.append(sig)
            continue
        check_against_authenticator(response, hashes, auth, stats)
        stats.auth_checks_recovered += 1
        outcome.recovered.append(sig)
        note_checked(outcome.checked, response, auth)
    if response.checkpoint is not None:
        verify_checkpoint(node_id, response.checkpoint)
    if context.verify_embedded_signatures:
        _verify_embedded(node_id, response, context, stats)
    if work.consistency is not None:
        def on_skip(auth):
            if work.floor and auth.index < work.floor:
                # Below the GC'd prefix: never checkable by any later
                # build — tombstone instead of pending forever.
                stats.auth_checks_tombstoned += 1
                return
            outcome.skipped.append(auth)
        for auth in work.consistency:
            sig = bytes(auth.signature)
            if sig in work.known or sig in outcome.checked:
                continue  # verified on this same chain in an earlier pass
            try:
                verify_auth(public_key, auth, stats)
            except AuthenticationError:
                continue  # not actually signed by node_id; ignore
            check_against_authenticator(response, hashes, auth, stats,
                                        on_skip=on_skip)
            note_checked(outcome.checked, response, auth)
    return hashes


def compute_build(work, context):
    """The verify+replay step: a pure function of (work, context).

    Mutates only objects the work item owns (for extends, the base
    replay). Every executor — serial, threaded, process — funnels
    through this one function, so scheduling can never change
    what is computed. Expected fault conditions become a status on the
    returned :class:`CompactOutcome`; only genuinely unexpected errors
    propagate.
    """
    stats = QueryStats()
    outcome = CompactOutcome(work.node, work.kind)
    outcome.stats = stats
    response = work.response
    started = time.perf_counter()
    try:
        if work.kind == "extended" \
                and response.start_hash != work.head_hash:
            raise LogVerificationError(
                work.node,
                f"suffix after entry {work.head_index} does not "
                "continue the verified chain (fork after cached head)",
            )
        outcome.hashes = _verify_response(work, context, stats, outcome)
    except (LogVerificationError, AuthenticationError) as exc:
        stats.auth_check_seconds += time.perf_counter() - started
        outcome.status = CompactOutcome.VERIFY_FAILED
        outcome.reason = str(exc)
        return outcome
    stats.auth_check_seconds += time.perf_counter() - started

    if work.kind == "extended":
        if not response.entries:
            # Nothing appended; the fresh head authenticator was checked
            # against the cached head hash above, confirming no fork.
            return outcome
        outcome.replay_ran = True
        _processed, _elapsed, failure = extend_replay(
            work.node, work.base_replay, response,
            known_alarm_msg_ids=work.alarms, stats=stats,
        )
        outcome.replay_result = work.base_replay
        if failure is not None:
            outcome.status = CompactOutcome.REPLAY_FAILED
            outcome.reason = str(failure)
        return outcome

    outcome.replay_ran = True
    result = replay_segment(
        work.node, response, work.resolve_factory(context),
        t_prop=context.t_prop, known_alarm_msg_ids=work.alarms, stats=stats,
    )
    outcome.replay_result = result
    if not result.ok:
        outcome.status = CompactOutcome.REPLAY_FAILED
        outcome.reason = str(result.failure)
    return outcome


# ------------------------------------------------------- process-pool side

_POOL_CONTEXT = None
#: This worker's view cache, an LRU-ordered ``{node: _ResidentEntry}``
#: bounded to ``_RESIDENT_CAP`` entries (None = unbounded).
_RESIDENT = OrderedDict()
_RESIDENT_CAP = None


def init_worker_process(context_wire, resident_cap=None):
    """Per-pool initializer: decode the one-time context once per worker
    and bound its view cache to *resident_cap* entries."""
    global _POOL_CONTEXT, _RESIDENT_CAP
    _POOL_CONTEXT = BuildContext.from_wire(context_wire)
    _RESIDENT_CAP = resident_cap


def warm_worker(seconds):
    """A placeholder task used to force a pool's workers to spawn (and run
    their initializer) ahead of the first real batch."""
    time.sleep(seconds)
    return True


# ----------------------------------------------- resident pool worker side

class _ResidentEntry:
    """One worker-owned view: the live replay plus the verified head it is
    parked at. ``app_spec`` is the factory registry spec the entry's machines were
    built from: factories are resolved per work item (a refreshed
    content store must never be stale), so an extend whose work carries
    a *different* spec rebinds the machines first (see
    :func:`_rebind_machines`).
    """

    __slots__ = ("result", "head_index", "head_hash", "app_spec")

    def __init__(self, result, head_index, head_hash, app_spec=None):
        self.result = result
        self.head_index = head_index
        self.head_hash = head_hash
        self.app_spec = app_spec


def _response_head(response, hashes):
    """(head_index, head_hash) a verified response advances a view to —
    must mirror how the coordinator's finalize computes the view head."""
    if response.entries:
        return response.start_index + len(response.entries) - 1, hashes[-1]
    return response.start_index - 1, response.start_hash


def _rebind_machines(result, factory):
    """Re-found *result*'s state machines on *factory*.

    Factory-supplied environments (e.g. a MapReduce content store that
    grew since the build) must always be current. A resident replay keeps
    its live machines across work items, so when a work item arrives with
    a different factory spec the machines are snapshot-restored through
    the new factory — bit-identical by the checkpoint determinism
    contract, exactly the path ``replay_from_wire`` takes.
    """
    gca = result.gca
    gca.machine_factory = factory
    for node, machine in list(gca.machines.items()):
        fresh = factory(node)
        fresh.restore(machine.snapshot())
        gca.machines[node] = fresh
    result.machine = gca.machines.get(result.node)


def _resident_extend(work):
    """Run an extend whose base replay lives in this worker's cache."""
    ref = work.base_replay
    entry = _RESIDENT.get(work.node)
    if entry is None or entry.head_index != ref.head_index \
            or entry.head_hash != ref.head_hash:
        outcome = CompactOutcome(work.node, work.kind)
        outcome.status = CompactOutcome.CACHE_MISS
        outcome.reason = (
            f"no resident replay for {work.node!r} at entry "
            f"{ref.head_index}"
        )
        outcome.stats = QueryStats()
        return outcome
    _RESIDENT.move_to_end(work.node)
    if entry.app_spec != work.app_spec:
        _rebind_machines(entry.result,
                         work.resolve_factory(_POOL_CONTEXT))
        entry.app_spec = work.app_spec
    work.base_replay = entry.result
    outcome = compute_build(work, _POOL_CONTEXT)
    outcome.stats.view_cache_hits += 1
    if outcome.status == CompactOutcome.OK:
        if outcome.replay_ran:
            # Extended in place: the entry moves to the new verified
            # head and the extended replay stays put.
            entry.head_index, entry.head_hash = _response_head(
                work.response, outcome.hashes
            )
        outcome.replay_result = None
        outcome.resident_head = (entry.head_index, entry.head_hash)
    elif outcome.status == CompactOutcome.VERIFY_FAILED:
        # Verification precedes replay: the entry is still exactly at its
        # committed head and stays resident (a kept-stale view can extend
        # it later).
        outcome.resident_head = (entry.head_index, entry.head_hash)
    else:
        # REPLAY_FAILED: the resident state advanced past its committed
        # head into a failed replay — poisoned for extension. Ship the
        # failed replay (the proven-faulty view keeps it as evidence) and
        # drop the entry.
        _RESIDENT.pop(work.node, None)
    return outcome


def _adopt_build(work, outcome):
    """Park a fresh (or wire-carried extended) ``ok`` build in the
    resident cache (LRU-evicting over the cap) and strip the outbound
    blob: later refreshes ship heads."""
    if outcome.status != CompactOutcome.OK:
        return
    result = outcome.replay_result
    if result is None:
        return  # e.g. an empty wire-carried extend: nothing newly built
    head_index, head_hash = _response_head(work.response, outcome.hashes)
    _RESIDENT[work.node] = _ResidentEntry(result, head_index, head_hash,
                                          work.app_spec)
    _RESIDENT.move_to_end(work.node)
    if _RESIDENT_CAP is not None:
        while len(_RESIDENT) > _RESIDENT_CAP:
            _RESIDENT.popitem(last=False)
            outcome.stats.view_cache_evictions += 1
    outcome.replay_result = None
    outcome.resident_head = (head_index, head_hash)


def compute_build_resident_wire(payload):
    """The resident pool's build entry point: a shipped (possibly
    shm-borne) work payload in, a shipped outcome out, with this worker's
    view cache consulted and updated along the way."""
    if _POOL_CONTEXT is None:
        raise WireError("worker process was not initialized with a context")
    work_wire = pickle.loads(_load_shipped(payload))
    work = BuildWork.from_wire(work_wire, _POOL_CONTEXT)
    if isinstance(work.base_replay, _ResidentRef):
        outcome = _resident_extend(work)
    else:
        # Any build that runs without a resident base — cold full builds
        # and wire-carried extends alike — is a cache miss; this is the
        # single place misses are counted, so fallback rebuilds after a
        # lost entry tally exactly once.
        outcome = compute_build(work, _POOL_CONTEXT)
        outcome.stats.view_cache_misses += 1
        _adopt_build(work, outcome)
    return _ship_result(pickle.dumps(outcome.to_wire()))


def resident_op_wire(request):
    """An affinity-routed read against this worker's resident cache.

    ``request`` is ``(node, head_index, head_hash, op, payload)``. Graph
    reads return *cloned* value vertices (clones pickle under the
    constructor-rebuilding contract; graph-member vertices must never
    leave the worker). A missing entry — or one parked at a different
    head — answers ``W.lost``, which the coordinator raises as
    :class:`ResidentViewLost`.
    """
    node, head_index, head_hash, op, payload = request
    if op == "evict":
        return ("W.opres", _RESIDENT.pop(node, None) is not None)
    entry = _RESIDENT.get(node)
    if entry is None or entry.head_index != head_index \
            or entry.head_hash != head_hash:
        return ("W.lost",)
    _RESIDENT.move_to_end(node)
    if op == "blob":
        return _ship_result(pickle.dumps(replay_to_wire(entry.result)))
    from repro.provgraph.graph import _clone_vertex
    graph = entry.result.graph
    if op == "get":
        vertex = graph.get(payload)
        value = None if vertex is None else _clone_vertex(vertex)
    elif op == "around":
        vertex = graph.get(payload)
        if vertex is None:
            value = None
        else:
            value = (
                _clone_vertex(vertex),
                [_clone_vertex(p) for p in graph.predecessors(vertex)],
                [_clone_vertex(s) for s in graph.successors(vertex)],
            )
    elif op == "find_all":
        vtype, vnode, tup = payload
        value = [_clone_vertex(v)
                 for v in graph.find_all(vtype=vtype, node=vnode, tup=tup)]
    else:
        raise WireError(f"unknown resident op {op!r}")
    return ("W.opres", value)
