"""Per-layer tracer, installed from outside the program.

:class:`Tracer` wraps the fixed table of entry points in :data:`ENTRY_POINTS`
at run time and takes the wrappers off again in :meth:`Tracer.uninstall`;
nothing under ``src/`` knows it exists. A module-level function is wrapped
by rebinding every ``repro.*`` module attribute that *is* the original
function (so ``from x import f`` aliases are caught); a method is wrapped
on its class.

Every wrapped call pushes a frame on a context-local stack (a
``ContextVar``: one stack per thread and per asyncio task, so the daemon's
coroutines cannot corrupt each other's parents). On return the frame's
duration is added to its parent's child time, and

* ``self time = duration - child time`` goes to the entry point's layer;
* entry points marked ``span=True`` (the coarse ones: a query, a view
  build, a push) also record a span ``(id, parent, name, start, end,
  kind, sample, thread)``; hot leaves only accumulate count and seconds.

Wrappers record only while a timed region is open (:meth:`Tracer.begin` /
:meth:`Tracer.end`), so key generation, correctness gates and the
reference probe never show up in a layer budget.
"""

import gc
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from contextvars import ContextVar

_perf = time.perf_counter

#: Engine counters read off the state machine around every engine call.
ENGINE_COUNTERS = ("join_candidates", "guard_prunes", "delta_tuples_out",
                   "retractions_applied", "support_rederivations")
#: ``QueryStats`` fields a traced run sums over its audit ops.
QUERY_STAT_FIELDS = ("logs_fetched", "delta_fetches", "log_bytes",
                     "events_replayed", "signatures_verified",
                     "auth_checks_skipped")


def _len_of_result(_args, result):
    return len(result)


def _int_result(_args, result):
    return result


def _len_of_data_arg(args, _result):
    return len(args[1])


class EntryPoint:
    """One row of the table: where the function lives and what it feeds.

    *layer* gets ``self_s`` and ``calls``; *sub*, when set, also gets
    ``<layer>.<sub>_s`` and ``<layer>.<sub>_calls``. *nbytes* maps
    ``(args, result)`` to a byte count for ``<layer>.bytes``.
    """

    def __init__(self, layer, target, span=False, sub=None, nbytes=None,
                 engine=False):
        self.layer = layer
        self.module, self.qualname = target.split(":")
        self.span = span
        self.sub = sub
        self.nbytes = nbytes
        self.engine = engine

    @property
    def name(self):
        return f"{self.layer}:{self.qualname}"


_ep = EntryPoint


#: The fixed table. Order matters only for readability.
ENTRY_POINTS = [
    # canonical encoding (the hottest leaf of an audit)
    _ep("util.serialization", "repro.util.serialization:canonical_bytes",
        nbytes=_len_of_result),
    _ep("util.serialization", "repro.util.serialization:canonical_size",
        nbytes=_int_result),
    # NDlog engine
    _ep("datalog.engine", "repro.datalog.engine:DatalogApp.handle_insert",
        engine=True),
    _ep("datalog.engine", "repro.datalog.engine:DatalogApp.handle_delete",
        engine=True),
    _ep("datalog.engine", "repro.datalog.engine:DatalogApp.handle_receive",
        engine=True),
    # provenance graph
    _ep("provgraph.gca", "repro.provgraph.gca:GraphConstructor.process"),
    _ep("provgraph.graph", "repro.provgraph.graph:ProvenanceGraph.add_vertex"),
    _ep("provgraph.graph", "repro.provgraph.graph:ProvenanceGraph.add_edge"),
    _ep("provgraph.graph",
        "repro.provgraph.graph:ProvenanceGraph.open_interval"),
    _ep("provgraph.graph",
        "repro.provgraph.graph:ProvenanceGraph.close_interval"),
    _ep("provgraph.graph", "repro.provgraph.graph:ProvenanceGraph.find_all"),
    _ep("provgraph.graph",
        "repro.provgraph.graph:ProvenanceGraph.predecessors"),
    _ep("provgraph.graph", "repro.provgraph.graph:ProvenanceGraph.successors"),
    # crypto
    _ep("crypto.rsa", "repro.crypto.rsa:RsaKeyPair.sign", sub="sign"),
    _ep("crypto.rsa", "repro.crypto.rsa:RsaKeyPair.verify", sub="verify"),
    _ep("crypto.hashing", "repro.crypto.hashing:sha256_hex"),
    _ep("crypto.hashing", "repro.crypto.hashing:chain_hash"),
    _ep("crypto.hashing", "repro.crypto.hashing:HashChain.verify_segment"),
    # verification and replay
    _ep("snp.replay", "repro.snp.replay:verify_segment_hashes", span=True,
        sub="verify_self"),
    _ep("snp.replay", "repro.snp.replay:check_against_authenticator",
        span=True, sub="verify_self"),
    _ep("snp.replay", "repro.snp.replay:replay_segment", span=True,
        sub="replay_self"),
    _ep("snp.replay", "repro.snp.replay:extend_replay", span=True,
        sub="replay_self"),
    _ep("snp.wire", "repro.snp.wire:compute_build", span=True),
    _ep("snp.wire", "repro.snp.wire:verify_auth"),
    # recording
    _ep("snp.snoopy", "repro.snp.snoopy:SNooPyNode.insert"),
    _ep("snp.snoopy", "repro.snp.snoopy:SNooPyNode.delete"),
    _ep("snp.snoopy", "repro.snp.snoopy:SNooPyNode.on_batch"),
    _ep("snp.snoopy", "repro.snp.snoopy:SNooPyNode.on_ack"),
    _ep("snp.snoopy", "repro.snp.snoopy:SNooPyNode.retrieve", span=True,
        sub="retrieve"),
    _ep("snp.commitment", "repro.snp.commitment:build_batch"),
    _ep("snp.commitment", "repro.snp.commitment:verify_batch"),
    _ep("snp.commitment", "repro.snp.commitment:build_ack"),
    _ep("snp.commitment", "repro.snp.commitment:verify_ack"),
    _ep("snp.log", "repro.snp.log:NodeLog.append"),
    _ep("net.simulator", "repro.net.simulator:Simulator.step"),
    # the drivers above the recorder: what is left of a record step once
    # the simulator's events are taken out is the application's own glue
    _ep("apps.driver", "repro.snp.deployment:Deployment.run", span=True),
    _ep("apps.driver", "repro.apps.chord:ChordNetwork.bootstrap", span=True),
    _ep("apps.driver", "repro.apps.chord:ChordNetwork.stabilize", span=True),
    _ep("apps.driver", "repro.apps.chord:ChordNetwork.lookup", span=True),
    _ep("apps.driver", "repro.apps.bgp:BgpNetwork.converge", span=True),
    # audit
    _ep("snp.microquery", "repro.snp.microquery:MicroQuerier.build_views",
        span=True),
    _ep("snp.microquery", "repro.snp.microquery:MicroQuerier.refresh",
        span=True),
    _ep("snp.microquery", "repro.snp.microquery:MicroQuerier.microquery"),
    _ep("snp.microquery", "repro.snp.microquery:MicroQuerier.resolve"),
    _ep("snp.query", "repro.snp.query:QueryProcessor.__init__", span=True),
    _ep("snp.query", "repro.snp.query:QueryProcessor.prefetch", span=True),
    _ep("snp.query", "repro.snp.query:QueryProcessor.why", span=True),
    _ep("snp.query", "repro.snp.query:QueryProcessor.refresh", span=True),
    # service plane
    _ep("service.push", "repro.service.push:ServicePusher.build_push",
        span=True),
    _ep("service.push", "repro.service.push:ServicePusher.push_once",
        span=True),
    _ep("service.framing", "repro.service.framing:encode_frame",
        nbytes=_len_of_result),
    _ep("service.framing", "repro.service.framing:FrameDecoder.feed",
        nbytes=_len_of_data_arg),
    _ep("service.monitor", "repro.service.monitor:MonitorState.ingest_push",
        span=True, sub="ingest"),
    _ep("service.monitor",
        "repro.service.monitor:MonitorDaemon._refresh_and_eval", span=True,
        sub="refresh"),
    _ep("service.monitor", "repro.service.monitor:MonitorDaemon._run_query",
        span=True, sub="query"),
    _ep("service.monitor", "repro.service.monitor:MonitorDaemon.query",
        span=True, sub="wait"),
    _ep("service.server", "repro.service.server:handle_http", span=True),
    _ep("service.client", "repro.service.client:MonitorClient.query",
        span=True),
]


class _Acc:
    """Accumulator of one (kind, layer) or (kind, layer, sub) cell."""

    __slots__ = ("calls", "seconds", "nbytes")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.nbytes = 0


class Tracer:
    def __init__(self, entry_points=None, prefix="repro"):
        self._entry_points = (ENTRY_POINTS if entry_points is None
                              else entry_points)
        self._prefix = prefix        # packages searched for aliases
        self._installed = []         # (owner, attr, original) to restore
        self._current = ContextVar("e2e_tracer_frame", default=None)
        self._on = False
        self._kind = None            # the open timed region's op kind
        self._sample = None
        self._runner_thread = threading.get_ident()
        self._lock = threading.Lock()
        self._span_ids = itertools.count()
        self.spans = []
        self.cells = {}              # (kind, layer, sub-or-None) -> _Acc
        self.engine = {}             # (kind, counter) -> int
        self.root_seconds = 0.0      # runner-thread root frames
        self.timed_seconds = 0.0
        self.gc_seconds = 0.0
        self.gc_collections = 0
        self._gc_started = None

    # ---------------------------------------------------------- install

    def install(self):
        """Wrap every entry point. Imports the table's modules first so
        that every alias exists before it is looked for."""
        for ep in self._entry_points:
            importlib.import_module(ep.module)
        for ep in self._entry_points:
            self._install_one(ep)
        gc.callbacks.append(self._on_gc)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _install_one(self, ep):
        module = sys.modules[ep.module]
        parts = ep.qualname.split(".")
        if len(parts) == 1:
            original = getattr(module, parts[0])
            self.rebind_function(original, self._wrap(ep, original))
            return
        cls = getattr(module, parts[0])
        raw = cls.__dict__[parts[1]]
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrap(ep, raw.__func__))
        else:
            wrapped = self._wrap(ep, raw)
        self._installed.append((cls, parts[1], raw))
        setattr(cls, parts[1], wrapped)

    def rebind_function(self, original, wrapper):
        """Point every attribute of a loaded module of the traced package
        that *is* *original* at *wrapper*; returns how many were rebound."""
        count = 0
        prefix = self._prefix
        for name, module in list(sys.modules.items()):
            if module is None or not (name == prefix
                                      or name.startswith(prefix + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._installed.append((module, attr, original))
                    setattr(module, attr, wrapper)
                    count += 1
        return count

    # ---------------------------------------------------------- wrappers

    def _cell(self, kind, layer, sub=None):
        key = (kind, layer, sub)
        cell = self.cells.get(key)
        if cell is None:
            with self._lock:
                cell = self.cells.setdefault(key, _Acc())
        return cell

    def _wrap(self, ep, fn):
        tracer = self
        current = self._current
        layer, sub, nbytes, name = ep.layer, ep.sub, ep.nbytes, ep.name
        spans = self.spans if ep.span else None
        span_ids = self._span_ids

        def enter():
            parent = current.get()
            # [child seconds, id of the innermost span at or above here]
            frame = [0.0, None if parent is None else parent[1]]
            if spans is not None:
                frame[1] = next(span_ids)
            return parent, frame, current.set(frame), _perf()

        def leave(parent, frame, token, started, args, result):
            ended = _perf()
            current.reset(token)
            duration = ended - started
            own = duration - frame[0]
            kind = tracer._kind
            cell = tracer._cell(kind, layer)
            cell.calls += 1
            cell.seconds += own
            if nbytes is not None and result is not None:
                cell.nbytes += nbytes(args, result)
            if sub is not None:
                sub_cell = tracer._cell(kind, layer, sub)
                sub_cell.calls += 1
                sub_cell.seconds += own
            if parent is not None:
                parent[0] += duration
            elif threading.get_ident() == tracer._runner_thread:
                tracer.root_seconds += duration
            if spans is not None:
                spans.append(
                    (frame[1], None if parent is None else parent[1], name,
                     started, ended, kind, tracer._sample,
                     threading.get_ident()))

        if inspect.iscoroutinefunction(fn):
            async def wrapper(*args, **kwargs):
                if not tracer._on:
                    return await fn(*args, **kwargs)
                parent, frame, token, started = enter()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    leave(parent, frame, token, started, args, result)
        elif ep.engine:
            def wrapper(app, *args, **kwargs):
                if not tracer._on:
                    return fn(app, *args, **kwargs)
                before = [getattr(app, c) for c in ENGINE_COUNTERS]
                parent, frame, token, started = enter()
                try:
                    return fn(app, *args, **kwargs)
                finally:
                    leave(parent, frame, token, started, None, None)
                    kind = tracer._kind
                    totals = tracer.engine
                    for counter, old in zip(ENGINE_COUNTERS, before):
                        key = (kind, counter)
                        totals[key] = (totals.get(key, 0)
                                       + getattr(app, counter) - old)
        else:
            def wrapper(*args, **kwargs):
                if not tracer._on:
                    return fn(*args, **kwargs)
                parent, frame, token, started = enter()
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    leave(parent, frame, token, started, args, result)
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------ timed regions

    def begin(self, kind, sample):
        self._kind = kind
        self._sample = sample
        self._on = True

    def end(self, seconds):
        self._on = False
        self.timed_seconds += seconds

    def _on_gc(self, phase, _info):
        if phase == "start":
            self._gc_started = _perf() if self._on else None
        elif self._gc_started is not None:
            self.gc_seconds += _perf() - self._gc_started
            self.gc_collections += 1
            self._gc_started = None

    # ------------------------------------------------------------ results

    def total(self, layer, field, sub=None, kind=None):
        """Sum of *field* (``calls``/``seconds``/``nbytes``) of a layer
        over every op kind, or over *kind* only."""
        return sum(getattr(cell, field)
                   for (k, lay, s), cell in self.cells.items()
                   if lay == layer and s == sub
                   and (kind is None or k == kind))

    def engine_total(self, counter, kind=None):
        return sum(value for (k, c), value in self.engine.items()
                   if c == counter and (kind is None or k == kind))

    def coverage(self):
        """Share of the timed wall that the runner thread spent inside
        wrapped entry points (the sum of its frames' self times)."""
        if not self.timed_seconds:
            return 0.0
        return self.root_seconds / self.timed_seconds

    def budget(self):
        """``{kind: {layer: self seconds}}`` over every thread."""
        out = {}
        for (kind, layer, sub), cell in self.cells.items():
            if sub is None:
                out.setdefault(str(kind), {})[layer] = cell.seconds
        return out

    def dump(self, path, extra=None):
        """Write spans and the per-kind budget as JSON."""
        payload = {
            "columns": ["id", "parent", "name", "start", "end", "kind",
                        "sample", "thread"],
            "spans": self.spans,
            "budget_self_seconds": self.budget(),
            "timed_seconds": self.timed_seconds,
            "runner_root_seconds": self.root_seconds,
        }
        payload.update(extra or {})
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n")
