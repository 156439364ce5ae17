"""The monitor daemon: audit-as-a-service.

Nodes *push* framed log/evidence deltas (see :mod:`repro.service.push`)
instead of being polled; the daemon accumulates them in a
deployment-shaped evidence store (:class:`MonitorState`) and serves one
shared :class:`~repro.snp.query.QueryProcessor` to many concurrent REST
clients (:mod:`repro.service.server`). Because the store satisfies the
same retrieve/evidence API a live :class:`~repro.snp.deployment.Deployment`
does, the unmodified verification pipeline — chain hashes, replay,
consistency checks, retention faults — runs against pushed data and
reaches verdicts *bit-identical* to a direct in-process audit of the
same run (the service e2e gate). A node's pushed log is held as one
:class:`~repro.snp.snoopy.LogCopy`, trimmed at sanctioned GC floors.

Service-under-load behavior, in degradation order:

1. **backpressure** — every frame write drains the asyncio transport, so
   a slow peer stalls its own connection, not the daemon's memory;
2. **batching** — refresh requests share one pass (one ``qp.refresh()``
   serves every waiter): the pass running, when it already covers every
   ingest, else the next one;
3. **shedding** — pushes beyond ``ingest_limit`` in-flight applications
   are acked ``shed`` without being stored; the pusher keeps its delta
   and re-sends on its next cadence tick (the poll fallback) — bounded
   queues, never OOM;
4. **subscription lag** — per-subscriber event queues are bounded;
   overflow drops the *oldest* alert and marks the stream lagged.

All `QueryProcessor` access — including ingest, which mutates the store
the processor reads — is serialized through a single worker thread, so
the event loop never blocks on crypto/replay and the store needs no
locking; the loop only serves reads the answer table already holds.
"""

import argparse
import asyncio
import json
import signal
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.metrics import ServiceMeter
from repro.model import Tup
from repro.service.framing import (
    FrameDecoder, MAX_FRAME_BYTES, encode_frame, read_frames,
)
from repro.snp.deployment import EvidenceDirectory, Maintainer
from repro.snp.evidence import Authenticator, RetentionFloor
from repro.snp.query import QueryError, QueryProcessor
from repro.snp.snoopy import LogCopy, RetrieveResponse, SNooPyNode
from repro.snp.wire import WireError


def _responses_conflict(a, b):
    """Whether two stored responses attest *different* chains: some index
    both cover carries different hashes. Overlapping copies of one honest
    log always agree (the chain hash is cumulative); a fork or a
    recomputed tampered chain disagrees at every shared index from the
    divergence point on."""
    lo = max(a.start_index - 1, b.start_index - 1)
    hi = min(a.head_index, b.head_index)
    if lo > hi:
        return False
    return a.hash_at(hi) != b.hash_at(hi)


class MonitorNodeProxy:
    """The daemon's stand-in for one pushed node.

    It stores **two** things: ``merged``, the node's
    :class:`~repro.snp.snoopy.LogCopy` (what cold builds replay, trimmed
    at sanctioned GC floors like a replica's mirror), and ``latest``, the
    node's most recent push *verbatim* — kept even when the copy refused
    it. The distinction is what makes daemon-side audits convict exactly
    like direct ones: a forked node's push fails to splice (its
    ``start_hash`` contradicts the stored chain), and serving that
    refused response to the querier hands it precisely the evidence a
    direct ``retrieve`` would have — the copy must never launder a fork
    into silence.
    """

    def __init__(self, node_id):
        self.node_id = node_id
        self.merged = LogCopy(node_id)
        self.latest = None
        # peer -> [Authenticator]: evidence this node holds about others,
        # append-only (the pusher ships cursored deltas).
        self.received_auths = {}

    # ------------------------------------------------------------ ingest

    def ingest(self, response):
        """Absorb one pushed response; returns the stored head index the
        ack reports (what the next delta should anchor on)."""
        if response is not None:
            self.latest = response
            self.merged.store(response)
        return self.stored_head()

    def ingest_auths(self, peer, auths):
        self.received_auths.setdefault(peer, []).extend(auths)

    def stored_head(self):
        return self.merged.head_index

    # ----------------------------------------------------- querier-facing

    #: Served as a live node serves it (a cursored read of
    #: ``received_auths``).
    authenticators_about = SNooPyNode.authenticators_about

    def retrieve(self, from_checkpoint=False, since_index=None):
        """Serve a querier from pushed data, mimicking
        :meth:`~repro.snp.snoopy.SNooPyNode.retrieve` on the node's
        *claimed* log. The daemon never adjudicates: when the fresh push
        contradicts the stored chain it relays the push and lets the
        querier's verification (or its harvested old authenticators)
        convict — exactly the evidence path of a direct audit.
        """
        if self.latest is None:
            return None
        if since_index is not None:
            response = self._retrieve_delta(since_index)
            if response is not None:
                return response
        return self._retrieve_full()

    def _retrieve_delta(self, h):
        """The continuation after entry *h*, or ``None`` to fall back to
        a full response (mirroring the origin's own fallback when it
        cannot anchor there)."""
        merged, latest = self.merged, self.latest
        # Freshest first: a push that extends past h and can anchor there
        # serves the delta even before it is mergeable (e.g. a re-push
        # overlapping a lost ack).
        if latest.hash_at(h) is not None and latest.head_index > h:
            return latest.suffix(h)
        if merged.hash_at(h) is not None and merged.head_index > h:
            return merged.serve(h)
        if not merged or merged.head_index != h:
            return None
        # The auditor is at the stored head. If the node's last push
        # contradicts the stored chain (a fork or recomputed tampering),
        # relay it raw: anchored at h+1 it feeds delta verification, any
        # other shape triggers the querier's full-verify fallback — both
        # convict. A push that merely *agrees* with what is stored (a
        # redundant re-push) is old news, not a contradiction.
        if _responses_conflict(latest, merged):
            return latest
        # Nothing new: confirm the head with the stored authenticator,
        # as the origin's empty delta response would.
        return RetrieveResponse(
            node=self.node_id, entries=[], start_index=h + 1,
            start_hash=merged.hash_at(h), head_auth=merged.head_auth,
        )

    def _retrieve_full(self):
        """A response that can seed a full verify+replay."""
        merged, latest = self.merged, self.latest
        if not merged:
            return latest
        if _responses_conflict(latest, merged):
            # The node's current claim contradicts stored history; serve
            # the claim when it could seed a build (the querier's
            # consistency check then convicts the equivocation against
            # harvested old authenticators), else the stored copy.
            return latest if latest.seeds_rebuild else merged.serve()
        if latest.seeds_rebuild and latest.head_index > merged.head_index:
            return latest
        return merged.serve()


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _require(ok, what, *args):
    """Frames come from outside the program: a malformed one raises
    :class:`WireError`, like the codec's own decoders."""
    if not ok:
        raise WireError("malformed " + what % args)


def _parse_hello(msg):
    """Validate a hello whole, before any of it is applied; returns
    ``(t_prop, [(node_id, public_key, factory)])``. Every node needs an
    app spec: replay rebuilds its state machine from nothing else."""
    from repro.crypto.rsa import RsaKeyPair
    from repro.apps import factory_from_spec
    t_prop, nodes = msg.get("t_prop"), msg.get("nodes")
    _require((_is_int(t_prop) or isinstance(t_prop, float))
             and isinstance(nodes, dict),
             "hello: needs a numeric t_prop and a nodes table")
    parsed = []
    for node_id, info in nodes.items():
        key = info.get("key") if isinstance(info, dict) else None
        _require(isinstance(key, (tuple, list)) and len(key) == 2
                 and all(_is_int(part) and part > 0 for part in key),
                 "hello: node %r carries no (n, e) public key", node_id)
        spec = info.get("app")
        _require(spec is not None,
                 "hello: node %r carries no application spec", node_id)
        parsed.append((node_id, RsaKeyPair(*key), factory_from_spec(spec)))
    return float(t_prop), parsed


def _check_push(msg):
    """Validate a push whole, before any of it is applied: the message
    table's shape (the frame built its value objects through
    :data:`repro.snp.wire.VALUE_CLASSES`, which checked their fields)."""
    nodes, floors = msg.get("nodes"), msg.get("floors", {})
    # /status serves the seq as JSON, so it must be one
    _require(_is_int(msg.get("seq")), "push: needs an int seq")
    _require(isinstance(nodes, dict) and isinstance(floors, dict),
             "push: needs a nodes table and a floors table")
    for node_id, part in nodes.items():
        _require(isinstance(part, dict), "push: node %r", node_id)
        response, auths = part.get("response"), part.get("auths", {})
        _require(response is None or isinstance(response, RetrieveResponse),
                 "push: node %r carries no retrieve response", node_id)
        _require(isinstance(auths, dict) and all(
            isinstance(held, list)
            and all(isinstance(auth, Authenticator) for auth in held)
            for held in auths.values()),
            "push: node %r carries malformed authenticators", node_id)
    alarms, faults = msg.get("alarms", ()), msg.get("faults", ())
    _require(isinstance(alarms, (list, tuple)) and all(
        isinstance(alarm, dict) and "msg_ids" in alarm for alarm in alarms),
        "push: alarms need msg_ids")
    _require(isinstance(faults, (list, tuple)) and all(
        isinstance(fault, dict) and "node" in fault and "reason" in fault
        for fault in faults), "push: faults need a node and a reason")
    _require(all(isinstance(advert, RetentionFloor)
                 for advert in floors.values()),
             "push: floors must be retention-floor advertisements")


class MonitorState(EvidenceDirectory):
    """A deployment-shaped evidence store fed by pushes.

    Implements the full deployment API the query pipeline consumes —
    ``nodes`` (of :class:`MonitorNodeProxy`), ``public_key_of``,
    ``app_factories``, ``effective_t_prop``, ``maintainer``,
    ``find_mirror``, and the evidence half (consistency collection,
    retention floors/faults) a live deployment serves, inherited from
    the same :class:`~repro.snp.deployment.EvidenceDirectory` — so
    :class:`~repro.snp.query.QueryProcessor` runs against it unchanged.
    """

    def __init__(self):
        self.nodes = {}
        self.app_factories = {}
        self.maintainer = Maintainer()
        self.retention_floors = {}
        self.hello = None
        self._public_keys = {}
        self._t_prop = 0.0
        self._alarm_count = 0
        self._fault_count = 0
        self.last_push_seq = None

    # ------------------------------------------------------------ ingest

    def ingest_hello(self, msg):
        """Adopt a deployment's identity material: node ids, public keys
        (as ``(n, e)`` pairs, rebuilt locally), app wire specs, and the
        replay Tprop bound. All or nothing: a malformed message raises
        :class:`WireError` and changes no state."""
        t_prop, parsed = _parse_hello(msg)
        self.hello = {"deployment": msg.get("deployment")}
        self._t_prop = t_prop
        for node_id, public_key, factory in parsed:
            if node_id not in self.nodes:
                self.nodes[node_id] = MonitorNodeProxy(node_id)
            self._public_keys[node_id] = public_key
            self.app_factories[node_id] = factory

    def ingest_push(self, msg):
        """Absorb one push; returns per-node stored heads for the ack.
        All or nothing, like :meth:`ingest_hello`."""
        _check_push(msg)
        heads = {}
        for node_id, part in msg["nodes"].items():
            proxy = self.nodes.get(node_id)
            if proxy is None:
                proxy = self.nodes[node_id] = MonitorNodeProxy(node_id)
            heads[node_id] = proxy.ingest(part.get("response"))
            for peer, auths in part.get("auths", {}).items():
                proxy.ingest_auths(peer, auths)
        # Maintainer streams are append-only on the deployment; the push
        # carries the suffix past what this daemon acked.
        for alarm in msg.get("alarms", ()):
            self.maintainer.notify_missing_ack(alarm)
            self._alarm_count += 1
        for fault in msg.get("faults", ()):
            self.maintainer.retention_faults.append(fault)
            self._fault_count += 1
        self.retention_floors.update(msg.get("floors", {}))
        # The stored copies follow sanctioned floors, as replicas do.
        for node_id, proxy in self.nodes.items():
            floor = self.sanctioned_floor(node_id)
            if floor is not None:
                proxy.merged.trim(floor)
        self.last_push_seq = msg["seq"]
        return heads

    def ingest_cursors(self):
        """Append-only stream positions acked back to the pusher."""
        return {"alarms": self._alarm_count, "faults": self._fault_count}

    def stored_heads(self):
        return {n: p.stored_head() for n, p in self.nodes.items()}

    # ----------------------------------------------- deployment interface

    def public_key_of(self, node_id):
        return self._public_keys[node_id]

    def effective_t_prop(self):
        return self._t_prop

    def find_mirror(self, origin, since_index=None):
        # The proxies themselves are the mirror plane; there is no
        # second-tier replica to fall back to.
        return None


_VERDICT_RANK = {"pending": 0, "green": 0, "yellow": 1, "red": 2}
#: The answer table's bound: past it an answer is simply not stored.
ANSWER_TABLE_LIMIT = 256


def _verdict(answer):  # what a watch compares; an error is pending
    return answer["result"]["verdict"] if answer["ok"] else "pending"


class Subscription:
    """One subscriber's standing watches plus its bounded event queue."""

    def __init__(self, sid, watches, queue_limit):
        self.sid = sid
        self.watches = watches          # list of watch-spec dicts
        self.keys = [watch_key(w) for w in watches]
        self.queue = asyncio.Queue(maxsize=queue_limit)
        self.last = {}                  # watch key -> last verdict
        self.lagged = False
        self.closed = False


def watch_key(spec):
    """Canonical identity of a watch/query spec, ``fresh`` aside: the
    answer table's key, shared by REST reads and watches."""
    return (
        _spec_tup(spec), spec.get("node"), spec.get("at"),
        spec.get("before"), spec.get("scope"), spec.get("direction", "why"),
    )


def _spec_tup(spec):
    def revive(arg):
        return tuple(revive(a) for a in arg) if isinstance(arg, list) else arg
    return Tup(spec["relation"], revive(spec["loc"]),
               *[revive(a) for a in spec.get("args", ())])


class MonitorDaemon:
    """The asyncio monitor daemon: push ingest + REST front end around
    one shared :class:`QueryProcessor`."""

    def __init__(self, host="127.0.0.1", push_port=0, http_port=0,
                 ingest_limit=64, subscriber_queue_limit=256,
                 max_frame_bytes=MAX_FRAME_BYTES):
        self.host = host
        self.push_port = push_port
        self.http_port = http_port
        self.state = MonitorState()
        self.meter = ServiceMeter()
        self.max_frame_bytes = max_frame_bytes
        self.ingest_limit = ingest_limit
        self.subscriber_queue_limit = subscriber_queue_limit
        self.qp = QueryProcessor(self.state)
        # One worker serializes every touch of state+qp: ingest mutates
        # what queries read, and MicroQuerier itself is not thread-safe.
        self._qp_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="snp-monitor-qp")
        self._inflight_pushes = 0
        self._subs = {}
        self._next_sid = 1
        self._refresh_needed = None     # asyncio.Event, bound to the loop
        self._refresh_waiters = []
        self._joinable = None           # see request_refresh
        self._answers = {}              # watch key -> answer; see _answer
        self._writes = 0                # ingests + passes on the worker
        self._servers = []
        self._conn_tasks = set()        # live connection handler tasks
        self._loop = None
        self._stopped = None

    # -------------------------------------------------------- lifecycle

    async def start(self):
        """Bind both listeners and start the refresh worker. Sets
        ``push_port`` / ``http_port`` to the bound ports."""
        from repro.service.server import serve_connection
        self._loop = asyncio.get_running_loop()
        self._refresh_needed = asyncio.Event()
        self._stopped = asyncio.Event()
        push_srv = await asyncio.start_server(
            self._track(self._handle_push_conn), self.host, self.push_port)
        http_srv = await asyncio.start_server(
            self._track(lambda r, w: serve_connection(self, r, w)),
            self.host, self.http_port)
        self._servers = [push_srv, http_srv]
        self.push_port = push_srv.sockets[0].getsockname()[1]
        self.http_port = http_srv.sockets[0].getsockname()[1]
        self._refresh_task = asyncio.ensure_future(self._refresh_worker())
        return self

    def _track(self, handler):
        """Wrap a connection handler so stop() can cancel live
        connections (standing subscriptions would otherwise outlive the
        servers)."""
        async def tracked(reader, writer):
            task = asyncio.current_task()
            self._conn_tasks.add(task)
            try:
                await handler(reader, writer)
            except asyncio.CancelledError:
                # stop() cancelled us; finish normally so the stream
                # machinery's done-callback doesn't log the cancel.
                # (uncancel() is 3.11+; earlier loops accept a plain
                # return after catching the cancel.)
                uncancel = getattr(task, "uncancel", None)
                if uncancel is not None:
                    uncancel()
            finally:
                self._conn_tasks.discard(task)
        return tracked

    async def stop(self):
        for server in self._servers:
            server.close()
            await server.wait_closed()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._refresh_task.cancel()
        try:
            await self._refresh_task
        except asyncio.CancelledError:
            pass
        for sub in list(self._subs.values()):
            sub.closed = True
        self._qp_pool.shutdown(wait=True)
        self.qp.close()
        if self._stopped is not None:
            self._stopped.set()

    async def serve_forever(self):
        await self._stopped.wait()

    # ------------------------------------------------------- push ingest

    async def _handle_push_conn(self, reader, writer):
        decoder = FrameDecoder(self.max_frame_bytes)

        async def send(reply):
            data = encode_frame(reply, self.max_frame_bytes)
            self.meter.frames_sent += 1
            self.meter.bytes_sent += len(data)
            writer.write(data)
            # Backpressure: a pusher that stops reading acks stalls
            # here, not in daemon memory.
            await writer.drain()

        try:
            async for frames in read_frames(reader, decoder):
                refused = decoder.refused_globals
                # Per read, not at close: /status shows damage and
                # refusals while the peer still holds its socket open.
                self.meter.absorb_decoder(decoder)
                for _ in range(refused):
                    await send({"type": "error",
                                "error": "frame names a global"})
                for msg in frames:
                    self.meter.frames_received += 1
                    if not isinstance(msg, dict) or "type" not in msg:
                        self.meter.corrupt_frames += 1
                        continue
                    reply = await self._dispatch_push(msg)
                    if reply is not None:
                        await send(reply)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
            except (ConnectionError, RuntimeError):  # pragma: no cover
                pass

    async def _dispatch_push(self, msg):
        mtype = msg["type"]
        try:
            if mtype == "hello":
                await self._ingest(self.state.ingest_hello, msg)
                return {"type": "hello-ack",
                        "heads": await self._in_pool(self.state.stored_heads),
                        "cursors": self.state.ingest_cursors()}
            if mtype == "push":
                return await self._accept_push(msg)
        except WireError as exc:
            # Well framed, malformed inside. Ingest validates before it
            # applies, so no state changed; the connection stays up.
            self.meter.corrupt_frames += 1
            return {"type": "error", "error": str(exc)}
        if mtype == "bye":
            return None
        return {"type": "error", "error": f"unknown message type {mtype!r}"}

    async def _accept_push(self, msg):
        if self._inflight_pushes >= self.ingest_limit:
            # Shed: nothing stored, nothing acked forward — the
            # pusher keeps its delta and retries next cadence tick.
            self.meter.pushes_shed += 1
            return {"type": "push-ack", "seq": msg.get("seq"),
                    "shed": True, "heads": None, "cursors": None,
                    "marks": None}
        self._inflight_pushes += 1
        try:
            heads = await self._ingest(self.state.ingest_push, msg)
            marks = await self._in_pool(self.qp.low_water_marks)
        finally:
            self._inflight_pushes -= 1
        self.meter.pushes_accepted += 1
        self._refresh_needed.set()
        return {"type": "push-ack", "seq": msg.get("seq"),
                "shed": False, "heads": heads,
                "cursors": self.state.ingest_cursors(), "marks": marks}

    def _in_pool(self, fn, *args):
        return self._loop.run_in_executor(
            self._qp_pool, lambda: fn(*args))

    async def _ingest(self, apply, msg):
        """Apply a hello or push on the worker, emptying the answer table
        in worker order. The running pass no longer covers every ingest."""
        self._joinable = None

        def run():
            self._answers.clear()
            return apply(msg)
        self._writes += 1
        try:
            return await self._in_pool(run)
        finally:
            self._writes -= 1

    # ------------------------------------------------ refresh + queries

    def request_refresh(self):
        """A future resolving with the epoch of a pass covering every
        ingest so far: the running one while no ingest followed it (its
        waiters are ``_joinable``), else the next — the batching rung."""
        fut = self._loop.create_future()
        if self._joinable is not None:
            self._joinable.append(fut)
            self.meter.requests_batched += 1
        else:
            self._refresh_waiters.append(fut)
            self._refresh_needed.set()
        return fut

    async def _refresh_worker(self):
        while True:
            await self._refresh_needed.wait()
            self._refresh_needed.clear()
            waiters, self._refresh_waiters = self._refresh_waiters, []
            self._joinable = waiters
            self._writes += 1
            self.meter.refresh_batches += 1
            self.meter.requests_batched += len(waiters)
            try:
                epoch, outcomes = await self._in_pool(self._refresh_and_eval)
            except Exception as exc:  # pragma: no cover - defensive
                for fut in waiters:
                    if not fut.done():
                        fut.set_exception(exc)
                continue
            finally:
                self._joinable = None
                self._writes -= 1
            for fut in waiters:
                if not fut.done():
                    fut.set_result(epoch)
            self._dispatch_alerts(epoch, outcomes)

    def _refresh_and_eval(self):
        """(qp pool) One refresh pass, then every unique watch answered
        through the answer table — N subscribers of one vertex cost one
        evaluation per epoch at most, and none in an epoch that changed
        no view (``watch_evaluations_skipped`` ticks instead)."""
        epoch = self.qp.refresh()
        changed = self.qp.last_refresh_changed
        if changed is None or changed:
            self._answers.clear()
        outcomes = {}
        for sub in list(self._subs.values()):
            for key, spec in zip(sub.keys, sub.watches):
                if sub.closed or key in outcomes:
                    continue
                if key in self._answers:
                    self.meter.watch_evaluations_skipped += 1
                    outcomes[key] = self._answers[key]
                else:
                    self.meter.watch_evaluations += 1
                    outcomes[key] = self._answer(key, spec)
        return epoch, outcomes

    def _answer(self, key, spec):
        """(qp pool) Evaluate *spec* to ``{"ok", "result" | "error"}``,
        a pure function of the querier's verified state: stored under
        *key* when the evaluation left that state as it found it (no
        view built, no log fetched), kept until an ingest, a pass with
        changes or an evaluation that moved the state empties the table.
        While an ingest or pass is scheduled, hits wait for it."""
        version = self.qp.mq.version
        try:
            answer = {"ok": True, "result": self._run_query(spec).summary()}
        except QueryError as exc:
            answer = {"ok": False, "error": str(exc)}
        if self.qp.mq.version != version:
            self._answers.clear()
        elif len(self._answers) < ANSWER_TABLE_LIMIT:
            self._answers[key] = answer
        return answer

    def _run_query(self, spec):
        """(qp pool) Evaluate one query/watch spec against the shared
        processor."""
        tup = _spec_tup(spec)
        kwargs = {"node": spec.get("node"), "at": spec.get("at"),
                  "scope": spec.get("scope")}
        direction = spec.get("direction", "why")
        if direction == "effects":
            return self.qp.effects(tup, **kwargs)
        if direction == "why_appear":
            kwargs.pop("at")
            return self.qp.why_appear(tup, before=spec.get("before"),
                                      node=spec.get("node"),
                                      scope=spec.get("scope"))
        return self.qp.why(tup, **kwargs)

    async def query(self, spec):
        """Serve one REST query, from the answer table when it can; with
        ``fresh``, after a refresh pass covering every ingest so far."""
        if spec.get("fresh"):
            await self.request_refresh()
        key = watch_key(spec)
        answer = None if self._writes else self._answers.get(key)
        if answer is None:
            answer = await self._in_pool(self._answer, key, spec)
        else:
            self.meter.answers_reused += 1
        if answer["ok"]:
            self.meter.queries_served += 1
        return dict(answer, epoch=self.qp.epoch)

    async def refresh(self):
        epoch = await self.request_refresh()
        self.meter.refreshes_served += 1
        return {"ok": True, "epoch": epoch}

    async def marks(self):
        marks = await self._in_pool(self.qp.low_water_marks)
        return {"ok": True, "marks": {str(k): v for k, v in marks.items()}}

    def status(self):
        return {
            "ok": True,
            "epoch": self.qp.epoch,
            "hello": self.state.hello is not None,
            "nodes": {str(n): p.stored_head()
                      for n, p in self.state.nodes.items()},
            "last_push_seq": self.state.last_push_seq,
            "subscriptions": sum(
                1 for s in self._subs.values() if not s.closed),
            "meter": self.meter.as_dict(),
            # Read on the event loop while the worker bumps it: safe only
            # because counters() walks the declared FIELDS, never vars(),
            # and a record's instance dict never resizes after __init__.
            "query": self.qp.mq.stats.counters(),
        }

    # ----------------------------------------------------- subscriptions

    def add_subscription(self, watches):
        sid = self._next_sid
        self._next_sid += 1
        sub = Subscription(sid, watches, self.subscriber_queue_limit)
        # Every key is hashed before the subscription is registered: a
        # spec that cannot be keyed raises here and leaves no trace.
        known = [self._answers.get(key) for key in sub.keys]
        self._subs[sid] = sub
        self.meter.subscriptions_opened += 1
        # Seed baselines from stored answers — telling the subscriber its
        # starting state right away — so one joining late still alerts
        # on the *next* downgrade; then make sure a pass runs to evaluate
        # anything new.
        for key, spec, answer in zip(sub.keys, sub.watches, known):
            if answer is not None:
                sub.last[key] = _verdict(answer)
                self._offer(sub, {"type": "state", "epoch": self.qp.epoch,
                                  "watch": spec, "verdict": sub.last[key]})
        self._refresh_needed.set()
        return sub

    def remove_subscription(self, sub):
        sub.closed = True
        self._subs.pop(sub.sid, None)

    def _dispatch_alerts(self, epoch, outcomes):
        for sub in list(self._subs.values()):
            if sub.closed:
                continue
            for key, spec in zip(sub.keys, sub.watches):
                answer = outcomes.get(key)
                if answer is None:
                    continue
                verdict = _verdict(answer)
                last = sub.last.get(key)
                sub.last[key] = verdict
                if last is None:
                    event = {"type": "state", "epoch": epoch,
                             "watch": spec, "verdict": verdict}
                    self._offer(sub, event)
                elif _VERDICT_RANK[verdict] > _VERDICT_RANK[last]:
                    # outranks pending, so the answer is a result
                    result = answer["result"]
                    colors = [color for _v, color in result["vertices"]]
                    event = {"type": "alert", "epoch": epoch,
                             "watch": spec, "from": last, "to": verdict,
                             "faulty_nodes": result["faulty_nodes"],
                             "red": colors.count("red"),
                             "yellow": colors.count("yellow")}
                    self.meter.alerts_emitted += 1
                    self._offer(sub, event)

    def _offer(self, sub, event):
        """Enqueue an event, shedding the oldest on overflow (the
        subscriber keeps the most recent state, marked lagged)."""
        if sub.lagged:
            event = dict(event, lagged=True)
            sub.lagged = False
        while True:
            try:
                sub.queue.put_nowait(event)
                return
            except asyncio.QueueFull:
                try:
                    sub.queue.get_nowait()
                except asyncio.QueueEmpty:
                    pass
                self.meter.alerts_dropped += 1
                sub.lagged = True
                event = dict(event, lagged=True)


# ---------------------------------------------------------- entry points

class MonitorHandle:
    """A daemon running on its own thread + event loop (tests and
    in-process embedding)."""

    def __init__(self, daemon):
        self.daemon = daemon
        self._thread = None
        self._loop = None

    def start(self, timeout=10.0):
        started = threading.Event()
        failure = []

        def runner():
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(self.daemon.start())
            except Exception as exc:  # pragma: no cover - startup failure
                failure.append(exc)
                started.set()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=runner, name="snp-monitor", daemon=True)
        self._thread.start()
        if not started.wait(timeout):
            raise RuntimeError("monitor daemon did not start in time")
        if failure:
            raise failure[0]
        return self

    def stop(self, timeout=10.0):
        if self._loop is None:
            return
        fut = asyncio.run_coroutine_threadsafe(self.daemon.stop(), self._loop)
        fut.result(timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False


def start_monitor_thread(**kwargs):
    """Start a :class:`MonitorDaemon` on a background thread; returns a
    :class:`MonitorHandle` with bound ports on ``handle.daemon``."""
    return MonitorHandle(MonitorDaemon(**kwargs)).start()


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="SNP monitor daemon: push ingest + REST audit service")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--push-port", type=int, default=0)
    parser.add_argument("--http-port", type=int, default=0)
    parser.add_argument("--ingest-limit", type=int, default=64)
    args = parser.parse_args(argv)

    async def run():
        daemon = MonitorDaemon(
            host=args.host, push_port=args.push_port,
            http_port=args.http_port, ingest_limit=args.ingest_limit)
        await daemon.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signame in ("SIGINT", "SIGTERM"):
            try:
                loop.add_signal_handler(
                    getattr(signal, signame), stop.set)
            except (NotImplementedError, AttributeError):
                pass  # platform without signal-handler support
        # The parent (CI script, operator) reads one JSON line to learn
        # the bound ports.
        print(json.dumps({"push_port": daemon.push_port,
                          "http_port": daemon.http_port}), flush=True)
        try:
            await stop.wait()
        finally:
            await daemon.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
