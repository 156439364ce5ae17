"""Deployment: assembles a simulated SNooPy system.

A deployment owns the simulator, the offline CA, the maintainer (the entity
that receives missing-ack notifications, Section 5.4), the traffic meter,
and the nodes. Applications register a *state-machine factory* per node —
the factory is what deterministic replay uses to reconstruct a fresh
instance of the node's expected behavior ``A_i``, so it must be free of
hidden state.
"""

from repro.crypto.keys import CertificateAuthority, CryptoCounter, NodeIdentity
from repro.metrics import RetentionMeter, TrafficMeter
from repro.net.simulator import Simulator
from repro.snp.evidence import check_retention_floor
from repro.snp.snoopy import LogCopy, SNooPyNode
from repro.util.errors import AuthenticationError, ConfigurationError

#: How many replicas hold a copy of each node's log (Section 5.8).
REPLICATION_FACTOR = 2


class Maintainer:
    """The system maintainer: collects alarms and rejected-wire reports."""

    def __init__(self):
        self.missing_ack_alarms = []
        self.rejected_wires = []
        # Retention-handshake convictions: a node whose signed floor
        # advertisement contradicts a live auditor's verified head (or
        # fails evidence.check_retention_floor). Each record carries the
        # evidence.
        self.retention_faults = []

    def notify_missing_ack(self, alarm):
        self.missing_ack_alarms.append(alarm)

    def record_rejected_wire(self, receiver, sender, reason):
        self.rejected_wires.append(
            {"receiver": receiver, "sender": sender, "reason": reason}
        )

    def record_retention_fault(self, node, reason, advert=None, mark=None,
                               held=None):
        fault = {"node": node, "reason": reason, "advert": advert,
                 "mark": mark}
        if held is not None:
            fault["held"] = held    # the earlier advert *advert* breaks
        self.retention_faults.append(fault)

    def retention_fault_of(self, node):
        """The first recorded retention conviction for *node*, or None."""
        for fault in self.retention_faults:
            if fault["node"] == node:
                return fault["reason"]
        return None

    def alarmed_msg_ids(self):
        out = set()
        for alarm in self.missing_ack_alarms:
            out.update(alarm["msg_ids"])
        return out


class _Cadence:
    """One standing maintenance pass interleaved with simulation.

    ``at_quiescence`` selects the :meth:`Deployment.run` policy: a pass
    that is a no-op when nothing changed (delta replication, service
    pushes) fires at every quiescence, while a pass with per-invocation
    cost (GC checkpoints every node) fires only once its cadence instant
    has actually been crossed.
    """

    __slots__ = ("name", "interval", "callback", "next_t", "at_quiescence")

    def __init__(self, name, interval, callback, next_t, at_quiescence):
        self.name = name
        self.interval = interval
        self.callback = callback
        self.next_t = next_t
        self.at_quiescence = at_quiescence

    def __repr__(self):
        return (f"_Cadence({self.name!r}, every {self.interval:g}s, "
                f"next at {self.next_t:g})")


class EvidenceDirectory:
    """The evidence half of the API the query pipeline consumes, written
    once over ``nodes``, ``maintainer`` and ``retention_floors``: a live
    :class:`Deployment` and the monitor daemon's store of pushed data
    (:class:`~repro.service.monitor.MonitorState`) both inherit it."""

    def collect_authenticators_about_since(self, target, cursor):
        """Ask every node for authenticators signed by *target* — the
        querier side of the consistency check (Section 5.5), cursored.

        *cursor* maps peer id → how many of that peer's received
        authenticators about *target* were already scanned; only the
        entries past each peer's cursor are returned, so a standing
        querier's refresh cost is proportional to *new* evidence instead
        of every peer's entire history (a peer's ``received_auths`` list
        is append-only, making the count a stable cursor). Returns
        ``(auths, new_cursor)``; pass ``None`` (or ``{}``) to scan from
        the beginning.
        """
        cursor = dict(cursor) if cursor else {}
        out = []
        for node in self.nodes.values():
            if node.node_id == target:
                continue
            since = cursor.get(node.node_id, 0)
            fresh = node.authenticators_about(target, since=since)
            out.extend(fresh)
            cursor[node.node_id] = since + len(fresh)
        return out, cursor

    def advertised_floor_of(self, node):
        """The node's sanctioned-or-not advertised floor index (0 when it
        never advertised) — what queriers hold truncation against."""
        advert = self.retention_floors.get(node)
        return advert.floor_index if advert is not None else 0

    def sanctioned_floor(self, node):
        """The floor *node* advertised, or None when it never advertised
        or stands convicted by the retention handshake: the only
        truncation depth a stored copy of its log follows."""
        advert = self.retention_floors.get(node)
        if advert is None or self.retention_fault_of(node) is not None:
            return None
        return advert.floor_index

    def retention_fault_of(self, node):
        return self.maintainer.retention_fault_of(node)


class Deployment(EvidenceDirectory):
    def __init__(self, seed=0, key_bits=256, t_batch=0.0):
        self.seed = seed
        self.sim = Simulator(seed=seed)
        self.ca = CertificateAuthority(key_bits=key_bits, seed=seed ^ 0xCA)
        self.key_bits = key_bits
        self.t_batch = t_batch
        self.maintainer = Maintainer()
        self.traffic = TrafficMeter()
        self.nodes = {}
        self.app_factories = {}
        self._identities = {}
        self._drop_wires_to = set()  # simulate crashed nodes
        # Channels are FIFO per (src, dst), like the TCP sessions real
        # deployments use: a +τ and its later −τ must arrive in order or
        # the receiver's belief state is corrupted.
        self._channel_clock = {}
        # Standing cadences (see add_cadence): every periodic maintenance
        # pass — replication, GC, service pushes — registers here and is
        # interleaved with simulation by run()/run_until() under one
        # scheduler instead of per-feature interval loops.
        self._cadences = {}          # name -> _Cadence
        # Checkpoint-GC state (see run_gc / enable_gc): registered
        # standing queriers whose verified heads are the low-water marks,
        # each node's latest signed floor advertisement, and the GC meter.
        self._queriers = []
        self.retention_floors = {}   # node -> RetentionFloor
        self.gc_meter = RetentionMeter()

    # ------------------------------------------------------------- set-up

    def add_node(self, node_id, app_factory, node_cls=SNooPyNode,
                 native_sizer=None):
        """Create a node running *app_factory(node_id)* as its primary
        system. *node_cls* selects a Byzantine variant if desired."""
        if node_id in self.nodes:
            raise ConfigurationError(f"duplicate node id {node_id!r}")
        identity = NodeIdentity(node_id, self.ca, key_bits=self.key_bits,
                                seed=self.seed)
        self._identities[node_id] = identity
        self.sim.register_clock(node_id)
        node = node_cls(node_id, app_factory(node_id), identity, self,
                        native_sizer=native_sizer)
        self.nodes[node_id] = node
        self.app_factories[node_id] = app_factory
        return node

    def node(self, node_id):
        return self.nodes[node_id]

    def public_key_of(self, node_id):
        """The public key in *node_id*'s certificate (one object per node,
        not a copy per call: every on_batch / on_ack asks)."""
        return self._identities[node_id].certificate.public_key

    def identity_of(self, node_id):
        return self._identities[node_id]

    def plausibility_window(self):
        """Δclock + Tprop, plus scheduling slack for batched transmission."""
        return self.sim.delta_clock + self.sim.t_prop + self.t_batch + 0.01

    def effective_t_prop(self):
        """The Tprop bound replay must assume: with Tbatch batching, an
        acknowledgment legitimately arrives up to Tbatch later (Section
        5.6 — 'the cost is an increase in message latency by up to
        Tbatch'), so the missing-ack deadline is 2·(Tprop + Tbatch/2)."""
        return self.sim.t_prop + self.t_batch / 2 + self.sim.delta_clock

    # ----------------------------------------------------------- transport

    def transmit_batch(self, sender, batch):
        """Deliver a WireBatch after a link delay, with traffic accounting."""
        self.traffic.record_batch(
            sender.node_id, [m for m, _i, _t in batch.msgs],
            native_sizer=sender.native_sizer,
        )
        if batch.dst in self._drop_wires_to or batch.dst not in self.nodes:
            return
        target = self.nodes[batch.dst]
        self._deliver_fifo(
            (batch.src, batch.dst), lambda: target.on_batch(batch)
        )

    def transmit_ack(self, sender, wire_ack):
        self.traffic.record_ack(sender.node_id)
        if wire_ack.dst in self._drop_wires_to or wire_ack.dst not in self.nodes:
            return
        target = self.nodes[wire_ack.dst]
        self._deliver_fifo(
            ("ack", wire_ack.src, wire_ack.dst),
            lambda: target.on_ack(wire_ack),
        )

    def _deliver_fifo(self, channel, callback):
        """Schedule a delivery that preserves per-channel ordering."""
        deliver_at = self.sim.now + self.sim.link_delay()
        last = self._channel_clock.get(channel, 0.0)
        if deliver_at <= last:
            deliver_at = last + 1e-6
        self._channel_clock[channel] = deliver_at
        self.sim.schedule_at(deliver_at, callback)

    def drop_wires_to(self, node_id):
        """Simulate a node that has stopped receiving (crash/partition)."""
        self._drop_wires_to.add(node_id)

    # ------------------------------------------------------------- running

    def add_cadence(self, name, interval_seconds, callback,
                    at_quiescence=False):
        """Install a standing maintenance cadence under the shared
        scheduler: *callback* (no arguments) runs every *interval_seconds*
        of simulated time, interleaved with event processing by
        :meth:`run_until` and fired at quiescence by :meth:`run`.

        With *at_quiescence*, :meth:`run` fires the callback at every
        quiescence regardless of the cadence instant — the right policy
        for passes that are no-ops when nothing changed (delta
        replication, service pushes): draining the queue fast-forwards
        past any number of cadence instants, and one pass at quiescence
        leaves the consumer exactly as fresh as ticking through them all
        would have. Without it, :meth:`run` fires only once the cadence
        instant has actually been crossed — the policy for passes with
        per-invocation cost, like GC (which checkpoints every node, so
        firing per run() call would grow each log by one CHK entry).

        Re-adding an existing *name* replaces its schedule. Ties in
        :meth:`run_until` fire in ``(instant, name)`` order, so cadence
        names double as a deterministic tie-break.
        """
        if interval_seconds <= 0:
            raise ConfigurationError(
                f"cadence interval must be positive, got "
                f"{interval_seconds!r}"
            )
        cadence = _Cadence(
            str(name), float(interval_seconds), callback,
            self.sim.now + float(interval_seconds), bool(at_quiescence),
        )
        self._cadences[cadence.name] = cadence
        return cadence

    def remove_cadence(self, name):
        """Uninstall a standing cadence (no-op when absent)."""
        self._cadences.pop(str(name), None)

    def cadence(self, name):
        """The installed :class:`_Cadence` for *name*, or ``None``."""
        return self._cadences.get(str(name))

    def run(self, max_events=None):
        steps = self.sim.run(max_events=max_events)
        due = [c for c in self._cadences.values()
               if c.at_quiescence or self.sim.now >= c.next_t]
        # At-quiescence passes first (historically replication preceded
        # GC at quiescence), then by name for determinism.
        due.sort(key=lambda c: (not c.at_quiescence, c.name))
        for cadence in due:
            cadence.callback()
            cadence.next_t = self.sim.now + cadence.interval
        return steps

    def run_until(self, t):
        while True:
            due = [(c.next_t, c.name, c)
                   for c in self._cadences.values() if c.next_t <= t]
            if not due:
                break
            at, _name, cadence = min(due, key=lambda item: item[:2])
            self.sim.run_until(at)
            cadence.callback()
            cadence.next_t += cadence.interval
        self.sim.run_until(t)

    def checkpoint_all(self):
        for node in self.nodes.values():
            node.checkpoint()

    # --------------------------------------------------------- aggregates

    def crypto_counter_totals(self):
        total = CryptoCounter()
        for identity in self._identities.values():
            total.merge(identity.counter)
        return total

    def _charge_replication(self, origin, response):
        """Meter one replication push: the shipped segment's committed
        bytes (plus head authenticator, added by the meter) charged to
        the origin — replicated log suffixes are real wire traffic, not
        free (the Figure-5-style replication overhead story)."""
        self.traffic.record_replication(
            origin, sum(e.size_bytes() for e in response.entries)
        )

    def replicate_deltas(self):
        """Push each node's log to its replica set (Section 5.8's
        suggested mitigation for destroyed provenance state). Replicas are
        the next :data:`REPLICATION_FACTOR` nodes in id order.

        A replica with no copy yet gets the full log; one that already
        mirrors a prefix is asked only for the entries past its stored
        head (``retrieve(since_index=)``), spliced onto the stored copy
        (:meth:`~repro.snp.snoopy.LogCopy.store`). Run on
        a cadence (see :meth:`enable_replication`) this keeps every
        replica set fresh, so ``find_mirror(since_index=)`` can serve
        view *refreshes* for an origin that has since crashed — not just
        cold builds of whatever stale copy an old full push left behind.

        When the origin's log was GC'd past the stored copy (it answers
        the delta request with a checkpoint-anchored fallback), the
        replica follows only *sanctioned* floors: if the fallback starts
        exactly at the origin's :meth:`sanctioned_floor`, the stale
        copy is re-seeded from it; anything else (an unsanctioned or
        convicted truncation) leaves the stored — possibly fuller — copy
        in place, so a self-truncated origin cannot launder evidence out
        of its replicas by re-pushing.

        Byzantine nodes may refuse to serve or store; replication stays
        best-effort. Only pushes that actually store something are
        charged to the traffic meter and counted in the return value.
        """
        names = sorted(self.nodes, key=str)
        pushes = 0
        for index, name in enumerate(names):
            node = self.nodes[name]
            for step in range(1, REPLICATION_FACTOR + 1):
                replica = self.nodes[names[(index + step) % len(names)]]
                if replica.node_id == name:
                    continue
                copy = replica.mirror_of(name)
                if copy is None:
                    response = node.retrieve()
                else:
                    stored_head = copy.head_index
                    response = node.retrieve(since_index=stored_head)
                    if response is not None and not response.entries:
                        continue  # nothing appended since the last push
                    if response is not None \
                            and response.start_index != stored_head + 1 \
                            and self.sanctioned_floor(name) \
                            == response.start_index:
                        # GC'd past the stored copy, at a sanctioned
                        # floor: re-seed rather than freeze forever.
                        copy = None
                if response is None:
                    continue
                if copy is None:
                    copy = LogCopy(name)
                if not copy.store(response):
                    continue  # nothing stored: no bytes moved
                self._charge_replication(name, response)
                replica.mirror_store[name] = copy
                pushes += 1
        return pushes

    def enable_replication(self, interval_seconds):
        """Install a standing delta-replication cadence.

        While enabled, :meth:`run_until` interleaves a
        :meth:`replicate_deltas` pass every *interval_seconds* of
        simulated time, and :meth:`run` (which drains the queue) performs
        one pass at quiescence — so a deployment that keeps running keeps
        its replica sets fresh without anyone calling replicate by hand.
        Implemented on the shared :meth:`add_cadence` scheduler, so it
        composes with GC and service-push cadences.
        """
        self.add_cadence("replication", interval_seconds,
                         self.replicate_deltas, at_quiescence=True)

    # ------------------------------------------------------ checkpoint GC

    def register_querier(self, querier):
        """Register a standing auditor for the retention handshake: its
        per-node verified heads (``low_water_marks``) become low-water
        marks no GC pass may truncate above. Accepts a
        :class:`~repro.snp.query.QueryProcessor` or a
        :class:`~repro.snp.microquery.MicroQuerier`."""
        if not hasattr(querier, "low_water_marks"):
            raise ConfigurationError(
                "a standing querier must expose low_water_marks()"
            )
        if querier not in self._queriers:
            self._queriers.append(querier)
        return querier

    def unregister_querier(self, querier):
        """Remove a standing auditor (it no longer constrains retention)."""
        if querier in self._queriers:
            self._queriers.remove(querier)

    def collect_low_water_marks(self):
        """The querier half of the retention handshake: per node, the
        minimum verified head any live (registered) standing auditor
        holds. Nodes no auditor tracks are absent — they are
        unconstrained, free to truncate below their newest checkpoint."""
        marks = {}
        for querier in self._queriers:
            for node, head in querier.low_water_marks().items():
                current = marks.get(node)
                marks[node] = head if current is None else min(current, head)
        return marks

    def run_gc(self, checkpoint=True):
        """One retention-handshake pass: collect low-water marks, have
        each node advertise (and sign) its retention floor, convict
        floor-liars, truncate logs, and truncate mirror copies to the
        same sanctioned floors.

        With *checkpoint* (the default) every node records a fresh
        checkpoint first, so the *next* pass — once auditors have
        refreshed past it — always finds an eligible anchor; truncation
        itself only ever uses checkpoints at or below the current marks.

        A node whose signed advertisement exceeds a live auditor's head
        is recorded as a retention fault (the advertisement plus the
        auditor's signed head are the evidence) and its floor is not
        sanctioned: honest replicas keep their fuller mirror copies, and
        queriers treat the node as proven faulty. So is an advertisement
        :func:`~repro.snp.evidence.check_retention_floor` refuses (not
        signed by the node, or below its held floor); the held floor
        stays. Returns the bytes reclaimed this pass.
        """
        if checkpoint:
            self.checkpoint_all()
        marks = self.collect_low_water_marks()
        meter = self.gc_meter
        meter.gc_passes += 1
        reclaimed_before = meter.total_bytes_reclaimed()
        for name in sorted(self.nodes, key=str):
            node = self.nodes[name]
            mark = marks.get(name)
            advert = node.advertise_retention_floor(mark)
            if advert is None:
                continue
            held = self.retention_floors.get(name)
            try:
                check_retention_floor(name, self.public_key_of(name), held,
                                      advert)
            except AuthenticationError as exc:
                # The held floor stays: it is what the node committed to.
                self.maintainer.record_retention_fault(
                    name, str(exc), advert=advert, mark=mark, held=held)
                continue
            self.retention_floors[name] = advert
            if mark is not None and advert.floor_index > mark:
                self.maintainer.record_retention_fault(
                    name,
                    f"advertised retention floor {advert.floor_index} is "
                    f"above a live auditor's verified head {mark}",
                    advert=advert, mark=mark,
                )
                # Unsanctioned: the Byzantine node may still truncate
                # itself below, but honest replicas keep their copies.
                continue
            start_before = node.log.start_index
            meter.log_bytes_reclaimed += node.gc_truncate()
            meter.entries_discarded += node.log.start_index - start_before
        # Mirror copies participate in the same sanctioned floors.
        for holder in self.nodes.values():
            for origin, copy in holder.mirror_store.items():
                floor = self.sanctioned_floor(origin)
                if floor is not None:
                    meter.mirror_bytes_reclaimed += copy.trim(floor)
        return meter.total_bytes_reclaimed() - reclaimed_before

    def enable_gc(self, interval_seconds):
        """Install a standing checkpoint-GC cadence, the retention
        counterpart of :meth:`enable_replication`: :meth:`run_until`
        interleaves a :meth:`run_gc` pass every *interval_seconds* of
        simulated time, and :meth:`run` performs one pass once its
        cadence instant has been crossed — so a deployment that keeps
        running keeps its logs bounded by what live auditors still
        anchor on. Implemented on the shared :meth:`add_cadence`
        scheduler (not ``at_quiescence``: a GC pass checkpoints every
        node, so firing per run() call would grow each log by one CHK
        entry per call)."""
        self.add_cadence("gc", interval_seconds, self.run_gc)

    def find_mirror(self, origin, since_index=None):
        """The best (longest) mirror of *origin*'s log any node holds,
        served (:meth:`~repro.snp.snoopy.LogCopy.serve`): all of it, or
        with *since_index* the suffix after that entry (delta retrieval
        from a replica). ``None`` means no replica holds a copy, or none
        extends past the caller's verified head.
        """
        best = None
        for node in self.nodes.values():
            if node.node_id == origin:
                continue
            mirror = node.mirror_of(origin)
            if mirror is not None and (
                    best is None
                    or mirror.head_auth.index > best.head_auth.index):
                best = mirror
        return None if best is None else best.serve(since_index)
