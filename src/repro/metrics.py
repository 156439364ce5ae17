"""Measurement accounting for the paper's evaluation figures.

Every meter is one record type, :class:`Counters`: a subclass declares
its fields once, as the class tuple ``FIELDS``, and inherits zeroing,
copying, merging, diffing and dumping. The records are

* :class:`TrafficMeter` (Figure 5): message, batch, ack and replication
  counts, beside per-node byte buckets for the figure's categories. The
  paper's fixed wire sizes are used (22 B timestamp+refcount per
  message, 156 B per authenticator, 187 B per acknowledgment) so
  relative overheads are comparable;
* :class:`StorageReport` (Figure 6): one node's log growth, split into
  message contents, signatures, authenticators and index overhead;
* :class:`repro.crypto.keys.CryptoCounter` (Figure 7): RSA sign/verify
  operations per node, turned into CPU load by :class:`CpuReport`;
* :class:`QueryStats` (Figure 8): bytes downloaded and the work an
  audit did, with turnaround split into download / authentication check
  / replay;
* :class:`RetentionMeter` and :class:`ServiceMeter`: checkpoint GC and
  the service plane.

``TIMING_FIELDS`` names the fields that hold elapsed wall-clock seconds.
They are written only through :meth:`Counters.timing` and are left out
of :meth:`Counters.counters`, the deterministic part two audits of the
same state must agree on.

Fields are declared rather than read off the instance so that the
generic methods cannot drop or invent a counter, and so that the
instance dict never changes size after ``__init__``: another thread may
read a record while its owner bumps it. Counters stay plain instance
attributes, so an increment costs what ``x += 1`` costs.
"""

from contextlib import contextmanager
from time import perf_counter

from repro.snp.evidence import (
    TIMESTAMP_OVERHEAD_BYTES, AUTHENTICATOR_BYTES, ACK_BYTES,
)

TRAFFIC_CATEGORIES = (
    "baseline", "proxy", "provenance", "authenticators", "acknowledgments",
    "replication",
)


class Counters:
    """A record of additive counters named by the class tuple ``FIELDS``.

    ``TIMING_FIELDS`` (a subset of ``FIELDS``) holds elapsed seconds,
    added by :meth:`timing`; every other field counts deterministic work.
    :meth:`copy` and :meth:`delta_since` return a record of the same
    class carrying the declared fields only.
    """

    FIELDS = ()
    TIMING_FIELDS = ()

    def __init__(self):
        for field in self.FIELDS:
            setattr(self, field, 0.0 if field in self.TIMING_FIELDS else 0)

    def reset(self):
        """Zero every field."""
        Counters.__init__(self)

    def _zeroed(self):
        blank = object.__new__(type(self))
        Counters.__init__(blank)
        return blank

    def copy(self):
        snap = self._zeroed()
        snap.merge(self)
        return snap

    def merge(self, other):
        """Add *other*'s fields into this record."""
        for field in self.FIELDS:
            setattr(self, field, getattr(self, field) + getattr(other, field))

    def delta_since(self, before):
        """What accumulated since *before* (an earlier :meth:`copy`)."""
        delta = self._zeroed()
        for field in self.FIELDS:
            setattr(delta, field,
                    getattr(self, field) - getattr(before, field))
        return delta

    def counters(self):
        """The deterministic (non-timing) fields, as a dict — what two
        audits of the same state must agree on."""
        return {field: getattr(self, field) for field in self.FIELDS
                if field not in self.TIMING_FIELDS}

    def as_dict(self):
        return {field: getattr(self, field) for field in self.FIELDS}

    @contextmanager
    def timing(self, field):
        """Add the seconds the ``with`` body takes to *field*, also when
        it raises."""
        started = perf_counter()
        try:
            yield
        finally:
            setattr(self, field,
                    getattr(self, field) + perf_counter() - started)

    def __repr__(self):
        busy = {k: v for k, v in self.as_dict().items() if v}
        return f"{type(self).__name__}({busy!r})"


class TrafficMeter(Counters):
    """Byte counters per traffic category, per node."""

    FIELDS = ("messages_sent", "batches_sent", "acks_sent",
              "replication_pushes")

    def __init__(self):
        super().__init__()
        self._bytes = {}      # node -> {category: bytes}

    def _bucket(self, node):
        return self._bytes.setdefault(
            node, {category: 0 for category in TRAFFIC_CATEGORIES}
        )

    def reset(self):
        """Zero all counters (used to measure steady state after a
        bootstrap/warm-up phase, as the paper's stabilized-ring numbers
        do)."""
        super().reset()
        self._bytes.clear()

    def record_batch(self, node, msgs, native_sizer=None):
        """Account one WireBatch worth of traffic sent by *node*.

        *native_sizer(msg) -> (native_bytes, overhead_category)* maps each
        message to the size the unmodified primary system would have sent
        and says whether the tuple-encoding overhead counts as 'proxy' (the
        Quagga case) or 'provenance' (instrumented applications).
        """
        bucket = self._bucket(node)
        for msg in msgs:
            payload = msg.payload_size()
            if native_sizer is not None:
                native, category = native_sizer(msg)
                native = min(native, payload)
            else:
                native, category = payload, "provenance"
            bucket["baseline"] += native
            bucket[category] += payload - native
            bucket["provenance"] += TIMESTAMP_OVERHEAD_BYTES
            self.messages_sent += 1
        bucket["authenticators"] += AUTHENTICATOR_BYTES
        self.batches_sent += 1

    def record_ack(self, node):
        self._bucket(node)["acknowledgments"] += ACK_BYTES
        self.acks_sent += 1

    def record_replication(self, node, nbytes):
        """Account one log-replication push originated by *node*: the
        shipped segment's committed bytes plus the head authenticator."""
        self._bucket(node)["replication"] += nbytes + AUTHENTICATOR_BYTES
        self.replication_pushes += 1

    def totals(self):
        """Aggregate byte counts across all nodes, per category."""
        out = {category: 0 for category in TRAFFIC_CATEGORIES}
        for bucket in self._bytes.values():
            for category, value in bucket.items():
                out[category] += value
        return out

    def node_totals(self, node):
        return dict(self._bucket(node))

    def total_bytes(self):
        return sum(self.totals().values())

    def baseline_bytes(self):
        return self.totals()["baseline"]

    def overhead_factor(self):
        """Total traffic normalized to the baseline (Figure 5's y-axis)."""
        baseline = self.baseline_bytes()
        if baseline == 0:
            return 0.0
        return self.total_bytes() / baseline


class RetentionMeter(Counters):
    """Checkpoint-GC accounting: what the retention handshake reclaims.

    ``log_bytes_reclaimed`` counts committed entry bytes truncated from
    node logs, ``mirror_bytes_reclaimed`` the same for replica-held
    mirror copies; ``gc_passes`` counts handshake passes and
    ``entries_discarded`` the log entries dropped — together they bound
    the steady-state storage story
    ``tests/integration/test_checkpoint_gc.py::TestSteadyState`` asserts.
    """

    FIELDS = ("gc_passes", "log_bytes_reclaimed", "mirror_bytes_reclaimed",
              "entries_discarded")

    def total_bytes_reclaimed(self):
        return self.log_bytes_reclaimed + self.mirror_bytes_reclaimed


class StorageReport(Counters):
    """Per-node log growth breakdown (Figure 6)."""

    FIELDS = ("message_bytes", "signature_bytes", "authenticator_bytes",
              "index_bytes", "checkpoint_bytes", "entries")

    # Fixed per-entry byte estimates matching the wire-size constants.
    SIGNATURE_BYTES = 128
    INDEX_BYTES = 16

    def __init__(self, node_id, duration_seconds):
        super().__init__()
        self.node_id = node_id
        self.duration_seconds = duration_seconds

    @classmethod
    def from_log(cls, log, duration_seconds):
        report = cls(log.node_id, duration_seconds)
        from repro.snp.log import SND, RCV, ACK, CHK
        from repro.util.serialization import canonical_size
        for entry in log.entries:
            report.entries += 1
            report.index_bytes += cls.INDEX_BYTES
            size = canonical_size(entry.content)
            if entry.entry_type in (SND, RCV):
                report.message_bytes += size
                if entry.entry_type == RCV:
                    # rcv entries embed the sender's authenticator.
                    report.authenticator_bytes += AUTHENTICATOR_BYTES
                    report.signature_bytes += cls.SIGNATURE_BYTES
            elif entry.entry_type == ACK:
                report.authenticator_bytes += AUTHENTICATOR_BYTES
                report.signature_bytes += cls.SIGNATURE_BYTES
            elif entry.entry_type == CHK:
                report.checkpoint_bytes += size
            else:
                report.message_bytes += size
        return report

    def total_bytes(self, include_checkpoints=False):
        total = (
            self.message_bytes + self.signature_bytes
            + self.authenticator_bytes + self.index_bytes
        )
        if include_checkpoints:
            total += self.checkpoint_bytes
        return total

    def growth_mb_per_minute(self):
        """Log growth excluding checkpoints, as Figure 6 reports it."""
        if self.duration_seconds <= 0:
            return 0.0
        per_second = self.total_bytes() / self.duration_seconds
        return per_second * 60 / 1e6


class CpuReport:
    """Crypto-operation CPU accounting (Figure 7)."""

    def __init__(self, counter, duration_seconds, hashed_bytes=0,
                 sign_cost=None, verify_cost=None, hash_cost_per_mb=None):
        self.counter = counter
        self.duration_seconds = duration_seconds
        #: Not metered on the record path: the caller derives it from
        #: what a run already records (each committed log entry is hashed
        #: once, plus any input hashed by reference).
        self.hashed_bytes = hashed_bytes
        self.sign_cost = sign_cost
        self.verify_cost = verify_cost
        self.hash_cost_per_mb = hash_cost_per_mb

    def cpu_seconds(self):
        """Estimated CPU time spent on crypto over the run."""
        total = 0.0
        if self.sign_cost is not None:
            total += self.counter.signatures * self.sign_cost
        if self.verify_cost is not None:
            total += self.counter.verifications * self.verify_cost
        if self.hash_cost_per_mb is not None:
            total += (self.hashed_bytes / 1e6) * self.hash_cost_per_mb
        return total

    def load_percent(self):
        """Average additional CPU load as % of one core (Figure 7's axis)."""
        if self.duration_seconds <= 0:
            return 0.0
        return 100.0 * self.cpu_seconds() / self.duration_seconds


class QueryStats(Counters):
    """Per-query cost accounting (Figure 8).

    One lives on each querier; every build counts straight into it, one
    node at a time in canonical node order. Integer counters are
    therefore a deterministic function of the audit, while the
    wall-clock fields in ``TIMING_FIELDS`` are not (they time real
    execution) and are excluded from equivalence checks via
    :meth:`counters`.
    """

    DOWNLOAD_BANDWIDTH_BPS = 10e6 / 8  # paper assumes a 10 Mbps download

    FIELDS = (
        "log_bytes", "authenticator_bytes", "checkpoint_bytes",
        "logs_fetched", "delta_fetches", "cache_hits", "refreshes",
        "auth_check_seconds", "replay_seconds",
        "events_replayed", "signatures_verified",
        # Authenticators found behind a view's verified base (below its
        # checkpoint anchor) and above the node's signed retention floor:
        # owed to the anchoring fetch, counted once each.
        "auth_checks_skipped",
        # Skipped authenticators later compared with a verified chain
        # (the anchoring fetch, or a rebuild that reaches further back).
        "auth_checks_recovered",
        # Authenticators that can never be checked: they fall behind a
        # view's base and below a node's advertised retention floor,
        # whose prefix checkpoint GC has permanently discarded (dropped
        # instead of owed forever).
        "auth_checks_tombstoned",
        "microqueries",
        # Anchoring-segment fetches: targeted retrievals issued solely to
        # check skipped authenticators against a wider chain segment
        # (instead of waiting for a later full build).
        "anchor_fetches",
        # Differential-engine work done inside replays: presence toggles
        # the replayed machines consumed, Der/Und derivation changes they
        # emitted, derivation instances dropped because a support
        # disappeared, and min/max recomputes forced by a disappearing
        # support. Deterministic per replay, so they are in counters().
        "delta_tuples_in", "delta_tuples_out", "retractions_applied",
        "support_rederivations",
    )
    TIMING_FIELDS = ("auth_check_seconds", "replay_seconds")

    def downloaded_bytes(self):
        return self.log_bytes + self.authenticator_bytes + self.checkpoint_bytes

    def download_seconds(self):
        return self.downloaded_bytes() / self.DOWNLOAD_BANDWIDTH_BPS

    def turnaround_seconds(self):
        """Estimated query turnaround: download + verification + replay."""
        return (
            self.download_seconds() + self.auth_check_seconds
            + self.replay_seconds
        )


class ServiceMeter(Counters):
    """Counters for the service plane (transport, daemon, pusher).

    One meter lives on the monitor daemon and one on each pusher; both
    sides expose it through ``/status`` and the push acks, so a load
    test can read the shedding ladder directly: ``pushes_shed`` and
    ``poll_fallbacks`` climbing while ``alerts_dropped`` stays zero is
    the intended degradation order (DESIGN.md, "Service plane").
    """

    FIELDS = (
        # framing / transport
        "frames_sent", "frames_received", "bytes_sent", "bytes_received",
        "garbage_bytes", "corrupt_frames", "oversized_frames",
        # well-framed payloads naming a global (frames resolve none):
        # written to be hostile, where the three above can be a bad cable
        "refused_globals",
        # node → daemon pushes
        "pushes_sent", "pushes_accepted", "pushes_shed", "push_retries",
        "push_failures", "poll_fallbacks",
        # daemon query plane
        "refresh_batches", "requests_batched", "queries_served",
        "answers_reused",   # REST queries served from the answer table
        "refreshes_served", "subscriptions_opened", "watch_evaluations",
        "watch_evaluations_skipped", "alerts_emitted", "alerts_dropped",
        # daemon REST plane: connections accepted, requests begun on
        # them, connections closed by the idle or the request deadline
        "http_connections", "http_requests", "http_timeouts",
    )

    def absorb_decoder(self, decoder):
        """Fold a :class:`~repro.service.framing.FrameDecoder`'s damage
        counters in (called when a connection closes)."""
        self.garbage_bytes += decoder.garbage_bytes
        self.corrupt_frames += decoder.corrupt_frames
        self.oversized_frames += decoder.oversized_frames
        self.refused_globals += decoder.refused_globals
        decoder.garbage_bytes = 0
        decoder.corrupt_frames = 0
        decoder.oversized_frames = 0
        decoder.refused_globals = 0
