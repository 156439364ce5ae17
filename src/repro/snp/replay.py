"""Deterministic replay: log segment → history → provenance subgraph.

Appendix D of the paper maps SNooPy logs onto GCA histories: "the logs
maintained by the graph recorder are essentially histories, except that, for
convenience, the latter contain an explicit ack entry type instead of
rcv(ack)". The conversion rules:

* ``ins``/``del`` entries become ``ins``/``del`` events;
* a ``snd`` entry becomes a ``snd`` event;
* a ``rcv`` entry becomes a ``rcv`` event **followed by the implied
  ``snd(ack)`` event** — a correct node acknowledges a message immediately,
  and its commitment to the rcv entry is the acknowledgment, so the history
  reconstructs the per-message ack the GCA expects;
* an ``ack`` entry becomes a ``rcv(ack)`` event covering the acknowledged
  messages;
* ``chk`` entries are not events; they seed the replay (state-machine
  snapshot + open exist/believe vertices).

Replay then runs the GCA over these events with a *fresh* state machine
built by the node's registered application factory, yielding the node's
partition of Gν.

Replay correctness leans on the engine's determinism contract (see
DESIGN.md): the indexed evaluator sorts every observable result into
canonical order, and checkpoint snapshots carry logical state only —
restoring one onto a fresh machine rebuilds the derived join-index state,
so a replay seeded from a checkpoint is byte-identical to the original
run regardless of evaluation strategy or hash randomization.

Ownership: everything here is either a pure function of its arguments or
mutates only the GCA/ReplayResult it was handed. One replay (and its
later extensions) belongs to exactly one node view, so replays of
*different* nodes never share mutable state — they only read the
deployment's app factories, which must already be side-effect-free for
replay to be deterministic at all.
"""

from repro.model import Ack
from repro.provgraph.gca import Event, GraphConstructor
from repro.snp.log import INS, DEL, SND, RCV, ACK, CHK
from repro.util.errors import LogVerificationError, ReplayDivergence


def log_entries_to_history(node_id, entries):
    """Convert a contiguous run of log entries into GCA events."""
    events = []
    for entry in entries:
        t = entry.timestamp
        if entry.entry_type == INS:
            events.append(Event(t, node_id, "ins", entry.aux["tup"]))
        elif entry.entry_type == DEL:
            events.append(Event(t, node_id, "del", entry.aux["tup"]))
        elif entry.entry_type == SND:
            events.append(Event(t, node_id, "snd", entry.aux["msg"]))
        elif entry.entry_type == RCV:
            msg = entry.aux["msg"]
            events.append(Event(t, node_id, "rcv", msg))
            implied_ack = Ack(node_id, msg.src, [msg], t)
            events.append(Event(t, node_id, "snd", implied_ack))
        elif entry.entry_type == ACK:
            wire_ack = entry.aux["wire_ack"]
            ack = Ack(wire_ack.src, node_id, wire_ack.msgs,
                      wire_ack.auth.timestamp)
            events.append(Event(t, node_id, "rcv", ack))
        elif entry.entry_type == CHK:
            continue
        else:
            raise LogVerificationError(node_id,
                                       f"unknown entry {entry.entry_type}")
    return events


def verify_segment_hashes(response, encoded):
    """Recompute the hash chain over a RetrieveResponse's entries.

    Every entry's content digest is recomputed from its *content* — never
    trusted from the entry — and folded into the chain. *encoded* is
    :func:`~repro.snp.log.encode_contents` of the entries, taken by the
    querier when the segment arrived: the digest hashes those bytes, so
    the content is not encoded a second time. (``content_digest`` hashes
    a ``bytes`` content raw, not its encoding; so does this.) Returns the
    list of chain hashes aligned with the entries. Raises
    LogVerificationError if anything fails to recompute, which means the
    node altered entry contents after committing to them, or if an
    anchor, timestamp or type is not of the form a chain step takes.
    """
    from repro.crypto.hashing import chain_hash, content_digest

    if len(encoded) != len(response.entries):
        raise ValueError("one encoding per entry is required")
    hashes = []
    current = response.start_hash
    for entry, data in zip(response.entries, encoded):
        content = entry.content
        digest = content_digest(content if isinstance(content, bytes)
                                else data)
        if digest != entry.content_hash:
            raise LogVerificationError(
                response.node,
                f"entry {entry.index} content does not match its digest",
            )
        try:
            current = chain_hash(
                current, entry.timestamp, entry.entry_type, digest
            )
        except ValueError:
            raise LogVerificationError(
                response.node,
                f"entry {entry.index} is not of a form the chain hashes",
            ) from None
        if entry.entry_hash != current:
            raise LogVerificationError(
                response.node,
                f"entry {entry.index} hash does not recompute",
            )
        hashes.append(current)
    return hashes


def check_against_authenticator(response, hashes, auth):
    """Check that authenticator *auth* lies on this segment's chain.

    The authenticator's (index, hash) must match the segment. Raises
    LogVerificationError on mismatch — that is *proof* the node forked or
    rewrote its log, because both the authenticator and the returned
    segment are signed/committed by the same node.

    A partial segment (checkpoint- or delta-anchored) still pins one hash
    *before* its first entry: ``response.start_hash`` is ``h_{start-1}``,
    so an authenticator for entry ``start-1`` is checkable too; one
    strictly before that cannot be compared against the segment. The
    querier checks a response's own head authenticator with this; the
    evidence it holds about a node is compared with the node's verified
    chain by :func:`repro.snp.build.settle`.
    """
    index = auth.index
    first = response.start_index
    last = response.head_index
    if index == first - 1:
        if auth.entry_hash != response.start_hash:
            raise LogVerificationError(
                response.node,
                f"authenticator for entry {index} does not match the hash "
                "anchoring the returned segment (equivocation or tampering)",
            )
        return
    if index < first - 1:
        return  # authenticator predates the segment; nothing to compare
    if index > last:
        raise LogVerificationError(
            response.node,
            f"returned log ends at {last} but evidence covers {index}",
        )
    found = hashes[index - first]
    if found != auth.entry_hash:
        raise LogVerificationError(
            response.node,
            f"authenticator for entry {index} does not match the log "
            "(equivocation or tampering)",
        )


class ReplayResult:
    """Outcome of replaying one node's log segment.

    Retains the :class:`~repro.provgraph.gca.GraphConstructor` so a later
    verified log *suffix* can be replayed onto the same state with
    :func:`extend_replay` instead of rebuilding from entry 1.
    """

    __slots__ = ("node", "graph", "events_replayed", "failure", "gca")

    def __init__(self, node, graph, events_replayed, failure=None, gca=None):
        self.node = node
        self.graph = graph
        self.events_replayed = events_replayed
        self.failure = failure
        self.gca = gca

    @property
    def ok(self):
        return self.failure is None


#: Engine delta cost counters harvested off replayed machines into
#: the querier's QueryStats (each is deterministic per replayed segment).
_DELTA_COUNTERS = (
    "delta_tuples_in", "delta_tuples_out", "retractions_applied",
    "support_rederivations",
)


def _delta_counter_totals(gca):
    """Sum the delta counters over every machine the GCA holds.

    New machines start all-zero, so a before/after difference of these
    totals is exactly the work one drive did — even when the drive itself
    lazily created machines."""
    totals = dict.fromkeys(_DELTA_COUNTERS, 0)
    for machine in gca.machines.values():
        for field in _DELTA_COUNTERS:
            totals[field] += getattr(machine, field, 0)
    return totals


def _drive_gca(result, entries, stats, seed=None):
    """Feed *entries* (converted to history events) through *result*'s
    GCA, capturing a crash as ``result.failure`` — the shared core of
    :func:`replay_segment` and :func:`extend_replay`, kept single so the
    incremental replay can never diverge from the full one.

    A *seed* ``chk`` entry is restored first: its snapshot onto the
    node's fresh machine, and the tuples the restored machine holds as
    open exist/believe vertices. A snapshot the machine cannot restore
    is a crash like any other the log commits to.

    *stats* (a QueryStats) receives the replay cost: wall-clock seconds,
    events processed, and the engine's delta counters
    accumulated by the replayed machines during this drive.
    """
    gca = result.gca
    events = log_entries_to_history(result.node, entries)
    before = _delta_counter_totals(gca)
    result.failure = None
    processed = 0
    with stats.timing("replay_seconds"):
        try:
            if seed is not None:
                machine = gca.machine(result.node)
                machine.restore(seed.aux["snapshot"])
                gca.seed_node(result.node, machine.extant_tuples(),
                              machine.believed_tuples())
            for event in events:
                gca.process(event)
                processed += 1
        except Exception as exc:  # hostile log crashed the replay machinery
            result.failure = ReplayDivergence(result.node, repr(exc))
    result.events_replayed += processed
    stats.events_replayed += processed
    after = _delta_counter_totals(gca)
    for field in _DELTA_COUNTERS:
        setattr(stats, field,
                getattr(stats, field) + after[field] - before[field])


def replay_segment(node_id, response, app_factory, t_prop, stats,
                   known_alarm_msg_ids=frozenset()):
    """Replay a verified RetrieveResponse through the GCA.

    Returns a ReplayResult whose graph is the node's partition of Gν. A
    structurally impossible log (one the deterministic state machine cannot
    have produced) does not raise: the GCA colors the offending vertices
    red, which is exactly the paper's semantics. Only outright crashes of
    the application machine are caught and reported as a replay failure
    (which the microquery module turns into a red vertex).

    *stats* (a QueryStats) receives the replay cost directly — the
    querier passes its own.
    """
    gca = GraphConstructor(app_factory, t_prop=t_prop)
    gca.known_alarm_msg_ids = known_alarm_msg_ids
    result = ReplayResult(node_id, gca.graph, 0, gca=gca)
    _drive_gca(result, response.entries, stats, seed=response.seed)
    return result


def extend_replay(node_id, result, response, stats,
                  known_alarm_msg_ids=frozenset()):
    """Continue a previous replay with a verified log suffix.

    *result* must be the ReplayResult of an earlier replay of the same
    node: its retained GCA still holds the bookkeeping state (open
    exist/believe intervals, pending sends, unacked messages) and the
    node's replayed state machine, so processing only the new events
    yields the same graph a full re-replay of the extended log would.
    The alarm set is refreshed to what the maintainer knows *now* —
    verdicts on older events keep reflecting what was known when their
    segment was audited (see DESIGN.md, "Audit path").

    Mutates *result* in place, with the same crash-capture semantics as
    :func:`replay_segment`.
    """
    gca = result.gca
    if gca is None:
        raise ValueError(
            f"replay result for {node_id!r} does not retain its GCA; "
            "cannot extend"
        )
    gca.known_alarm_msg_ids = known_alarm_msg_ids
    # No snapshot is taken or restored anywhere on this path: the suffix
    # drives the retained machine exactly as a full re-replay would.
    _drive_gca(result, response.entries, stats)
