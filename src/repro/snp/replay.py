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
* ``chk`` entries are not events. The one a segment starts at seeds the
  replay (state-machine snapshot + open exist/believe vertices); every
  other one the replay passes is *compared*: it is the node's signed claim
  that its machine's state there hashes to its digest, and a replayed
  machine whose snapshot does not is a replay divergence at that entry.

Replay then runs the GCA over these events with a *fresh* state machine
built by the node's registered application factory, yielding the node's
partition of Gν. It comes in two passes over one drive core
(:func:`_drive_gca`): the *verify pass* drives the machine alone
(:class:`MachineStepper`) — all a verdict reads — and the *graph pass*
runs the GCA. :func:`replay_segment` runs both in one drive, or the verify
pass alone; then the result keeps what the graph pass needs and runs it
the first time its graph is read. :func:`extend_replay` drives a suffix
through whichever the result holds: the GCA once a graph exists, else
the machine alone, keeping the suffix for the graph pass.

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

from repro.crypto.hashing import content_digest
from repro.model import Ack
from repro.provgraph.gca import Event, GraphConstructor, seed_vertices
from repro.snp.log import INS, DEL, SND, RCV, ACK, CHK
from repro.util.errors import (ContentUnavailable, LogVerificationError,
                                ReplayDivergence)


def log_entries_to_history(node_id, entries):
    """Convert a contiguous run of log entries into GCA events."""
    events = []
    for entry in entries:
        t = entry.timestamp
        if entry.entry_type == INS:
            events.append(Event(t, node_id, "ins", entry.content))
        elif entry.entry_type == DEL:
            events.append(Event(t, node_id, "del", entry.content))
        elif entry.entry_type == SND:
            events.append(Event(t, node_id, "snd", entry.content[0]))
        elif entry.entry_type == RCV:
            msg = entry.content[0]
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
    a ``bytes`` content raw, not its encoding; so does this. A content
    that does not encode, ``None`` in *encoded*, matches no digest.)
    Returns the list of chain hashes aligned with the entries. Raises
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
        if isinstance(content, bytes):
            data = content
        digest = None if data is None else content_digest(data)
        if digest is None or digest != entry.content_hash:
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
    """Check that *auth*, the segment's head authenticator, covers its
    last entry: signs that entry's index and its recomputed hash
    (*hashes*, from :func:`verify_segment_hashes`). An empty segment's
    last entry is its anchor, ``start_index - 1`` on ``start_hash``.

    Raises LogVerificationError otherwise. A hash mismatch is *proof*
    the node forked or rewrote its log, since both the authenticator and
    the segment are committed by the same node. A head that signs
    another entry binds nothing past it: entries beyond an earlier head
    could be anyone's. The querier checks a response's own head
    authenticator with this; the evidence it holds about a node is
    compared with the node's verified chain by
    :func:`repro.snp.build.settle`.
    """
    last = response.head_index
    if auth.index != last:
        raise LogVerificationError(
            response.node,
            f"returned log ends at {last} but its head authenticator "
            f"covers {auth.index}",
        )
    if auth.entry_hash != (hashes[-1] if hashes else response.start_hash):
        raise LogVerificationError(
            response.node,
            f"authenticator for entry {last} does not match the log "
            "(equivocation or tampering)",
        )


class ReplayResult:
    """Outcome of replaying one node's log segment, and of every suffix
    :func:`extend_replay` later drove it through.

    ``gca`` is the :class:`~repro.provgraph.gca.GraphConstructor` that
    built ``graph`` and holds the node's replayed machine, retained so a
    later verified log *suffix* can be replayed onto the same state
    instead of rebuilding from entry 1. Until the graph is first read it
    is None, and ``kept`` holds what the graph pass replays: the
    verified response whose seed the machine starts from, the app
    factory, Tprop, the stats the verify pass counted into, and the
    verified segments in order — the response's entries, then each
    suffix — each with the alarm set its own pass saw. ``stepper`` is
    the :class:`MachineStepper` a graphless result extends; a prefetch
    keeps none, and the first extension rebuilds it from ``kept``.
    Reading ``graph`` runs the graph pass over ``kept``, once, and drops
    ``kept`` and the stepper. ``events_replayed`` counts the events this
    result's machine was driven through, each once.
    """

    __slots__ = ("node", "events_replayed", "failure", "gca", "kept",
                 "stepper")

    def __init__(self, node):
        self.node = node
        self.events_replayed = 0
        self.failure = None
        self.gca = None
        self.kept = None
        self.stepper = None

    @property
    def ok(self):
        return self.failure is None

    @property
    def graph(self):
        """The node's partition of Gν — the one read of it."""
        return self.constructor().graph

    def constructor(self):
        """The retained GCA; a result without one runs its graph pass
        here, the first time it is asked."""
        if self.gca is None:
            _response, app_factory, t_prop, stats, _segments = self.kept
            self.gca = GraphConstructor(app_factory, t_prop=t_prop)
            stats.graphs_built += 1
            self._redrive(self.gca)
            self.kept = self.stepper = None
        return self.gca

    def _redrive(self, driver):
        """Drive a fresh *driver* through the kept segments from the
        kept seed, each under its own alarm set, counting no event: the
        verify pass counted them all."""
        response, _app_factory, _t_prop, stats, segments = self.kept
        seed = response.seed
        for entries, alarms in segments:
            driver.known_alarm_msg_ids = alarms
            _drive_gca(self, driver, entries, stats, seed=seed,
                       counted=False)
            seed = None


class MachineStepper:
    """The verify pass's driver: the node's state machine alone, in the
    GCA's place in :func:`_drive_gca`. It takes the same events and the
    same seed and reads what the GCA reads that can fail — the machine's
    handlers, the seeded tuples' vertex keys — and builds no vertex. It
    holds an alarm set only because the GCA does: no machine reads
    one."""

    __slots__ = ("machine_factory", "machines", "known_alarm_msg_ids")

    def __init__(self, machine_factory):
        self.machine_factory = machine_factory
        self.machines = {}
        self.known_alarm_msg_ids = frozenset()

    def machine(self, node):
        if node not in self.machines:
            self.machines[node] = self.machine_factory(node)
        return self.machines[node]

    def process(self, event):
        machine = self.machine(event.node)
        kind = event.kind
        if kind == "ins":
            machine.handle_insert(event.payload, event.t)
        elif kind == "del":
            machine.handle_delete(event.payload, event.t)
        elif kind == "rcv":
            machine.handle_receive(event.payload, event.t)

    def seed_node(self, node, extant, believed):
        for _vertex in seed_vertices(node, extant, believed):
            pass


#: Engine delta cost counters harvested off replayed machines into
#: the querier's QueryStats (each is deterministic per replayed segment).
_DELTA_COUNTERS = (
    "delta_tuples_in", "delta_tuples_out", "retractions_applied",
    "support_rederivations",
)


def _delta_counter_totals(driver):
    """Sum the delta counters over every machine *driver* holds.

    New machines start all-zero, so a before/after difference of these
    totals is exactly the work one drive did — even when the drive itself
    lazily created machines."""
    totals = dict.fromkeys(_DELTA_COUNTERS, 0)
    for machine in driver.machines.values():
        for field in _DELTA_COUNTERS:
            totals[field] += getattr(machine, field, 0)
    return totals


def _check_checkpoint(node_id, machine, entry):
    """A ``chk`` entry the replay passes must commit to the replayed
    machine's state; otherwise the node's log diverges from its own
    signed claim, at that entry."""
    if entry.content != ("checkpoint", content_digest(machine.snapshot())):
        raise ReplayDivergence(
            node_id, f"chk entry {entry.index} does not commit to the "
            "replayed machine's state")


def _checkpoint_runs(entries):
    """Cut *entries* at their ``chk`` entries: ``(run, chk)`` pairs, each
    run the entries before its ``chk`` (None after the last run)."""
    start = 0
    for i, entry in enumerate(entries):
        if entry.entry_type == CHK:
            yield entries[start:i], entry
            start = i + 1
    yield entries[start:], None


def _drive_gca(result, driver, entries, stats, seed=None, counted=True):
    """Feed *entries* (converted to history events) through *driver* —
    the GCA, or the verify pass's :class:`MachineStepper` — capturing a
    crash as ``result.failure``: the one drive core of both passes and of
    :func:`replay_segment` and :func:`extend_replay`, kept single so the
    incremental replay can never diverge from the full one, nor the graph
    pass from the verify pass.

    A *seed* ``chk`` entry is restored first: its snapshot onto the
    node's fresh machine, and the tuples the restored machine holds as
    open exist/believe vertices. Every other ``chk`` entry is compared
    with the machine's state when the drive reaches it
    (:func:`_check_checkpoint`). A snapshot the machine cannot restore,
    or a comparison that fails, is a crash like any other the log commits
    to (a withheld input, a :class:`~repro.util.errors.ContentUnavailable`,
    is no crash).

    *stats* (a QueryStats) receives the replay cost: wall-clock seconds,
    and — unless the drive re-runs entries a verify pass already
    *counted* (a graph pass, or a machine rebuilt for an extension) —
    events processed and the engine's delta counters accumulated by the
    driven machines.
    """
    node = result.node
    runs = [(log_entries_to_history(node, run), chk)
            for run, chk in _checkpoint_runs(entries)]
    before = _delta_counter_totals(driver)
    result.failure = None
    processed = 0
    with stats.timing("replay_seconds"):
        try:
            if seed is not None:
                machine = driver.machine(node)
                machine.restore(seed.aux["snapshot"])
                driver.seed_node(node, machine.extant_tuples(),
                                 machine.believed_tuples())
            for events, chk in runs:
                for event in events:
                    driver.process(event)
                    processed += 1
                if chk is not None and chk is not seed:
                    _check_checkpoint(node, driver.machine(node), chk)
        except ContentUnavailable as exc:  # withheld input, no crash
            result.failure = exc
        except ReplayDivergence as exc:
            result.failure = exc
        except Exception as exc:  # hostile log crashed the replay machinery
            result.failure = ReplayDivergence(node, repr(exc))
    if not counted:
        return
    result.events_replayed += processed
    stats.events_replayed += processed
    after = _delta_counter_totals(driver)
    for field in _DELTA_COUNTERS:
        setattr(stats, field,
                getattr(stats, field) + after[field] - before[field])


def replay_segment(node_id, response, app_factory, t_prop, stats,
                   known_alarm_msg_ids=frozenset(), graph=True):
    """Replay a verified RetrieveResponse.

    Returns a ReplayResult whose graph is the node's partition of Gν. A
    structurally impossible log (one the deterministic state machine cannot
    have produced) does not raise: the GCA colors the offending vertices
    red, which is exactly the paper's semantics. Only crashes of the
    application machine (the querier's red) and a withheld input (its
    yellow) are caught, and reported as a replay failure.

    With *graph* (the default) both passes run in one drive: a fresh GCA
    drives the machine and builds the graph, and counts one
    ``graphs_built``. Without it this is the verify pass alone — the
    machine, which decides the failure — and the result keeps what the
    graph pass needs (:class:`ReplayResult`), but not the machine.

    *stats* (a QueryStats) receives the replay cost directly — the
    querier passes its own.
    """
    result = ReplayResult(node_id)
    if graph:
        driver = result.gca = GraphConstructor(app_factory, t_prop=t_prop)
        stats.graphs_built += 1
    else:
        driver = MachineStepper(app_factory)
        result.kept = (response, app_factory, t_prop, stats,
                       [(response.entries, known_alarm_msg_ids)])
    driver.known_alarm_msg_ids = known_alarm_msg_ids
    _drive_gca(result, driver, response.entries, stats, seed=response.seed)
    return result


def extend_replay(node_id, result, response, stats,
                  known_alarm_msg_ids=frozenset()):
    """Continue a previous replay with a verified log suffix.

    *result* must be the ReplayResult of an earlier replay of the same
    node. A result whose graph is built drives its retained GCA: it
    holds the bookkeeping state (open exist/believe intervals, pending
    sends, unacked messages) and the node's replayed state machine, so
    processing only the new events yields the same graph a full
    re-replay of the extended log would. A result no graph read has
    reached drives its machine alone — ``stepper``, rebuilt from
    ``kept`` if a prefetch left none — and keeps the suffix for the
    graph pass. Either way the suffix is
    judged under the alarm set the maintainer knows *now* — verdicts on
    older events keep reflecting what was known when their segment was
    audited (see DESIGN.md, "Audit path").

    Mutates *result* in place, with the same crash-capture semantics as
    :func:`replay_segment`.
    """
    driver = result.gca
    if driver is None:
        if result.stepper is None:
            app_factory = result.kept[1]
            result.stepper = MachineStepper(app_factory)
            result._redrive(result.stepper)
        driver = result.stepper
        result.kept[-1].append((response.entries, known_alarm_msg_ids))
    driver.known_alarm_msg_ids = known_alarm_msg_ids
    # No snapshot is taken or restored anywhere on this path: the suffix
    # drives the retained machine exactly as a full re-replay would.
    _drive_gca(result, driver, response.entries, stats)
