"""The worker-resident view cache: what a process-pool worker keeps.

A :class:`~repro.snp.executor.ProcessExecutor` worker *owns* the views it
builds: each ``ok`` replay stays parked here, pinned to the verified head
it was built or extended to, so a refresh ships a head reference plus the
log delta and graph reads run next to the graph. These are the entry
points the executor submits (spawned workers import them by name); the
work itself is :func:`repro.snp.build.compute_build`. Anything missing
answers ``cache-miss`` / ``W.lost`` and the coordinator rebuilds cold.
"""

import time
from collections import OrderedDict

from repro.metrics import QueryStats
from repro.provgraph.graph import _clone_vertex
from repro.snp.build import (
    BuildContext, BuildWork, CompactOutcome, compute_build, graph_read,
    response_head,
)
from repro.snp.wire import WireError, _ResidentRef, replay_to_wire

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


class _ResidentEntry:
    """One worker-owned view: the live replay plus the verified head
    ``(index, hash)`` it is parked at. ``app_spec`` is the factory registry spec the entry's
    machines were built from: factories are resolved per work item (a refreshed
    content store must never be stale), so an extend whose work carries
    a *different* spec rebinds the machines first (see
    :func:`_rebind_machines`).
    """

    __slots__ = ("result", "head", "app_spec")

    def __init__(self, result, head, app_spec=None):
        self.result = result
        self.head = head
        self.app_spec = app_spec


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


def _resident_extend(work):
    """Run an extend whose base replay lives in this worker's cache."""
    ref = work.base_replay
    entry = _RESIDENT.get(work.node)
    if entry is None or entry.head != (ref.head_index, ref.head_hash):
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
            entry.head = response_head(work.response, outcome.hashes)
        outcome.replay_result = None
        outcome.resident_head = entry.head
    elif outcome.status == CompactOutcome.VERIFY_FAILED:
        # Verification precedes replay: the entry is still exactly at its
        # committed head and stays resident (a kept-stale view can extend
        # it later).
        outcome.resident_head = entry.head
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
    result = outcome.replay_result
    if outcome.status != CompactOutcome.OK or result is None:
        return  # e.g. an empty wire-carried extend: nothing newly built
    head = response_head(work.response, outcome.hashes)
    _RESIDENT[work.node] = _ResidentEntry(result, head, work.app_spec)
    _RESIDENT.move_to_end(work.node)
    if _RESIDENT_CAP is not None:
        while len(_RESIDENT) > _RESIDENT_CAP:
            _RESIDENT.popitem(last=False)
            outcome.stats.view_cache_evictions += 1
    outcome.replay_result = None
    outcome.resident_head = head


def compute_build_resident_wire(work_wire):
    """The resident pool's build entry point: a work item's wire form in,
    the outcome's wire form out (the pool's pipe pickles each once), with
    this worker's view cache consulted and updated along the way."""
    if _POOL_CONTEXT is None:
        raise WireError("worker process was not initialized with a context")
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
    return outcome.to_wire()


def _clone_read(value):
    """A :func:`graph_read` result with every vertex cloned."""
    if value is None:
        return None
    if isinstance(value, tuple):  # around: (vertex, preds, succs)
        return tuple(_clone_read(part) for part in value)
    if isinstance(value, list):
        return [_clone_vertex(vertex) for vertex in value]
    return _clone_vertex(value)


def resident_op_wire(request):
    """An affinity-routed read against this worker's resident cache.

    ``request`` is ``(node, head_index, head_hash, op, payload)``. Graph
    reads return *cloned* value vertices (clones pickle under the
    constructor-rebuilding contract; graph-member vertices must never
    leave the worker); ``blob`` answers the whole replay's wire form
    (:meth:`~repro.snp.wire.ResidentReplay.materialize`). A missing
    entry — or one parked at a different head — answers ``W.lost``,
    which the coordinator raises as :class:`ResidentViewLost`.
    """
    node, head_index, head_hash, op, payload = request
    if op == "evict":
        return ("W.opres", _RESIDENT.pop(node, None) is not None)
    entry = _RESIDENT.get(node)
    if entry is None or entry.head != (head_index, head_hash):
        return ("W.lost",)
    _RESIDENT.move_to_end(node)
    if op == "blob":
        return ("W.opres", replay_to_wire(entry.result))
    return ("W.opres", _clone_read(graph_read(entry.result.graph, op,
                                              payload)))
