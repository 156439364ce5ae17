"""Executors for per-node view-build work (see DESIGN.md, "The executor
boundary").

The microquery module splits a view build into a *fetch* step (touches the
deployment; coordinator side), a *verify+replay* compute step (a pure
function of a work item and a context; see :mod:`repro.snp.build`) and a
*finalize* step on the calling thread in canonical node order. An executor
only decides where the compute step of each job runs, through one
protocol — ``run_jobs(jobs, context)``, which finishes every job in place
and returns nothing, and ``close()``:

* :class:`SerialExecutor` — runs jobs inline, one at a time, in the order
  given. The default.
* :class:`ProcessExecutor` — the *resident* process pool: one
  single-worker slot per worker, each node affinity-hashed to the slot
  that owns its view. Workers keep replays resident between batches, so a
  refresh ships only the verified head plus the log/evidence delta. It
  is the only arm that can *lose* a view, so the fallback ladder — a dead
  worker or evicted entry degrades to a cold build, bit-identical by
  construction — lives in its ``run_jobs``. It pays for cold builds of
  large deployments only (DESIGN.md, "When ``process:N`` pays").

A job keeps its own books (fetch accounting, response, cursor) and the
querier finalizes jobs in the order it submitted them; every executor
funnels the same compute function and the same ``absorb``, so the merge
phase (and therefore every observable query result and counter) is
identical across executors by construction — serial ≡ wire ≡ process, the
wire arm being the test suite's in-process pickle round trip.

``make_executor`` turns the user-facing spec into an executor object.
"""

import hashlib
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.snp.build import CompactOutcome, compute_build
from repro.snp.resident import (
    compute_build_resident_wire, init_worker_process, resident_op_wire,
    warm_worker,
)
from repro.snp.wire import ResidentReplay, ResidentViewLost

#: Ceiling for an auto-sized pool (the bare ``"process"`` spec): view
#: builds stop scaling well past this on one querier, and unbounded spawn
#: on a many-core box wastes start-up time.
MAX_DEFAULT_WORKERS = 8


def default_worker_count():
    """``os.cpu_count()`` clamped to ``[1, MAX_DEFAULT_WORKERS]`` — the
    worker count a bare ``"process"`` spec resolves to."""
    return max(1, min(MAX_DEFAULT_WORKERS, os.cpu_count() or 1))


class SerialExecutor:
    """Run view-build jobs inline on the calling thread."""

    def run_jobs(self, jobs, context):
        """Run build jobs one at a time, in the order given."""
        for job in jobs:
            job.run_local(context)

    def close(self):
        pass

    def __repr__(self):
        return "SerialExecutor()"


#: Sentinel submission: the job's slot was down at submit time (even
#: after a respawn attempt) — collection goes straight to the cold retry.
_LOST = object()


class ProcessExecutor:
    """The resident view plane: workers *own* views (see DESIGN.md,
    "The executor boundary").

    ``workers`` single-process slots are spawned (warm, spawn start
    method, fork-safety as before); every node is affinity-hashed to one
    slot, so the worker that builds a node's view is always the worker
    later asked to extend or query it. The worker parks each ``ok``
    replay in its resident cache keyed by the verified head, which lets

    * ``refresh()`` ship only the head reference + log/evidence delta
      (the base replay never crosses the boundary again), and
    * ``resolve()``/microqueries run graph reads *in the owning worker*
      (:meth:`resident_op`), returning cloned value vertices instead of
      decoding whole graphs on the coordinator's GIL.

    Any lost state — dead worker, LRU-evicted entry, head mismatch —
    surfaces as :class:`~repro.snp.wire.ResidentViewLost`/``cache-miss``
    and degrades to a cold build, which is bit-identical by construction.

    *resident_cap* bounds each worker's cache (LRU entries; None =
    unbounded) — mainly a test/ops knob to force the eviction path.
    """

    def __init__(self, workers, resident_cap=None):
        if workers < 1:
            raise ValueError(f"worker count must be >= 1, got {workers}")
        self.workers = workers
        self.resident_cap = resident_cap
        self._slots = None
        self._context_wire = None
        self._lock = threading.Lock()

    # ----------------------------------------------------------- lifecycle

    @property
    def alive(self):
        """Whether the slot pools exist (prepared and not closed)."""
        return self._slots is not None

    def _spawn_slot(self):
        mp_context = multiprocessing.get_context("spawn")
        return ProcessPoolExecutor(
            max_workers=1, mp_context=mp_context,
            initializer=init_worker_process,
            initargs=(self._context_wire, self.resident_cap),
        )

    def prepare(self, context):
        """Create (or re-create) and warm the slot pools for *context*."""
        wire = context.to_wire()
        with self._lock:
            if self._slots is not None:
                if wire == self._context_wire:
                    return
                for pool in self._slots:
                    if pool is not None:
                        pool.shutdown(wait=True)
                self._slots = None
            self._context_wire = wire
            self._slots = [self._spawn_slot() for _ in range(self.workers)]
            # One slow-ish no-op per slot so all of them spawn (and run
            # their initializer) now, concurrently — not inside the first
            # timed batch.
            warms = [pool.submit(warm_worker, 0.05) for pool in self._slots]
        for future in warms:
            future.result()

    def close(self):
        with self._lock:
            slots, self._slots = self._slots, None
            self._context_wire = None
        if slots is not None:
            for pool in slots:
                if pool is not None:
                    pool.shutdown(wait=True)

    # ------------------------------------------------------------ affinity

    def slot_of(self, node):
        """The slot owning *node*'s view — a stable content hash of the
        node id, so ownership survives pool restarts and is identical
        across coordinator processes."""
        digest = hashlib.blake2s(repr(node).encode("utf-8"),
                                 digest_size=4).digest()
        return int.from_bytes(digest, "big") % self.workers

    def _slot_pool(self, slot):
        with self._lock:
            if self._slots is None:
                raise ResidentViewLost("executor is closed")
            pool = self._slots[slot]
            if pool is None:
                # Respawn a previously-broken slot; its resident cache is
                # gone, so builds routed here answer cache-miss until the
                # fallback rebuilds repopulate it.
                pool = self._slots[slot] = self._spawn_slot()
            return pool

    def _break_slot(self, slot):
        with self._lock:
            if self._slots is None:
                return
            pool = self._slots[slot]
            self._slots[slot] = None
        if pool is not None:
            try:
                pool.shutdown(wait=False)
            except Exception:
                pass

    # ------------------------------------------------------------- builds

    def run_jobs(self, jobs, context):
        """Run build jobs, finishing each in place.

        Each job fetches its segment and its work item goes to the
        owning slot without waiting, so workers compute while the
        coordinator fetches the next; outcomes are then collected in
        submission order. A job the resident plane lost — slot down,
        worker dead, base replay evicted or at another head — climbs
        down the fallback ladder: it re-fetches cold *on the same job*
        (its fetch accounting carries on), retries the (possibly
        respawned) owning slot once — the fresh build repopulates its
        cache — and, if the slot is still down, computes inline as the
        last resort. Verdicts are bit-identical by construction, since a
        cold build never depends on cached state.
        """
        if not jobs:
            return
        self.prepare(context)
        # An extend crosses as a head reference (plus the fetched delta),
        # never as the base replay.
        submissions = [self._submit(job, job.fetch()) for job in jobs]
        for job, submission in zip(jobs, submissions):
            if self._collect(job, submission):
                continue
            work = job.fetch(cold=True)
            if self._collect(job, self._submit(job, work)):
                continue
            # The cold build runs here, so the miss is tallied here
            # (worker-run builds count their own).
            job.stats.view_cache_misses += 1
            job.absorb(compute_build(work, context))

    def _submit(self, job, work):
        """Ship *work*'s wire form to its node's slot, without waiting.
        The pool's own pickle pass is the only one: a work item that
        cannot be pickled fails its future, and :meth:`_collect` raises
        it on the calling thread. Returns a submission for
        :meth:`_collect`: ``(slot, future)``, None when there is nothing
        to ship (the job finished at fetch time), ``_LOST`` when the slot
        is down."""
        if work is None:
            return None
        wire = work.to_wire()
        slot = self.slot_of(job.node)
        # One respawn attempt: the fresh worker holds no resident state,
        # so a head-referencing work item answers cache-miss and the
        # fallback ladder takes over.
        for _attempt in (0, 1):
            try:
                return slot, self._slot_pool(slot).submit(
                    compute_build_resident_wire, wire
                )
            except (BrokenProcessPool, RuntimeError):
                self._break_slot(slot)
            except ResidentViewLost:  # the executor is closed
                break
        return _LOST

    def _collect(self, job, submission):
        """Settle *job* from one resident round trip. Returns whether it
        is finished — False when the resident plane lost it: the slot
        was down, the worker died, or it no longer holds the referenced
        base replay (``cache-miss``)."""
        if submission is None:
            return True
        if submission is _LOST:
            return False
        slot, future = submission
        try:
            wire = future.result()
        except (BrokenProcessPool, RuntimeError):
            self._break_slot(slot)
            return False
        outcome = CompactOutcome.from_wire(wire, job.factory)
        if outcome.status == CompactOutcome.CACHE_MISS:
            job.stats.merge(outcome.stats)
            return False
        if outcome.status == CompactOutcome.OK \
                and outcome.resident_head is not None \
                and outcome.replay_result is None:
            # The replay stayed in the worker: wrap its parked head in a
            # handle (a failed replay still crosses — the proven-faulty
            # view keeps it as evidence).
            outcome.replay_result = ResidentReplay(
                self, job.node, *outcome.resident_head,
                machine_factory=job.factory,
            )
        job.absorb(outcome)
        return True

    # ------------------------------------------------------- resident ops

    def resident_op(self, node, head_index, head_hash, op, payload=None):
        """Run a read against the resident view *node*'s slot holds at
        ``(head_index, head_hash)``. Raises :class:`ResidentViewLost`
        when the entry (or the worker) is gone."""
        slot = self.slot_of(node)
        try:
            result = self._slot_pool(slot).submit(
                resident_op_wire, (node, head_index, head_hash, op, payload)
            ).result()
        except (BrokenProcessPool, RuntimeError) as exc:
            self._break_slot(slot)
            raise ResidentViewLost(f"worker slot {slot} died: {exc}")
        if result[0] == "W.lost":
            raise ResidentViewLost(
                f"resident view for {node!r} at entry {head_index} is gone"
            )
        return result[1]

    def evict_resident(self, node):
        """Drop *node*'s resident entry (explicit invalidation: forks, GC
        floors, ``invalidate()``). Best-effort — a dead worker already
        lost it. Returns whether an entry was actually dropped."""
        if self._slots is None:
            return False
        try:
            return bool(self.resident_op(node, 0, None, "evict"))
        except ResidentViewLost:
            return False

    def __repr__(self):
        return f"ProcessExecutor(workers={self.workers})"


def make_executor(spec=None):
    """Resolve an executor spec to an executor instance.

    ``None`` or ``"serial"`` → :class:`SerialExecutor`; ``"process:N"`` →
    the resident :class:`ProcessExecutor(N)`; bare ``"process"`` → the
    same pool sized to ``os.cpu_count()`` clamped to
    :data:`MAX_DEFAULT_WORKERS`; an object with a ``run_jobs`` method
    passes through unchanged. Anything else is a ``ValueError`` naming
    these forms.
    """
    if spec is None or spec == "serial":
        return SerialExecutor()
    if isinstance(spec, str):
        kind, sized, count = spec.partition(":")
        if kind == "process" and (not sized or count.isdigit()):
            return ProcessExecutor(int(count) if sized
                                   else default_worker_count())
    elif hasattr(spec, "run_jobs"):
        return spec
    raise ValueError(
        f'unknown executor spec {spec!r}; accepted: None or "serial", '
        '"process", "process:N" (N >= 1), or an object with a '
        'run_jobs(jobs, context) method'
    )
