"""Executors for per-node view-build work (see DESIGN.md, "The executor
boundary").

The microquery module splits a view build into a *fetch* step (touches the
deployment; coordinator side), a *verify+replay* compute step (a pure
function of a work item and a context; see :mod:`repro.snp.build`) and a
*finalize* step on the calling thread in canonical node order. An executor
only decides where the compute step of each job runs, through one
protocol — ``run_jobs(jobs, context)`` returning outcomes in submission
order, and ``close()``:

* :class:`SerialExecutor` — runs jobs inline, one at a time, in the order
  given. The default.
* :class:`ProcessExecutor` — the *resident* process pool: one
  single-worker slot per worker, each node affinity-hashed to the slot
  that owns its view. Workers keep replays resident between batches, so a
  refresh ships only the verified head plus the log/evidence delta. A
  dead worker or evicted entry degrades to a cold build — bit-identical
  by construction. It pays for cold builds of large deployments only
  (DESIGN.md, "When ``process:N`` pays").

Outcomes always come back aligned with submission order, and every
executor funnels the same compute function, so the merge phase (and
therefore every observable query result and counter) is identical across
executors by construction — serial ≡ wire ≡ process, the wire arm being
the test suite's in-process pickle round trip.

``make_executor`` turns the user-facing spec into an executor object.
"""

import hashlib
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.snp.resident import (
    compute_build_resident_wire, init_worker_process, resident_op_wire,
    warm_worker,
)
from repro.snp.wire import ResidentViewLost

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
        """Run build jobs one at a time; outcomes in submission order."""
        return [job.run_local(context) for job in jobs]

    def close(self):
        pass

    def __repr__(self):
        return "SerialExecutor()"


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

    def submit_build(self, node, work_wire, _retry=True):
        """Ship one work item's wire form to *node*'s slot, without
        waiting. The pool's own pickle pass is the only one: a work item
        that cannot be pickled fails its future, and
        :meth:`collect_build` raises it on the calling thread. Returns a
        ``(slot, future)`` submission for :meth:`collect_build`.
        """
        slot = self.slot_of(node)
        try:
            future = self._slot_pool(slot).submit(
                compute_build_resident_wire, work_wire
            )
        except (BrokenProcessPool, RuntimeError):
            self._break_slot(slot)
            if _retry:
                # One respawn attempt: the fresh worker holds no resident
                # state, so a head-referencing work item answers
                # cache-miss and the job's fallback takes over.
                return self.submit_build(node, work_wire, _retry=False)
            raise ResidentViewLost(f"worker slot {slot} is down")
        return slot, future

    def collect_build(self, submission):
        """Wait for a submission; returns the outcome's wire form.

        Raises :class:`ResidentViewLost` when the owning worker died —
        the caller falls back to a cold build."""
        slot, future = submission
        try:
            return future.result()
        except (BrokenProcessPool, RuntimeError) as exc:
            self._break_slot(slot)
            raise ResidentViewLost(f"worker slot {slot} died: {exc}")

    def run_jobs(self, jobs, context):
        """Run build jobs; outcomes in submission order.

        Each job fetches its segment and submits its work item to the
        owning slot without waiting, so workers compute while the
        coordinator fetches the next; outcomes are then collected — and
        therefore finalized — in submission order. Collection handles
        the fallback ladder (worker death, cache miss) per job.
        """
        if not jobs:
            return []
        self.prepare(context)
        submissions = [job.submit_resident(self) for job in jobs]
        return [job.collect_resident(self, submission)
                for job, submission in zip(jobs, submissions)]

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
