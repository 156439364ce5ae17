"""Executors for per-node view-build work (see DESIGN.md, "The executor
boundary").

The microquery module splits a view build into a *fetch* step (touches the
deployment; coordinator side), a *verify+replay* compute step (a pure
function of a work item and a context; see :mod:`repro.snp.build`) and a
*finalize* step on the calling thread in canonical node order. An executor
only decides how the per-node fetch+compute pipelines are scheduled:

* :class:`SerialExecutor` — runs tasks inline, one at a time, in the order
  given. The default; also the fallback for ``workers <= 1``.
* :class:`ThreadedExecutor` — runs tasks on a persistent thread pool.
  Compute serializes under the GIL and an in-process fetch is a function
  call, so threads overlap nothing today; the arm is kept as the
  concurrency leg of the serial ≡ thread ≡ process contract.
* :class:`ProcessExecutor` — the *resident* process pool: one
  single-worker slot per worker, each node affinity-hashed to the slot
  that owns its view. Workers keep replays resident between batches, so a
  refresh ships only the verified head plus the log/evidence delta; bulk
  payloads cross through ``multiprocessing.shared_memory``. A dead worker
  or evicted entry degrades to a cold build — bit-identical by
  construction.

Task *results* always come back aligned with submission order, and every
executor funnels the same compute function, so the merge phase (and
therefore every observable query result and counter) is identical across
executors by construction.

``make_executor`` turns the user-facing spec (``None``, an int worker
count, ``"serial"``, ``"thread:4"``, ``"process:4"``, or an executor
instance) into an executor object.
"""

import hashlib
import multiprocessing
import os
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.snp.resident import (
    compute_build_resident_wire, init_worker_process, resident_op_wire,
    warm_worker,
)
from repro.snp.shm import ShmArena, collect_result, ship_payload
from repro.snp.wire import ResidentViewLost

#: Ceiling for auto-sized pools ("process"/"thread" specs with no
#: explicit N): view builds stop scaling well past this on one querier,
#: and unbounded spawn on a many-core box wastes start-up time.
MAX_DEFAULT_WORKERS = 8


def default_worker_count():
    """``os.cpu_count()`` clamped to ``[1, MAX_DEFAULT_WORKERS]`` — the
    worker count a bare ``"process"``/``"thread"`` spec resolves to."""
    return max(1, min(MAX_DEFAULT_WORKERS, os.cpu_count() or 1))


class SerialExecutor:
    """Run view-build tasks inline on the calling thread."""

    workers = 1

    def run(self, tasks):
        """Run zero-arg *tasks*; returns their results in task order."""
        return [task() for task in tasks]

    def close(self):
        pass

    def __repr__(self):
        return "SerialExecutor()"


class ThreadedExecutor:
    """Run view-build tasks on a persistent thread pool.

    The pool is created lazily on first use and reused across batches, so
    repeated refreshes do not pay thread start-up per call. ``close()``
    shuts the pool down; an unclosed executor's threads are reclaimed at
    interpreter shutdown like any ThreadPoolExecutor's.
    """

    def __init__(self, workers):
        if workers < 1:
            raise ValueError(f"worker count must be >= 1, got {workers}")
        self.workers = workers
        self._pool = None

    def run(self, tasks):
        """Run zero-arg *tasks* concurrently; results in task order."""
        if len(tasks) <= 1:
            return [task() for task in tasks]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="view-build",
            )
        return list(self._pool.map(lambda task: task(), tasks))

    def close(self):
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __repr__(self):
        return f"ThreadedExecutor(workers={self.workers})"


class _Submission:
    """One in-flight resident build: the slot's future plus the arena
    segment to release once the worker has consumed it."""

    __slots__ = ("future", "slot", "shm_name", "shm_bytes")

    def __init__(self, future, slot, shm_name, shm_bytes):
        self.future = future
        self.slot = slot
        self.shm_name = shm_name
        self.shm_bytes = shm_bytes


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

    Bulk payloads still crossing the boundary ride a shared-memory
    arena. Any lost state — dead worker, LRU-evicted entry,
    head mismatch — surfaces as
    :class:`~repro.snp.wire.ResidentViewLost`/``cache-miss`` and degrades
    to a cold build, which is bit-identical by construction.

    *resident_cap* bounds each worker's cache (LRU entries; None =
    unbounded) — mainly a test/ops knob to force the eviction path.
    """

    def __init__(self, workers, resident_cap=None):
        if workers < 1:
            raise ValueError(f"worker count must be >= 1, got {workers}")
        self.workers = workers
        self.resident_cap = resident_cap
        self.arena = ShmArena()
        self._slots = None
        self._coordinator = None
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
        if self._coordinator is not None:
            self._coordinator.shutdown(wait=True)
            self._coordinator = None
        with self._lock:
            slots, self._slots = self._slots, None
            self._context_wire = None
        if slots is not None:
            for pool in slots:
                if pool is not None:
                    pool.shutdown(wait=True)
        self.arena.close()

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
        """Ship one work item's pre-pickled wire form to *node*'s slot.

        Bulk payloads go through the shm arena; the pipe carries the
        segment name. Returns a :class:`_Submission` for
        :meth:`collect_build`.
        """
        data = pickle.dumps(work_wire)
        payload, shm_name, shm_bytes = ship_payload(data, self.arena)
        slot = self.slot_of(node)
        try:
            future = self._slot_pool(slot).submit(
                compute_build_resident_wire, payload
            )
        except (BrokenProcessPool, RuntimeError):
            if shm_name is not None:
                self.arena.release(shm_name)
            self._break_slot(slot)
            if _retry:
                # One respawn attempt: the fresh worker holds no resident
                # state, so a head-referencing work item answers
                # cache-miss and the job's fallback takes over.
                return self.submit_build(node, work_wire, _retry=False)
            raise ResidentViewLost(f"worker slot {slot} is down")
        return _Submission(future, slot, shm_name, shm_bytes)

    def collect_build(self, submission):
        """Wait for a submission; returns ``(outcome_wire, shm_bytes)``.

        Raises :class:`ResidentViewLost` when the owning worker died —
        the caller falls back to a cold build."""
        try:
            shipped = submission.future.result()
        except (BrokenProcessPool, RuntimeError) as exc:
            self._break_slot(submission.slot)
            raise ResidentViewLost(
                f"worker slot {submission.slot} died: {exc}"
            )
        finally:
            if submission.shm_name is not None:
                self.arena.release(submission.shm_name)
        data, out_shm = collect_result(shipped)
        return pickle.loads(data), submission.shm_bytes + out_shm

    def run_jobs(self, jobs, context):
        """Run build jobs; outcomes in submission order.

        Fetch threads retrieve segments and submit each work item to
        its owning slot without waiting; outcomes are collected — and
        therefore finalized — in submission order. Collection handles
        the fallback ladder (worker death, cache miss) per job.
        """
        if not jobs:
            return []
        self.prepare(context)
        if len(jobs) == 1:
            submissions = [jobs[0].submit_resident(self)]
        else:
            if self._coordinator is None:
                # Fetch threads run only light bookkeeping — compute
                # lives in the worker processes — so their count (2×N)
                # is not tied to the worker count. Against an in-process
                # deployment a fetch is a function call and they overlap
                # nothing; whether they stay is ROADMAP item 4's call.
                self._coordinator = ThreadPoolExecutor(
                    max_workers=2 * self.workers,
                    thread_name_prefix="view-fetch",
                )
            submissions = list(self._coordinator.map(
                lambda job: job.submit_resident(self), jobs
            ))
        return [job.collect_resident(self, submission)
                for job, submission in zip(jobs, submissions)]

    # ------------------------------------------------------- resident ops

    def resident_op(self, node, head_index, head_hash, op, payload=None,
                    stats=None):
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
        tag = result[0]
        if tag == "W.lost":
            raise ResidentViewLost(
                f"resident view for {node!r} at entry {head_index} is gone"
            )
        if tag == "W.opres":
            return result[1]
        data, shm = collect_result(result)  # a blob pull
        if stats is not None and shm:
            stats.shm_bytes += shm
        return data

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

    ``None`` or ``"serial"`` → :class:`SerialExecutor`; an int ``n`` →
    serial for ``n == 1``, ``ThreadedExecutor(n)`` for ``n > 1``
    (``n < 1`` is an error); ``"thread:N"`` → ``ThreadedExecutor(N)``;
    ``"process:N"`` → the resident :class:`ProcessExecutor(N)`; bare
    ``"thread"`` / ``"process"`` → the same pools sized to
    ``os.cpu_count()`` clamped to :data:`MAX_DEFAULT_WORKERS`; an object
    with a ``run`` or ``run_jobs`` method passes through unchanged.
    """
    if spec is None or spec == "serial":
        return SerialExecutor()
    if isinstance(spec, bool):
        raise ValueError("executor spec must not be a bool")
    if isinstance(spec, int):
        if spec < 1:
            raise ValueError(f"worker count must be >= 1, got {spec}")
        return ThreadedExecutor(spec) if spec > 1 else SerialExecutor()
    if isinstance(spec, str):
        kind, sized, count = spec.partition(":")
        if kind in ("thread", "process"):
            try:
                workers = int(count) if sized else default_worker_count()
            except ValueError:
                raise ValueError(
                    f"unknown executor spec {spec!r}"
                ) from None
            if kind == "thread":
                return make_executor(workers)
            return ProcessExecutor(workers)
        raise ValueError(f"unknown executor spec {spec!r}")
    if hasattr(spec, "run") or hasattr(spec, "run_jobs"):
        return spec
    raise ValueError(f"cannot build an executor from {spec!r}")
