"""The shared-memory arena: how bulk bytes cross the executor boundary.

Pre-pickled payloads at or above :data:`SHM_MIN_BYTES` travel through
``multiprocessing.shared_memory``; the pool's pipe carries the segment
name. Ownership is explicit: the coordinator's :class:`ShmArena` unlinks
what it published, a worker-published result is unlinked by its reader.
"""

import threading
from multiprocessing import shared_memory as _shared_memory

from repro.snp.wire import WireError

#: Payloads below this size ship inline through the pool's own pickle
#: pipe; the fixed cost of creating + attaching a shm segment only pays
#: off for bulk payloads (provenance graph snapshots, long log segments).
SHM_MIN_BYTES = 32 * 1024


def _shm_untrack(shm):
    """Drop *shm* from this process's resource tracker.

    Creating *and* attaching both register a segment with the per-process
    resource tracker, which warns about (and unlinks) everything still
    registered at interpreter exit. Our protocol instead unlinks each
    segment explicitly, exactly once, by whichever side owns the read —
    so every helper here balances its registration out immediately.
    """
    try:
        from multiprocessing import resource_tracker
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


def shm_publish(data):
    """Create a shared-memory segment holding *data*; returns its name.
    Untracked: destruction is the explicit protocol's job, not the
    resource tracker's."""
    shm = _shared_memory.SharedMemory(create=True, size=max(1, len(data)))
    shm.buf[:len(data)] = data
    shm.close()
    _shm_untrack(shm)
    return shm.name


def shm_read(name, size, unlink=False):
    """Read *size* bytes from segment *name*; with ``unlink=True`` the
    reader owns the segment and destroys it after the read."""
    shm = _shared_memory.SharedMemory(name=name)
    try:
        data = bytes(shm.buf[:size])
    finally:
        shm.close()
        if unlink:
            try:
                shm.unlink()  # also unregisters from the tracker
            except FileNotFoundError:
                _shm_untrack(shm)
        else:
            _shm_untrack(shm)
    return data


class ShmArena:
    """Coordinator-side registry of the shm segments it has published.

    ``publish`` creates a segment for one payload; ``release`` unlinks it
    (normally: after the consuming worker's future resolved). ``close``
    unlinks everything still live — builds that died between submit and
    collect must not leak segments past the executor's lifetime.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._live = set()

    def publish(self, data):
        name = shm_publish(data)
        with self._lock:
            self._live.add(name)
        return name

    def release(self, name):
        with self._lock:
            if name not in self._live:
                return
            self._live.remove(name)
        self._destroy(name)

    def close(self):
        with self._lock:
            names, self._live = self._live, set()
        for name in names:
            self._destroy(name)

    @staticmethod
    def _destroy(name):
        try:
            shm = _shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            return
        shm.close()
        try:
            shm.unlink()  # also unregisters from the tracker
        except FileNotFoundError:
            _shm_untrack(shm)


def ship_payload(data, arena):
    """Coordinator → worker: wrap pre-pickled *data* for submission.

    Bulk payloads go through the arena (the pool's pipe then carries only
    the segment name); small ones ride the pipe inline. Returns
    ``(payload, shm_name, shm_bytes)`` — *shm_name* (or None) is what the
    caller must release after the worker's future resolves.
    """
    if len(data) >= SHM_MIN_BYTES:
        name = arena.publish(data)
        return ("W.shmref", name, len(data)), name, len(data)
    return ("W.blob", data), None, 0


def _load_shipped(payload):
    """Worker side: decode a :func:`ship_payload` payload to bytes."""
    tag = payload[0]
    if tag == "W.shmref":
        return shm_read(payload[1], payload[2], unlink=False)
    if tag == "W.blob":
        return payload[1]
    raise WireError(f"unrecognized shipped payload {tag!r}")


def _ship_result(data):
    """Worker → coordinator: wrap pre-pickled result bytes.

    The worker creates (and immediately untracks) the segment; the
    coordinator reads it once with ``unlink=True`` — worker-owned
    segments are single-shot, so no registry is needed."""
    if len(data) >= SHM_MIN_BYTES:
        # The creating worker never unlinks: ownership passes to the
        # coordinator with the name.
        return ("W.shmblob", shm_publish(data), len(data))
    return ("W.resultblob", data)


def collect_result(shipped):
    """Coordinator side: decode a :func:`_ship_result` payload.

    Returns ``(data, shm_bytes)`` where *shm_bytes* is how much of it
    crossed through shared memory (for ``QueryStats.shm_bytes``)."""
    tag = shipped[0]
    if tag == "W.shmblob":
        return shm_read(shipped[1], shipped[2], unlink=True), shipped[2]
    if tag == "W.resultblob":
        return shipped[1], 0
    raise WireError(f"unrecognized result payload {tag!r}")

