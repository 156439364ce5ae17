"""Reference probe: a fixed pure-stdlib kernel timed beside every sample.

This sandbox drifts: identical deterministic work takes 30 % longer or
shorter from one minute to the next, in wall *and* CPU time. The probe
is a constant amount of interpreter work of the same kind the audited
program does (allocate tuples, fill and sort a dict, join and SHA-256
bytes over a resident working set), so its own time tracks the drift.
A sample's normalised time is ``raw * REF_NOMINAL_MS / mean(adjacent
probes)``: what the sample would have taken on a machine on which the
probe takes exactly ``REF_NOMINAL_MS``.

The constants below are part of the benchmark's definition. Changing
any of them changes every normalised number; do it only in a PR that
re-measures the baseline.
"""

import gc
import hashlib
import random
import statistics
import time

#: The probe time every normalised number is scaled to.
REF_NOMINAL_MS = 10.0
#: Seed of the probe's fixed inputs (never the workload seed).
REF_SEED = 0x5EED
#: Rows allocated, keyed and sorted per probe run.
REF_ROWS = 4000
#: Resident working set: REF_RESIDENT_ROWS tuples of small objects plus
#: REF_BLOB_BYTES of bytes, about 8 MB in all (under the 16 MB cap).
REF_RESIDENT_ROWS = 60000
REF_BLOB_BYTES = 1 << 20
#: Probe readings on either side of a sample that normalise it.
REF_WINDOW = 2
#: Stride with which a run walks the resident rows (coprime with the
#: row count, so successive runs touch different cache lines).
REF_STRIDE = 37


class RefProbe:
    """Owns the resident working set; :meth:`run` times one kernel pass."""

    def __init__(self):
        rng = random.Random(REF_SEED)
        self._resident = [
            (i, rng.randrange(1 << 30), "n%d" % rng.randrange(4096))
            for i in range(REF_RESIDENT_ROWS)
        ]
        self._blob = rng.randbytes(REF_BLOB_BYTES)
        self._cursor = 0
        self.samples_ms = []

    def run(self):
        """One kernel pass; returns (and records) its wall time in ms.

        The collector is off for the pass: the probe allocates, and a
        generation-2 collection of the *program's* heap landing inside it
        would make the machine look several times slower than it is.
        """
        collecting = gc.isenabled()
        gc.disable()
        try:
            return self._run()
        finally:
            if collecting:
                gc.enable()

    def _run(self):
        resident = self._resident
        blob = self._blob
        n = len(resident)
        cursor = self._cursor
        started = time.perf_counter()
        rows = []
        for k in range(REF_ROWS):
            ident, value, name = resident[cursor]
            cursor = (cursor + REF_STRIDE) % n
            rows.append((name, value % 1013, ident, (k, value)))
        table = {}
        for row in rows:
            table[row[0], row[1]] = row
        digest = hashlib.sha256()
        for key in sorted(table):
            name, bucket, ident, pair = table[key]
            offset = (ident * 64) % (REF_BLOB_BYTES - 256)
            digest.update(b"|".join(
                (name.encode(), str(pair[1]).encode(),
                 blob[offset:offset + 192])))
        digest.hexdigest()
        elapsed_ms = (time.perf_counter() - started) * 1e3
        self._cursor = cursor
        self.samples_ms.append(elapsed_ms)
        return elapsed_ms

    def summary(self):
        """``ref_probe_ms`` as printed per workload: median, min, max."""
        values = self.samples_ms
        return {"median": statistics.median(values), "min": min(values),
                "max": max(values), "runs": len(values)}


def normalise(raw, probes_ms):
    """*raw* (any time unit) rescaled to reference speed, given the probe
    readings taken around it."""
    return raw * REF_NOMINAL_MS / statistics.fmean(probes_ms)


class Series:
    """Probe readings and raw samples of one run, in the order taken.

    A sample remembers how many probes had run when it was recorded, so
    :meth:`normalised` can scale it by the ``REF_WINDOW`` probes on either
    side of it. More than the two adjacent probes, because one 10 ms probe
    is itself a noisy reading of the machine's speed.
    """

    def __init__(self, probe):
        self._probe = probe
        self.probes_ms = []
        self._samples = {}           # kind -> [(probe position, seconds)]

    def probe(self):
        self.probes_ms.append(self._probe.run())

    def add(self, kind, seconds):
        self._samples.setdefault(kind, []).append(
            (len(self.probes_ms), seconds))

    def count(self, kind):
        return len(self._samples.get(kind, ()))

    def raw(self, kind):
        return [seconds for _pos, seconds in self._samples.get(kind, ())]

    def normalised(self, kind):
        out = []
        for pos, seconds in self._samples.get(kind, ()):
            window = self.probes_ms[max(0, pos - REF_WINDOW):pos + REF_WINDOW]
            out.append(normalise(seconds, window))
        return out
