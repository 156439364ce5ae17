"""MapReduce with reported provenance — the paper's Hadoop application
(Section 6.2).

The paper instruments Hadoop to *report* provenance (extraction method #2)
at the level of individual key-value pairs: the provenance of an
intermediate pair consists of the arguments of the map invocation, and the
provenance of an output consists of the arguments of the reduce invocation.
Input files appear in the log only as hashes (the trivial optimization of
Section 6.2): a ``mapTask`` tuple's :class:`~repro.model.Blob` commits
to the split's digest and carries its text beside it, into every replay;
the mapper authenticates the text by hash before use.

This module provides:

* :class:`MapReduceApp` — a deterministic state machine for a worker node.
  A node becomes a mapper when it receives a ``mapTask`` base tuple and a
  reducer when it receives a ``reduceTask`` base tuple (both come from the
  JobTracker, which the paper treats as a source of base tuples).
* map side: ``mapTask → [mapOut per occurrence] → combineOut per word →
  one shuffleBlock per reducer`` (an empty block ends the stream); the
  per-occurrence layer is optional (``granularity='offsets'``) and
  reproduces Figure 4's MapOut vertices.
* reduce side: once every expected mapper's block arrived, the
  reducer derives one ``output(word, total)`` per word, supported by the
  believed shuffle tuples — the reduce invocation's arguments.
* :class:`WordCountJob` — the JobTracker: splits a corpus, assigns tasks
  carrying their splits, runs the cluster, and fetches results.
* :class:`CorruptWordCountApp` — a mapper that injects bogus key-value
  pairs for a chosen word (the Hadoop-Squirrel scenario); installed via
  :class:`repro.snp.adversary.MisexecutingNode` so replay against the
  honest program exposes it.
"""

import hashlib
import zlib

from repro.model import Blob, Der, Snd, StateMachine, Tup, Ack, PLUS
from repro.util.errors import ContentUnavailable
from repro.util.serialization import canonical_bytes

#: Provenance granularity: per word, or per occurrence (Figure 4's MapOut).
COMBINED = "combined"
OFFSETS = "offsets"


#: Declared relation schema (arity counts the @location term). MapReduce
#: has no Datalog rules — its provenance is *reported* (method #2) — but
#: the schema still goes through the analyzer's gate beside the other four
#: programs.
RELATION_SCHEMA = {
    "mapTask": 5,
    "reduceTask": 3,
    "mapOut": 5,
    "combineOut": 4,
    "shuffle": 5,
    "shuffleBlock": 4,
    "output": 4,
}


def mapreduce_schema_program():
    """A rule-less :class:`~repro.datalog.engine.Program` carrying the
    declared schema, for static analysis only (nothing executes it)."""
    from repro.datalog import Program
    return Program([], inputs=dict(RELATION_SCHEMA))


def content_hash(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def partition_for(word, n_reducers):
    """Deterministic shuffle partition (Python's hash() is randomized)."""
    return zlib.crc32(word.encode("utf-8")) % n_reducers


# ------------------------------------------------------------------- tuples

def map_task(node, job, split_id, split, reducers):
    return Tup("mapTask", node, job, split_id, split, tuple(reducers))


def reduce_task(node, job, mappers):
    return Tup("reduceTask", node, job, tuple(mappers))


def map_out(node, job, split_id, word, offset):
    return Tup("mapOut", node, job, split_id, word, offset)


def combine_out(node, job, word, count):
    return Tup("combineOut", node, job, word, count)


def shuffle_tuple(reducer, job, mapper, word, count):
    return Tup("shuffle", reducer, job, mapper, word, count)


def shuffle_block(reducer, job, mapper, pairs):
    """The whole (word, count) partition one mapper ships to one reducer.

    Per paper Section 6.2, "the set of intermediate key-value pairs sent
    from a map task to a reduce task constitutes a message" — one large
    message per mapper/reducer pair, not one per pair. The per-pair
    ``shuffle`` facts are derived (and reported) at each end; only the
    block crosses the wire."""
    return Tup("shuffleBlock", reducer, job, mapper, tuple(pairs))


def output_tuple(reducer, job, word, count):
    return Tup("output", reducer, job, word, count)


class MapReduceApp(StateMachine):
    """Worker state machine with reported provenance."""

    def __init__(self, node_id, granularity=COMBINED):
        super().__init__(node_id)
        self.granularity = granularity
        self._local = {}        # tup -> appeared_at
        self._beliefs = {}      # tup -> (peer, appeared_at)
        self._expected = {}     # job -> tuple of mappers
        self._task_tuple = {}   # job -> reduceTask tuple
        self._done = {}         # job -> set of mappers
        self._emitted = set()   # jobs whose outputs were emitted

    # ----------------------------------------------------------- map side

    def map_function(self, text):
        """WordCount's mapper: (word, offset) per occurrence. Subclasses
        may override — but a node whose *runtime* mapper differs from the
        registered one is exactly the corrupt-mapper attack."""
        out = []
        offset = 0
        for word in text.split():
            out.append((word, offset))
            offset += len(word) + 1
        return out

    def handle_insert(self, tup, t):
        self._local[tup] = t
        if tup.relation == "mapTask":
            return self._run_map(tup, t)
        if tup.relation == "reduceTask":
            job, mappers = tup.args[0], tup.args[1]
            self._expected[job] = mappers
            self._task_tuple[job] = tup
            self._done.setdefault(job, set())
            return self._maybe_reduce(job, t)
        return []

    def handle_delete(self, tup, t):
        self._local.pop(tup, None)
        return []

    def handle_receive(self, msg, t):
        if isinstance(msg, Ack):
            return []
        if msg.polarity != PLUS:
            self._beliefs.pop(msg.tup, None)
            return []
        self._beliefs[msg.tup] = (msg.src, t)
        if msg.tup.relation == "shuffleBlock":
            job, mapper, pairs = msg.tup.args
            outputs = []
            # Unpack the block into per-pair shuffle facts (the reported
            # provenance granularity of Section 6.2).
            for word, count in pairs:
                sh = shuffle_tuple(self.node_id, job, mapper, word, count)
                self._local[sh] = t
                outputs.append(Der(sh, "unpack", (msg.tup,)))
            self._done.setdefault(job, set()).add(mapper)
            return outputs + self._maybe_reduce(job, t)
        return []

    def _run_map(self, task, t):
        """Execute the map + combine + shuffle pipeline, reporting
        provenance for every stage (the split's text once it hashes to
        the digest the task commits to)."""
        job, split_id, split, reducers = task.args
        text = getattr(split, "text", None)
        if text is None or content_hash(text) != split.digest:
            raise ContentUnavailable(
                f"content unavailable: {getattr(split, 'digest', split)}")
        occurrences = self.map_function(text)
        outputs = []
        counts = {}
        supports = {}
        if self.granularity == OFFSETS:
            for word, offset in occurrences:
                mo = map_out(self.node_id, job, split_id, word, offset)
                self._local[mo] = t
                outputs.append(Der(mo, "map", (task,)))
                counts[word] = counts.get(word, 0) + 1
                supports.setdefault(word, []).append(mo)
        else:
            for word, _offset in occurrences:
                counts[word] = counts.get(word, 0) + 1
        partitions = {reducer: [] for reducer in reducers}
        block_supports = {reducer: [] for reducer in reducers}
        for word in sorted(counts):
            count = counts[word]
            co = combine_out(self.node_id, job, word, count)
            self._local[co] = t
            if self.granularity == OFFSETS:
                outputs.append(Der(co, "combine", tuple(supports[word])))
            else:
                outputs.append(Der(co, "combine", (task,)))
            reducer = reducers[partition_for(word, len(reducers))]
            partitions[reducer].append((word, count))
            block_supports[reducer].append(co)
        # One wire message per reducer: the whole partition (empty blocks
        # double as end-of-stream markers).
        for reducer in reducers:
            block = shuffle_block(reducer, job, self.node_id,
                                  partitions[reducer])
            self._local[block] = t
            outputs.append(
                Der(block, "shuffle",
                    tuple(block_supports[reducer]) or (task,))
            )
            outputs.append(Snd(self.make_msg(PLUS, block, reducer, t)))
        return outputs

    # -------------------------------------------------------- reduce side

    def _maybe_reduce(self, job, t):
        expected = self._expected.get(job)
        if expected is None or job in self._emitted:
            return []
        if set(expected) - self._done.get(job, set()):
            return []  # still waiting for mappers
        self._emitted.add(job)
        task = self._task_tuple[job]
        by_word = {}
        for tup in self._local:
            if tup.relation == "shuffle" and tup.args[0] == job:
                _job, _mapper, word, count = tup.args
                by_word.setdefault(word, []).append(tup)
        outputs = []
        for word in sorted(by_word):
            group = sorted(by_word[word],
                           key=lambda s: canonical_bytes(s.canonical()))
            total = sum(s.args[3] for s in group)
            out = output_tuple(self.node_id, job, word, total)
            self._local[out] = t
            outputs.append(Der(out, "reduce", (task,) + tuple(group)))
        return outputs

    # ------------------------------------------------------- checkpointing

    def snapshot(self):
        snap = super().snapshot()
        snap["mr"] = {
            "local": dict(self._local),
            "beliefs": dict(self._beliefs),
            "expected": dict(self._expected),
            "task_tuple": dict(self._task_tuple),
            "done": {j: frozenset(d) for j, d in self._done.items()},
            "emitted": frozenset(self._emitted),
        }
        return snap

    def restore(self, snap):
        super().restore(snap)
        mr = snap["mr"]
        self._local = dict(mr["local"])
        self._beliefs = dict(mr["beliefs"])
        self._expected = dict(mr["expected"])
        self._task_tuple = dict(mr["task_tuple"])
        self._done = {j: set(d) for j, d in mr["done"].items()}
        self._emitted = set(mr["emitted"])

    def extant_tuples(self):
        return sorted(self._local.items(),
                      key=lambda kv: canonical_bytes(kv[0].canonical()))

    def believed_tuples(self):
        return sorted(
            ((tup, peer, at) for tup, (peer, at) in self._beliefs.items()),
            key=lambda item: canonical_bytes(item[0].canonical()),
        )

    # ----------------------------------------------------------- inspection

    def tuples_of(self, relation):
        out = [t for t in self._local if t.relation == relation]
        out += [t for t in self._beliefs if t.relation == relation]
        return sorted(set(out), key=lambda t: canonical_bytes(t.canonical()))


class CorruptWordCountApp(MapReduceApp):
    """A mapper that injects *extra_count* bogus occurrences of
    *target_word* (Section 7.3: Map-3 emitting 9,991 extra squirrels)."""

    def __init__(self, node_id, target_word="squirrel", extra_count=9991,
                 granularity=COMBINED):
        super().__init__(node_id, granularity=granularity)
        self.target_word = target_word
        self.extra_count = extra_count

    def map_function(self, text):
        out = super().map_function(text)
        base = (out[-1][1] + 1000) if out else 0
        for k in range(self.extra_count):
            out.append((self.target_word, base + k))
        return out


def build_mapreduce_app_factory(granularity=COMBINED):
    """Registry builder (see :mod:`repro.apps`): a worker factory. The
    input texts are no part of it — they travel in the task tuples."""
    return lambda node_id: MapReduceApp(node_id, granularity=granularity)


def mapreduce_native_sizer(msg):
    """Paper accounting (Section 7.4): SNooPy adds a fixed number of bytes
    per message over whatever the unmodified system serializes. A shuffle
    block *is* the baseline Hadoop message (the mapper→reducer partition),
    so its native size is its payload; SNP's additions are the fixed
    timestamp/authenticator/ack overheads counted by the traffic meter."""
    return msg.payload_size(), "provenance"


class WordCountJob:
    """The JobTracker: splits input, assigns tasks, collects results."""

    def __init__(self, deployment, job_id="job0", n_mappers=4, n_reducers=2,
                 granularity=COMBINED, corrupt_mappers=None):
        self.deployment = deployment
        self.job_id = job_id
        self.granularity = granularity
        self.mappers = [f"map{i}" for i in range(n_mappers)]
        self.reducers = [f"red{i}" for i in range(n_reducers)]
        self.corrupt_mappers = dict(corrupt_mappers or {})
        self._add_workers()

    def _add_workers(self):
        from repro.apps import AppFactory
        from repro.snp.adversary import MisexecutingNode
        from repro.snp.snoopy import SNooPyNode
        honest_factory = AppFactory("mapreduce", granularity=self.granularity)
        for name in self.mappers + self.reducers:
            spec = self.corrupt_mappers.get(name)
            node = self.deployment.add_node(
                name, honest_factory,
                node_cls=SNooPyNode if spec is None else MisexecutingNode,
                native_sizer=mapreduce_native_sizer)
            if spec is not None:
                node.install_corrupt_app(CorruptWordCountApp(
                    name, granularity=self.granularity, **spec))

    def run(self, splits):
        """*splits* is a list of text strings, one per mapper (extras are
        dropped). Returns the combined output word counts."""
        for reducer in self.reducers:
            self.deployment.node(reducer).insert(
                reduce_task(reducer, self.job_id, self.mappers)
            )
        for mapper, text in zip(self.mappers, splits):
            self.deployment.node(mapper).insert(
                map_task(mapper, self.job_id, f"split-{mapper}",
                         Blob(content_hash(text), text), self.reducers)
            )
        self.deployment.run()
        results = {}
        for reducer in self.reducers:
            node = self.deployment.node(reducer)
            for tup in node.app.tuples_of("output"):
                job, word, count = tup.args
                if job == self.job_id:
                    results[word] = count
        return results

    def output_tuple_for(self, word):
        reducer = self.reducers[partition_for(word, len(self.reducers))]
        node = self.deployment.node(reducer)
        for tup in node.app.tuples_of("output"):
            if tup.args[0] == self.job_id and tup.args[1] == word:
                return tup
        return None
