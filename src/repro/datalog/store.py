"""Per-node tuple storage with derivation refcounts and beliefs.

A node's store tracks three things:

* **local tuples** — base insertions and rule derivations made on this node
  (including derivations whose head is located on another node, which this
  node hosts and pushes to the head's node);
* **believed tuples** — remote tuples this node has been notified of via
  ``+τ`` messages (Section 3.2's believe vertices);
* **derivation instances** — (rule, support) pairs per derived tuple, the
  logical reference counter of Section 3.1 ("if a tuple has more than one
  derivation, we can distinguish between them using a logical reference
  counter").

A tuple is *present* while it has a base insertion, a derivation
instance or a believed notification; the absent ↔ present crossings are
the only observable transitions, and :meth:`_note_appear`/
:meth:`_note_disappear` fire exactly there.

A tuple participates in rule matching on this node iff it is *visible*:
present (locally or as a belief) and located here (``loc == node``). A
locally derived tuple whose head is remote exists here but is matchable only
at the remote node once believed there.

Compiled join plans (:mod:`repro.datalog.plan`) register **secondary hash
indexes** here: per ``(relation, bound-positions)`` maps from a key (the
tuple's values at those positions) to the set of visible tuples carrying
that key. Indexes are maintained incrementally on every appear/disappear
and rebuilt wholesale on :meth:`TupleStore.restore`; they are pure derived
state and never snapshotted. Position 0 is the location argument,
position *i* ≥ 1 is ``args[i-1]``.
"""

from repro.model import WireValue
from repro.util.serialization import canonical_bytes


class DerivationInstance(WireValue):
    """One concrete way a tuple was derived: rule name + ground supports."""

    __slots__ = ("rule", "support", "_key")

    def __init__(self, rule, support):
        self.rule = rule
        self.support = tuple(support)
        self._key = (rule, self.support)

    def key(self):
        """``(rule, support)``, built once: the store files the instance
        under this one object and under one ``(head, key)`` reference per
        support."""
        return self._key

    def __eq__(self, other):
        return (
            isinstance(other, DerivationInstance) and self._key == other._key
        )

    def __hash__(self):
        return hash(("derivation", self.rule, self.support))

    def __repr__(self):
        return f"DerivationInstance({self.rule}, {self.support!r})"


def _ref_order(ref):
    """Retraction order of one ``(head, (rule, support))`` reference."""
    return ref[0].canonical_key(), canonical_bytes(ref[1][0])


class TupleStore:
    def __init__(self, node_id):
        self.node_id = node_id
        self._base_count = {}        # tup -> int
        self._derivations = {}       # tup -> dict key -> DerivationInstance
        self._beliefs = {}           # tup -> dict peer -> int
        self._by_support = {}        # support tup -> set of (head, instance key)
        self._visible = {}           # relation -> set of visible tups
        self._appeared_at = {}       # tup -> local time it became present
        self._believe_peer = {}      # tup -> peer whose notification created belief
        self._indexes = {}           # (relation, positions) -> {key: set of tups}
        self._rel_indexes = {}       # relation -> [(positions, buckets)]

    # -- presence ----------------------------------------------------------

    def locally_present(self, tup):
        return (
            self._base_count.get(tup, 0) > 0
            or bool(self._derivations.get(tup))
        )

    def believed(self, tup):
        counts = self._beliefs.get(tup)
        return bool(counts) and any(c > 0 for c in counts.values())

    def present(self, tup):
        return self.locally_present(tup) or self.believed(tup)

    def appeared_at(self, tup):
        return self._appeared_at.get(tup)

    # -- mutation: local tuples ---------------------------------------------

    def add_base(self, tup, t):
        """Insert a base tuple; returns True if the tuple newly appeared."""
        was = self.present(tup)
        self._base_count[tup] = self._base_count.get(tup, 0) + 1
        if not was:
            self._note_appear(tup, t)
        return not was

    def remove_base(self, tup):
        """Delete a base tuple; returns True if the tuple ceased to exist.

        Deleting a tuple that was never inserted returns False and leaves
        the store unchanged (the caller decides how to flag the anomaly).
        """
        count = self._base_count.get(tup, 0)
        if count == 0:
            return False
        if count == 1:
            del self._base_count[tup]
        else:
            self._base_count[tup] = count - 1
        if not self.present(tup):
            self._note_disappear(tup)
            return True
        return False

    def add_derivation(self, tup, instance, t):
        """Record a derivation instance; returns (is_new_instance, appeared)."""
        key = instance.key()
        instances = self._derivations.get(tup)
        if instances is None:
            instances = self._derivations[tup] = {}
        elif key in instances:
            return False, False
        was = self.present(tup)
        instances[key] = instance
        ref = (tup, key)
        by_support = self._by_support
        for support in instance.support:
            refs = by_support.get(support)
            if refs is None:
                by_support[support] = {ref}
            else:
                refs.add(ref)
        if not was:
            self._note_appear(tup, t)
        return True, not was

    def remove_derivations_supported_by(self, support_tup):
        """Drop every derivation instance that uses *support_tup*.

        Returns the list of (head, instance, disappeared) in deterministic
        order, where *disappeared* says the head tuple ceased to be present.
        """
        entries = self._by_support.pop(support_tup, ())
        results = []
        for ref in sorted(entries, key=_ref_order):
            head, key = ref
            instances = self._derivations.get(head)
            if not instances or key not in instances:
                continue
            instance = instances.pop(key)
            for other_support in instance.support:
                if other_support != support_tup:
                    refs = self._by_support.get(other_support)
                    if refs:
                        refs.discard(ref)
            disappeared = False
            if not instances:
                del self._derivations[head]
                if not self.present(head):
                    self._note_disappear(head)
                    disappeared = True
            results.append((head, instance, disappeared))
        return results

    def remove_derivation(self, tup, instance):
        """Remove one specific instance; returns True if *tup* disappeared."""
        key = instance.key()
        instances = self._derivations.get(tup)
        if not instances or key not in instances:
            return False
        del instances[key]
        ref = (tup, key)
        for support in instance.support:
            refs = self._by_support.get(support)
            if refs:
                refs.discard(ref)
        if not instances:
            del self._derivations[tup]
            if not self.present(tup):
                self._note_disappear(tup)
                return True
        return False

    def derivation_instances(self, tup):
        return list(self._derivations.get(tup, {}).values())

    # -- mutation: beliefs ---------------------------------------------------

    def add_belief(self, tup, peer, t):
        """Record a +τ notification from *peer*; True if τ newly present."""
        was = self.present(tup)
        peers = self._beliefs.setdefault(tup, {})
        peers[peer] = peers.get(peer, 0) + 1
        if not was:
            self._believe_peer[tup] = peer
            self._note_appear(tup, t)
        return not was

    def remove_belief(self, tup, peer):
        """Record a −τ notification from *peer*; True if τ ceased."""
        peers = self._beliefs.get(tup)
        if not peers or peers.get(peer, 0) == 0:
            return False
        peers[peer] -= 1
        if peers[peer] == 0:
            del peers[peer]
        if not peers:
            del self._beliefs[tup]
        if not self.present(tup):
            self._believe_peer.pop(tup, None)
            self._note_disappear(tup)
            return True
        return False

    # -- matching -------------------------------------------------------------

    def visible(self, relation):
        """Visible tuples of *relation* in deterministic order."""
        tups = self._visible.get(relation, ())
        return sorted(tups, key=lambda t: t.canonical_key())

    def visible_set(self, relation):
        """Visible tuples of *relation* as an unordered set (no copy).

        Callers that need determinism must sort; plan execution does, once,
        over full matches.
        """
        return self._visible.get(relation, ())

    # -- secondary indexes ---------------------------------------------------

    @staticmethod
    def _project(tup, positions):
        """The tuple's index key for *positions*, or None when its arity is
        too small to have those positions (such a tuple can never match the
        registering pattern)."""
        values = []
        for position in positions:
            if position == 0:
                values.append(tup.loc)
            elif position <= len(tup.args):
                values.append(tup.args[position - 1])
            else:
                return None
        return tuple(values)

    def register_index(self, relation, positions):
        """Ensure a secondary index on *(relation, positions)* exists,
        backfilled from the currently visible tuples. Idempotent."""
        positions = tuple(positions)
        spec = (relation, positions)
        if spec in self._indexes:
            return
        buckets = {}
        self._indexes[spec] = buckets
        self._rel_indexes.setdefault(relation, []).append(
            (positions, buckets)
        )
        self._backfill(buckets, relation, positions)

    def _backfill(self, buckets, relation, positions):
        """Populate an index's *buckets* from the current visible set."""
        for tup in self._visible.get(relation, ()):
            key = self._project(tup, positions)
            if key is not None:
                buckets.setdefault(key, set()).add(tup)

    def index_lookup(self, relation, positions, key):
        """Visible tuples of *relation* whose projection on *positions*
        equals *key* (unordered). Falls back to the full visible set when
        the index was never registered — correct, since every caller
        re-unifies candidates against its pattern, just slower."""
        buckets = self._indexes.get((relation, positions))
        if buckets is None:
            return self._visible.get(relation, ())
        return buckets.get(key, ())

    def _note_appear(self, tup, t):
        self._appeared_at[tup] = t
        if tup.loc == self.node_id:
            self._visible.setdefault(tup.relation, set()).add(tup)
            for positions, buckets in self._rel_indexes.get(tup.relation, ()):
                key = self._project(tup, positions)
                if key is not None:
                    buckets.setdefault(key, set()).add(tup)

    def _note_disappear(self, tup):
        self._appeared_at.pop(tup, None)
        if tup.loc == self.node_id:
            rel = self._visible.get(tup.relation)
            if rel:
                rel.discard(tup)
            for positions, buckets in self._rel_indexes.get(tup.relation, ()):
                key = self._project(tup, positions)
                if key is not None:
                    bucket = buckets.get(key)
                    if bucket:
                        bucket.discard(tup)
                        if not bucket:
                            del buckets[key]

    # -- checkpoint support -----------------------------------------------------

    def snapshot(self):
        return {
            "base": {t: c for t, c in self._base_count.items()},
            "derivations": {
                t: list(insts) for t, insts in self._derivations.items()
            },
            "beliefs": {t: dict(p) for t, p in self._beliefs.items()},
            "appeared": dict(self._appeared_at),
            "believe_peer": dict(self._believe_peer),
        }

    def restore(self, snap):
        self._base_count = dict(snap["base"])
        self._derivations = {}
        self._by_support = {}
        for tup, insts in snap["derivations"].items():
            table = self._derivations.setdefault(tup, {})
            for rule, support in insts:
                instance = DerivationInstance(rule, support)
                table[instance.key()] = instance
                ref = (tup, instance.key())
                for s in support:
                    self._by_support.setdefault(s, set()).add(ref)
        self._beliefs = {t: dict(p) for t, p in snap["beliefs"].items()}
        self._appeared_at = dict(snap["appeared"])
        self._believe_peer = dict(snap["believe_peer"])
        self._visible = {}
        for tup in self._appeared_at:
            if tup.loc == self.node_id:
                self._visible.setdefault(tup.relation, set()).add(tup)
        # Secondary indexes are derived state: keep the registrations (they
        # belong to the compiled program, not the snapshot) and rebuild the
        # buckets from the restored visible sets.
        for (relation, positions), buckets in self._indexes.items():
            buckets.clear()
            self._backfill(buckets, relation, positions)

    # -- enumeration -------------------------------------------------------------

    def all_local(self):
        """All locally present tuples (base or derived) with appear times."""
        out = []
        for tup in self._base_count:
            out.append((tup, self._appeared_at.get(tup)))
        for tup in self._derivations:
            if tup not in self._base_count:
                out.append((tup, self._appeared_at.get(tup)))
        out.sort(key=lambda pair: pair[0].canonical_key())
        return out

    def all_beliefs(self):
        """All believed tuples as (tup, peer, appeared_at)."""
        out = []
        for tup, peers in self._beliefs.items():
            if any(c > 0 for c in peers.values()):
                out.append(
                    (tup, self._believe_peer.get(tup), self._appeared_at.get(tup))
                )
        out.sort(key=lambda item: item[0].canonical_key())
        return out
