"""Per-node tuple storage: one record per tuple.

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

Everything the store knows about one tuple sits in one :class:`_Record`,
filed under the tuple in one dict: its base count, its derivations, its
believing peers and their counts, the time it appeared, the peer whose
notification created the belief, and the derivations it supports (its
*users*, which a disappearance retracts). A record holds no container a
tuple does not need: one derivation is held as itself, not in a
one-entry dict, and a tuple supporting one derivation holds that
derivation, not a one-element set. A record lives while any of those
fields is set; a tuple that disappears keeps its record until the
derivations it supported are retracted.

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
that key. A plan's step trusts its index for every position in the key,
so a lookup needs the index registered. Indexes are maintained
incrementally on every appear/disappear and rebuilt wholesale on
:meth:`TupleStore.restore`; they are pure derived state and never
snapshotted. Position 0 is the location argument, position *i* ≥ 1 is
``args[i-1]``.

:meth:`TupleStore.snapshot` writes the checkpoint form: five dicts
(``base``, ``derivations`` — a list of ``(rule, support)`` per tuple in
the order the derivations were made — ``beliefs``, ``appeared``,
``believe_peer``), whose canonical bytes a ``chk`` entry commits to.
"""

from repro.model import WireValue
from repro.util.serialization import canonical_bytes


class DerivationInstance(WireValue):
    """One concrete way a tuple was derived: rule name + ground supports,
    as :meth:`TupleStore.derivation_instances` reports it."""

    __slots__ = ("rule", "support")

    def __init__(self, rule, support):
        self.rule = rule
        self.support = tuple(support)

    def key(self):
        """``(rule, support)``, the form a snapshot lists."""
        return self.rule, self.support

    def __eq__(self, other):
        return (
            isinstance(other, DerivationInstance)
            and self.rule == other.rule and self.support == other.support
        )

    def __hash__(self):
        return hash(("derivation", self.rule, self.support))

    def __repr__(self):
        return f"DerivationInstance({self.rule}, {self.support!r})"


class _Derivation:
    """One stored derivation of *head*. Compared and hashed by identity:
    the head's record and each support's users hold this one object."""

    __slots__ = ("head", "rule", "support")

    def __init__(self, head, rule, support):
        self.head = head
        self.rule = rule
        self.support = support

    def same_as(self, rule, support):
        return self.rule == rule and self.support == support


class _Record:
    """Everything the store holds about one tuple.

    ``derivs`` and ``users`` are None, one :class:`_Derivation`, or —
    from the second on — a dict: ``derivs`` keyed by ``(rule, support)``,
    ``users`` by the derivation itself (an insertion-ordered identity
    set). ``beliefs`` is None or ``{peer: count}`` with positive counts.
    ``appeared`` is set while the tuple is present. ``peer`` is the peer
    whose notification made the tuple appear; like the checkpoint form
    it mirrors, only a belief's own retraction clears it.
    """

    __slots__ = ("base", "derivs", "beliefs", "appeared", "peer", "users")

    def __init__(self):
        self.base = 0
        self.derivs = None
        self.beliefs = None
        self.appeared = None
        self.peer = None
        self.users = None

    def present(self):
        return (self.base > 0 or self.derivs is not None
                or self.beliefs is not None)

    def idle(self):
        """True when the record holds nothing and may be dropped."""
        return (self.base == 0 and self.derivs is None
                and self.beliefs is None and self.peer is None
                and self.users is None)

    def derivations(self):
        """The stored derivations, in the order they were made."""
        derivs = self.derivs
        if derivs is None:
            return ()
        if type(derivs) is _Derivation:
            return (derivs,)
        return tuple(derivs.values())


def _derivation_order(derivation):
    """Retraction order of derivations sharing one support: head, then
    rule; derivations tied on both keep the order they were made."""
    return derivation.head.canonical_key(), canonical_bytes(derivation.rule)


def _add_user(record, derivation):
    users = record.users
    if users is None:
        record.users = derivation
    elif type(users) is dict:
        users[derivation] = None
    elif users is not derivation:
        record.users = {users: None, derivation: None}


def _project(tup, positions, reach):
    """The tuple's index key for *positions*, or None when its arity is too
    small to reach the highest of them (such a tuple can never match the
    registering pattern)."""
    args = tup.args
    if reach > len(args):
        return None
    key = []
    for position in positions:
        key.append(args[position - 1] if position else tup.loc)
    return tuple(key)


class TupleStore:
    def __init__(self, node_id):
        self.node_id = node_id
        self._records = {}           # tup -> _Record
        self._visible = {}           # relation -> set of visible tups
        self._indexes = {}           # (relation, positions) -> {key: set of tups}
        self._rel_indexes = {}       # relation -> [(positions, reach, buckets)]

    def _record(self, tup):
        record = self._records.get(tup)
        if record is None:
            record = self._records[tup] = _Record()
        return record

    def _release(self, tup, record):
        """Drop *tup*'s record once it holds nothing (a tuple that
        supports itself can be released while its retraction runs)."""
        if record.idle() and self._records.get(tup) is record:
            del self._records[tup]

    # -- presence ----------------------------------------------------------

    def believed(self, tup):
        record = self._records.get(tup)
        return record is not None and record.beliefs is not None

    def present(self, tup):
        record = self._records.get(tup)
        return record is not None and record.present()

    def appeared_at(self, tup):
        record = self._records.get(tup)
        return None if record is None else record.appeared

    # -- mutation: local tuples ---------------------------------------------

    def add_base(self, tup, t):
        """Insert a base tuple; returns True if the tuple newly appeared."""
        record = self._record(tup)
        was = record.present()
        record.base += 1
        if not was:
            self._note_appear(tup, record, t)
        return not was

    def remove_base(self, tup):
        """Delete a base tuple; returns True if the tuple ceased to exist.

        Deleting a tuple that was never inserted returns False and leaves
        the store unchanged (the caller decides how to flag the anomaly).
        """
        record = self._records.get(tup)
        if record is None or record.base == 0:
            return False
        record.base -= 1
        if record.present():
            return False
        self._note_disappear(tup, record)
        self._release(tup, record)
        return True

    def add_derivation(self, tup, rule, support, t):
        """Record that *rule* derived *tup* from the *support* tuples;
        returns (is_new_instance, appeared)."""
        record = self._record(tup)
        was = record.present()
        if not self._file(tup, record, rule, support):
            return False, False
        if not was:
            self._note_appear(tup, record, t)
        return True, not was

    def _file(self, tup, record, rule, support):
        """File a derivation under its head's record and its supports'
        users; False when the head already holds it."""
        derivs = record.derivs
        if derivs is None:
            derivation = record.derivs = _Derivation(tup, rule, support)
        else:
            if type(derivs) is _Derivation:
                if derivs.same_as(rule, support):
                    return False
                derivs = record.derivs = {
                    (derivs.rule, derivs.support): derivs}
            key = (rule, support)
            if key in derivs:
                return False
            derivation = derivs[key] = _Derivation(tup, rule, support)
        for supporting in support:
            _add_user(self._record(supporting), derivation)
        return True

    def remove_derivations_supported_by(self, support_tup):
        """Drop every derivation instance that uses *support_tup*.

        Returns ``(head, rule, support, disappeared)`` per dropped
        instance, in deterministic order, where *disappeared* says the
        head tuple ceased to be present.
        """
        record = self._records.get(support_tup)
        if record is None or record.users is None:
            return []
        users = record.users
        record.users = None
        if type(users) is dict:
            dropped = list(users)
            if len(dropped) > 1:
                dropped.sort(key=_derivation_order)
        else:
            dropped = (users,)
        results = []
        for derivation in dropped:
            head = derivation.head
            for other in derivation.support:
                if other != support_tup:
                    self._drop_user(other, derivation)
            results.append((head, derivation.rule, derivation.support,
                            self._drop_derivation(head, derivation)))
        self._release(support_tup, record)
        return results

    def remove_derivation(self, tup, rule, support):
        """Remove one specific instance; returns True if *tup* disappeared."""
        record = self._records.get(tup)
        derivs = None if record is None else record.derivs
        if derivs is None:
            return False
        if type(derivs) is _Derivation:
            derivation = derivs if derivs.same_as(rule, support) else None
        else:
            derivation = derivs.get((rule, support))
        if derivation is None:
            return False
        for supporting in support:
            self._drop_user(supporting, derivation)
        return self._drop_derivation(tup, derivation)

    def _drop_derivation(self, head, derivation):
        """Unfile *derivation* from its head's record; True if the head
        disappeared."""
        record = self._records[head]
        derivs = record.derivs
        if type(derivs) is _Derivation:
            record.derivs = None
        else:
            del derivs[derivation.rule, derivation.support]
            if not derivs:
                record.derivs = None
        if record.present():
            return False
        self._note_disappear(head, record)
        self._release(head, record)
        return True

    def _drop_user(self, supporting, derivation):
        record = self._records.get(supporting)
        if record is None:
            return
        users = record.users
        if users is derivation:
            record.users = None
        elif type(users) is dict:
            users.pop(derivation, None)
            if not users:
                record.users = None
        self._release(supporting, record)

    def derivation_instances(self, tup):
        record = self._records.get(tup)
        if record is None:
            return []
        return [DerivationInstance(d.rule, d.support)
                for d in record.derivations()]

    # -- mutation: beliefs ---------------------------------------------------

    def add_belief(self, tup, peer, t):
        """Record a +τ notification from *peer*; True if τ newly present."""
        record = self._record(tup)
        was = record.present()
        peers = record.beliefs
        if peers is None:
            record.beliefs = {peer: 1}
        else:
            peers[peer] = peers.get(peer, 0) + 1
        if not was:
            record.peer = peer
            self._note_appear(tup, record, t)
        return not was

    def remove_belief(self, tup, peer):
        """Record a −τ notification from *peer*; True if τ ceased."""
        record = self._records.get(tup)
        peers = None if record is None else record.beliefs
        if not peers or peers.get(peer, 0) == 0:
            return False
        peers[peer] -= 1
        if peers[peer] == 0:
            del peers[peer]
            if not peers:
                record.beliefs = None
        if record.present():
            return False
        record.peer = None
        self._note_disappear(tup, record)
        self._release(tup, record)
        return True

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
            (positions, max(positions, default=0), buckets)
        )
        self._backfill(buckets, relation, positions)

    def _backfill(self, buckets, relation, positions):
        """Populate an index's *buckets* from the current visible set."""
        reach = max(positions, default=0)
        for tup in self._visible.get(relation, ()):
            key = _project(tup, positions, reach)
            if key is not None:
                buckets.setdefault(key, set()).add(tup)

    def index_lookup(self, relation, positions, key):
        """Visible tuples of *relation* whose projection on *positions*
        equals *key* (unordered). The index must be registered: a join
        step trusts it for every position in the key."""
        return self._indexes[relation, positions].get(key, ())

    def _note_appear(self, tup, record, t):
        record.appeared = t
        if tup.loc != self.node_id:
            return
        relation = tup.relation
        visible = self._visible.get(relation)
        if visible is None:
            visible = self._visible[relation] = set()
        visible.add(tup)
        for positions, reach, buckets in self._rel_indexes.get(relation, ()):
            key = _project(tup, positions, reach)
            if key is None:
                continue
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = {tup}
            else:
                bucket.add(tup)

    def _note_disappear(self, tup, record):
        record.appeared = None
        if tup.loc != self.node_id:
            return
        relation = tup.relation
        visible = self._visible.get(relation)
        if visible:
            visible.discard(tup)
        for positions, reach, buckets in self._rel_indexes.get(relation, ()):
            key = _project(tup, positions, reach)
            if key is not None:
                bucket = buckets.get(key)
                if bucket:
                    bucket.discard(tup)
                    if not bucket:
                        del buckets[key]

    # -- checkpoint support -----------------------------------------------------

    def snapshot(self):
        base, derivations, beliefs, appeared, believe_peer = {}, {}, {}, {}, {}
        for tup, record in self._records.items():
            if record.base:
                base[tup] = record.base
            if record.derivs is not None:
                derivations[tup] = [
                    (d.rule, d.support) for d in record.derivations()]
            if record.beliefs is not None:
                beliefs[tup] = dict(record.beliefs)
            if record.present():
                appeared[tup] = record.appeared
            if record.peer is not None:
                believe_peer[tup] = record.peer
        return {
            "base": base,
            "derivations": derivations,
            "beliefs": beliefs,
            "appeared": appeared,
            "believe_peer": believe_peer,
        }

    def restore(self, snap):
        self._records = {}
        for tup, count in snap["base"].items():
            self._record(tup).base = count
        for tup, pairs in snap["derivations"].items():
            record = self._record(tup)
            for rule, support in pairs:
                self._file(tup, record, rule, tuple(support))
        for tup, peers in snap["beliefs"].items():
            self._record(tup).beliefs = dict(peers)
        for tup, peer in snap["believe_peer"].items():
            self._record(tup).peer = peer
        self._visible = {}
        for tup, t in snap["appeared"].items():
            self._record(tup).appeared = t
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
        out = [
            (tup, record.appeared)
            for tup, record in self._records.items()
            if record.base > 0 or record.derivs is not None
        ]
        out.sort(key=lambda pair: pair[0].canonical_key())
        return out

    def all_beliefs(self):
        """All believed tuples as (tup, peer, appeared_at)."""
        out = [
            (tup, record.peer, record.appeared)
            for tup, record in self._records.items()
            if record.beliefs is not None
        ]
        out.sort(key=lambda item: item[0].canonical_key())
        return out
