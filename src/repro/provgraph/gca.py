"""The Graph Construction Algorithm (paper Appendix B, Figures 10/11).

The GCA consumes a *history* — a sequence of events ``(t, node, kind,
payload)`` with kinds ``ins``/``del``/``snd``/``rcv`` — and produces the
provenance graph ``G(h)``. For every non-``snd`` event it also feeds the
corresponding input to the node's deterministic state machine ``A_i`` and
processes the resulting ``der``/``und``/``snd`` outputs.

The code below is a line-by-line transcription of the pseudocode; each
method names the figure function it implements, and where the pseudocode
passes a vertex the code passes its graph id. The four pieces of
bookkeeping state match the pseudocode's variables, and hold ids too:

* ``pending``  — outputs ``A_i`` produced whose ``snd`` event has not been
  seen yet (a correct node sends them before its next input);
* ``ackpend``  — receive vertices whose acknowledgment has not been sent
  yet (a correct node acks immediately);
* ``unacked``  — sent messages with no acknowledgment yet (red after
  ``2·Tprop``, per the maintainer-notification rule of Section 5.4);
* ``nopreds``  — send vertices created from the receiver's perspective that
  have no incoming edge yet.

Documented deviations from the pseudocode (see DESIGN.md):

* acknowledgments may cover several messages (the Tbatch optimization of
  Section 5.6); the ack branches iterate over the covered messages;
* a logged ``del`` (or ``−τ`` notification) for a tuple that does not exist
  colors the disappear vertex red instead of crashing — a correct node
  never produces such an event, so this only fires while replaying a lying
  node's log;
* checkpoint support: :meth:`seed_node` pre-creates open exist/believe
  vertices from a checkpoint so replay can start mid-log (Section 5.6);
* a send vertex a receipt creates enters ``unacked``/``nopreds`` only if
  its sender has a machine here (its events are driven): no other event
  reads them, and a per-node replay never drives its peers.
"""

from repro.model import Ack, Der, Snd, Und, PLUS
from repro.provgraph.graph import ProvenanceGraph
from repro.provgraph.vertices import (
    Vertex, Color,
    INSERT, DELETE, APPEAR, DISAPPEAR, EXIST, DERIVE, UNDERIVE,
    SEND, RECEIVE, BELIEVE_APPEAR, BELIEVE_DISAPPEAR, BELIEVE,
)


class Event:
    """One history event ``e_k = (t_k, i_k, x_k)`` (Appendix A.3)."""

    __slots__ = ("t", "node", "kind", "payload")

    KINDS = ("ins", "del", "snd", "rcv")

    def __init__(self, t, node, kind, payload):
        if kind not in self.KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        self.t = t
        self.node = node
        self.kind = kind
        self.payload = payload

    def __repr__(self):
        return f"Event(t={self.t:g}, {self.node}, {self.kind}, {self.payload!r})"


class GraphConstructor:
    """Runs the GCA over a history, maintaining ``G`` incrementally.

    It works on the graph's vertex ids
    (:meth:`ProvenanceGraph.add_vertex` returns one): a :class:`Vertex`
    is built once per new vertex and afterwards only read for its
    timestamp or painted a colour."""

    def __init__(self, machine_factory, t_prop=1.0):
        """*machine_factory(node_id)* returns a fresh deterministic state
        machine for that node; *t_prop* is the network's Tprop bound used
        for the missing-ack rule."""
        self.graph = ProvenanceGraph()
        self.machine_factory = machine_factory
        self.t_prop = t_prop
        self.machines = {}
        self._pending = {}      # (node, msg full key) -> send vertex id
        self._ackpend = {}      # node -> {msg_id: receive vertex id}
        self._unacked = {}      # node -> {msg_id: send vertex id}
        self._nopreds = set()   # ids of send vertices with no predecessor
        # Messages the maintainer already knows went unacknowledged
        # (Section 5.4's notification rule): not red, just unresolved.
        self.known_alarm_msg_ids = frozenset()

    # ------------------------------------------------------------ driving

    def machine(self, node):
        if node not in self.machines:
            self.machines[node] = self.machine_factory(node)
        return self.machines[node]

    def process(self, event):
        """Steps 2–5 of the algorithm for one event."""
        t, node, kind, payload = event.t, event.node, event.kind, event.payload
        machine = self.machine(node)  # even for a snd: see add_send_vertex
        if kind == "ins":
            self.handle_event_ins(node, payload, t)
            outputs = machine.handle_insert(payload, t)
        elif kind == "del":
            self.handle_event_del(node, payload, t)
            outputs = machine.handle_delete(payload, t)
        elif kind == "rcv":
            self.handle_event_rcv(node, payload, t)
            outputs = machine.handle_receive(payload, t)
        else:  # snd events are not fed to the state machine (step 3)
            self.handle_event_snd(node, payload, t)
            return
        for output in outputs:
            if isinstance(output, Der):
                self.handle_output_der(node, output, t)
            elif isinstance(output, Und):
                self.handle_output_und(node, output, t)
            elif isinstance(output, Snd):
                self.handle_output_snd(node, output, t)
            else:
                raise TypeError(f"unknown state machine output {output!r}")

    def run(self, history):
        """Run the GCA over an iterable of events; returns the graph."""
        for event in history:
            self.process(event)
        return self.graph

    def _paint(self, v, color):
        self.graph.vertex(v).color = color

    # ------------------------------------------- library functions (Fig 10)

    def appear_local_tuple(self, i, tup, vwhy, t):
        """Figure 10, lines 8–13."""
        graph = self.graph
        v1 = graph.add_vertex(Vertex(APPEAR, i, tup, t))
        # Deviation: a re-insert while the tuple still exists links the
        # new appear to the already-open exist instead of opening a
        # second interval (refcounted base tuples).
        v2 = graph.open_interval(EXIST, i, tup)
        if v2 is None:
            v2 = graph.add_vertex(Vertex(EXIST, i, tup, t))
        if vwhy is not None:
            graph.add_edge(vwhy, v1)
        graph.add_edge(v1, v2)
        return v1

    def disappear_local_tuple(self, i, tup, vwhy, t):
        """Figure 10, lines 15–21."""
        graph = self.graph
        v1 = graph.add_vertex(Vertex(DISAPPEAR, i, tup, t))
        if vwhy is not None:
            graph.add_edge(vwhy, v1)
        open_exist = graph.open_interval(EXIST, i, tup)
        if open_exist is None:
            # Deviation: disappearance of a tuple that never existed is
            # itself proof of a bogus log.
            self._paint(v1, Color.RED)
            return v1
        graph.close_interval(open_exist, t)
        graph.add_edge(v1, open_exist)
        return v1

    def appear_remote_tuple(self, i, tup, j, vwhy, t):
        """Figure 10, lines 23–28."""
        graph = self.graph
        v1 = graph.add_vertex(Vertex(BELIEVE_APPEAR, i, tup, t, None, j))
        v2 = graph.open_interval(BELIEVE, i, tup)
        if v2 is None:
            v2 = graph.add_vertex(Vertex(BELIEVE, i, tup, t, None, j))
        if vwhy is not None:
            graph.add_edge(vwhy, v1)
        graph.add_edge(v1, v2)
        return v1

    def disappear_remote_tuple(self, i, tup, j, vwhy, t):
        """Figure 10, lines 30–36."""
        graph = self.graph
        v1 = graph.add_vertex(Vertex(BELIEVE_DISAPPEAR, i, tup, t, None, j))
        if vwhy is not None:
            graph.add_edge(vwhy, v1)
        open_believe = graph.open_interval(BELIEVE, i, tup)
        if open_believe is None:
            self._paint(v1, Color.RED)
            return v1
        graph.close_interval(open_believe, t)
        graph.add_edge(v1, open_believe)
        return v1

    def flag_all_pending(self, i, t):
        """Figure 10, lines 38–49."""
        self.flag_ackpend(i)
        unacked = self._unacked.get(i)
        pending = self._pending
        if pending:  # mostly empty: a correct node's snd events drain it
            for (node, key), v in list(pending.items()):
                if node != i:
                    continue
                self._paint(v, Color.RED)
                del pending[(node, key)]
                # Red is final: no later ack may repaint it black.
                msg_id = key[:3]  # Msg.msg_id() of the full key
                if unacked and unacked.get(msg_id) == v:
                    del unacked[msg_id]
        if not unacked:
            return
        vertex = self.graph.vertex
        deadline = t - 2 * self.t_prop
        stale = []
        for msg_id, v in unacked.items():
            if vertex(v).t < deadline:
                if msg_id in self.known_alarm_msg_ids:
                    continue  # maintainer was notified; not the sender's fault
                self._paint(v, Color.RED)
                stale.append(msg_id)
        for msg_id in stale:
            del unacked[msg_id]

    def add_send_vertex(self, m, vwhy, t):
        """Figure 10, lines 50–67."""
        graph = self.graph
        v1 = graph.id_of((SEND, m.full_key()))
        if v1 is None:
            v1 = graph.add_vertex(
                Vertex(SEND, m.src, None, t, None, m.dst, None, m,
                       Color.YELLOW)
            )
            if m.src in self.machines:
                self._nopreds.add(v1)
                self._unacked.setdefault(m.src, {})[m.msg_id()] = v1
        if vwhy is not None and v1 in self._nopreds:
            graph.add_edge(vwhy, v1)
            self._nopreds.discard(v1)
        return v1

    def add_receive_vertex(self, m, t):
        """Figure 10, lines 69–84."""
        send_vertex = self.add_send_vertex(m, None, m.t_sent)
        graph = self.graph
        v1 = graph.id_of((RECEIVE, m.full_key()))
        if v1 is None:
            v1 = graph.add_vertex(
                Vertex(RECEIVE, m.dst, None, t, None, m.src, None, m,
                       Color.YELLOW)
            )
        graph.add_edge(send_vertex, v1)
        return v1

    def flag_ackpend(self, i):
        """Figure 10, lines 93–98."""
        table = self._ackpend.get(i)
        if not table:
            return
        for v in table.values():
            self._paint(v, Color.RED)
        table.clear()

    # --------------------------------------------- event handlers (Fig 11)

    def handle_event_ins(self, i, tup, t):
        """Figure 11, lines 99–104."""
        self.flag_all_pending(i, t)
        v1 = self.graph.add_vertex(Vertex(INSERT, i, tup, t))
        self.appear_local_tuple(i, tup, v1, t)

    def handle_event_del(self, i, tup, t):
        """Figure 11, lines 106–111."""
        self.flag_all_pending(i, t)
        v1 = self.graph.add_vertex(Vertex(DELETE, i, tup, t))
        self.disappear_local_tuple(i, tup, v1, t)

    def handle_event_snd(self, i, m, t):
        """Figure 11, lines 113–127."""
        if isinstance(m, Ack):
            table = self._ackpend.get(i)
            for covered in m.msgs:
                if table and covered.msg_id() in table:
                    v1 = self.graph.id_of((RECEIVE, covered.full_key()))
                    if v1 is not None:
                        del table[covered.msg_id()]
                        self._paint(v1, Color.BLACK)
        elif (i, m.full_key()) in self._pending:
            del self._pending[(i, m.full_key())]
        else:
            v2 = self.add_send_vertex(m, None, t)
            self._unacked.get(i, {}).pop(m.msg_id(), None)
            self._paint(v2, Color.RED)
        self.flag_ackpend(i)

    def handle_event_rcv(self, i, m, t):
        """Figure 11, lines 129–147."""
        self.flag_all_pending(i, t)
        if isinstance(m, Ack):
            for covered in m.msgs:
                self.add_receive_vertex(covered, m.t_sent)
                table = self._unacked.get(i)
                if table and covered.msg_id() in table:
                    v1 = self.graph.id_of((SEND, covered.full_key()))
                    if v1 is not None:
                        del table[covered.msg_id()]
                        self._paint(v1, Color.BLACK)
        else:
            v1 = self.add_receive_vertex(m, t)
            self._ackpend.setdefault(i, {})[m.msg_id()] = v1
            if m.polarity == PLUS:
                self.appear_remote_tuple(i, m.tup, m.src, v1, t)
            else:
                self.disappear_remote_tuple(i, m.tup, m.src, v1, t)

    # -------------------------------------------- output handlers (Fig 11)

    def _support_vertex(self, i, tup, t, disappearing):
        """Figure 11, lines 151–160 / 168–177: locate the vertex that
        justifies using support tuple *tup* in a (un)derivation at time t.

        For a derivation the same-instant candidates are believe-appear and
        appear; for an underivation, believe-disappear and disappear.
        """
        graph = self.graph
        if disappearing:
            same_instant = (BELIEVE_DISAPPEAR, DISAPPEAR)
        else:
            same_instant = (BELIEVE_APPEAR, APPEAR)
        for vtype in same_instant:
            v = graph.id_of((vtype, i, tup, t))
            if v is not None:
                return v
        v = graph.open_interval(BELIEVE, i, tup)
        if v is not None:
            return v
        v = graph.open_interval(EXIST, i, tup)
        if v is not None:
            return v
        # Defensive: a deterministic machine only derives from tuples it
        # holds, so this is unreachable for faithful replays; create a
        # yellow placeholder rather than crash on a hostile log.
        return graph.add_vertex(
            Vertex(EXIST, i, tup=tup, t=t, color=Color.YELLOW))

    def handle_output_der(self, i, der, t):
        """Figure 11, lines 148–163 (+ Section 3.4 constraint extension)."""
        graph = self.graph
        v1 = graph.add_vertex(
            Vertex(DERIVE, i, der.tup, t, None, None, der.rule))
        for support in der.support:
            graph.add_edge(self._support_vertex(i, support, t, False), v1)
        appear_vertex = self.appear_local_tuple(i, der.tup, v1, t)
        if der.replaces is not None:
            # Constraint extension: the replaced tuple's disappearance is a
            # direct cause of this appearance. Find its most recent
            # disappearance at or before this instant.
            candidates = [
                v for vtype in (DISAPPEAR, BELIEVE_DISAPPEAR)
                for v in graph.find_all(vtype=vtype, node=i,
                                        tup=der.replaces)
                if v.t <= t
            ]
            if candidates:
                gone = max(candidates, key=lambda v: v.t)
                graph.add_edge(graph.id_of(gone), appear_vertex)

    def handle_output_und(self, i, und, t):
        """Figure 11, lines 165–180."""
        graph = self.graph
        v1 = graph.add_vertex(
            Vertex(UNDERIVE, i, und.tup, t, None, None, und.rule))
        for support in und.support:
            graph.add_edge(self._support_vertex(i, support, t, True), v1)
        self.disappear_local_tuple(i, und.tup, v1, t)

    def handle_output_snd(self, i, snd, t):
        """Figure 11, lines 182–190."""
        m = snd.msg
        if m.polarity == PLUS:
            vwhy = self.graph.id_of((APPEAR, i, m.tup, t))
        else:
            vwhy = self.graph.id_of((DISAPPEAR, i, m.tup, t))
        v1 = self.add_send_vertex(m, vwhy, t)
        self._pending[(i, m.full_key())] = v1

    # ------------------------------------------------- checkpoint seeding

    def seed_node(self, node, extant, believed):
        """Pre-create open exist/believe vertices from a checkpoint
        (:func:`seed_vertices`)."""
        for vertex in seed_vertices(node, extant, believed):
            self.graph.add_vertex(vertex)


def seed_vertices(node, extant, believed):
    """The open exist/believe vertices a checkpoint seeds.

    *extant* is an iterable of (tup, appeared_at); *believed* of
    (tup, peer, appeared_at). Seeded vertices are flagged so the query
    processor knows their provenance lies in an older log segment.
    """
    for tup, appeared_at in extant:
        yield Vertex(EXIST, node, tup=tup, t=appeared_at, seeded=True)
    for tup, peer, appeared_at in believed:
        yield Vertex(BELIEVE, node, tup=tup, t=appeared_at, peer=peer,
                     seeded=True)
