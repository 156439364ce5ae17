"""The graph construction algorithm on hand-built histories.

These tests drive the GCA directly with event sequences (no network, no
logs) to pin down the pseudocode's behaviors: vertex/edge construction per
Table 1, the pending/ackpend/unacked bookkeeping, and the red-coloring
rules of Appendix B.6/B.7.
"""

from repro.datalog import Var, Atom, Rule, Program, DatalogApp
from repro.model import Ack, Msg, Tup, PLUS, MINUS
from repro.provgraph.gca import Event, GraphConstructor
from repro.provgraph.vertices import (
    Color, INSERT, DELETE, APPEAR, DISAPPEAR, EXIST, DERIVE, UNDERIVE,
    SEND, RECEIVE, BELIEVE, BELIEVE_APPEAR,
)

X, Y = Var("X"), Var("Y")

LOCAL_RULE = Rule("R", Atom("h", X, Y), [Atom("b", X, Y)])
REMOTE_RULE = Rule("F", Atom("fwd", Y, X), [Atom("b", X, Y)])


def _gca(rules=(LOCAL_RULE,), t_prop=1.0):
    program = Program(list(rules))
    return GraphConstructor(lambda n: DatalogApp(n, program), t_prop=t_prop)


def _ack_for(msg, t):
    return Ack(msg.dst, msg.src, [msg], t)


class TestLocalEvents:
    def test_insert_builds_insert_appear_exist(self):
        gca = _gca()
        tup = Tup("x", "n", 1)
        gca.process(Event(1.0, "n", "ins", tup))
        g = gca.graph
        ins = g.get((INSERT, "n", tup, 1.0))
        app = g.get((APPEAR, "n", tup, 1.0))
        exi = g.get((EXIST, "n", tup, 1.0))
        assert ins and app and exi
        assert g.has_edge(ins, app) and g.has_edge(app, exi)
        assert exi.t_end is None

    def test_delete_closes_exist(self):
        gca = _gca()
        tup = Tup("x", "n", 1)
        gca.process(Event(1.0, "n", "ins", tup))
        gca.process(Event(2.0, "n", "del", tup))
        g = gca.graph
        exi = g.get((EXIST, "n", tup, 1.0))
        dis = g.get((DISAPPEAR, "n", tup, 2.0))
        dele = g.get((DELETE, "n", tup, 2.0))
        assert exi.t_end == 2.0
        assert g.has_edge(dele, dis) and g.has_edge(dis, exi)

    def test_delete_of_nonexistent_is_red(self):
        gca = _gca()
        tup = Tup("x", "n", 1)
        gca.process(Event(1.0, "n", "del", tup))
        dis = gca.graph.get((DISAPPEAR, "n", tup, 1.0))
        assert dis.color == Color.RED

    def test_derivation_vertices_and_edges(self):
        gca = _gca()
        body = Tup("b", "n", 1)
        head = Tup("h", "n", 1)
        gca.process(Event(1.0, "n", "ins", body))
        g = gca.graph
        der = g.get((DERIVE, "n", head, "R", 1.0))
        assert der is not None
        body_appear = g.get((APPEAR, "n", body, 1.0))
        head_appear = g.get((APPEAR, "n", head, 1.0))
        assert g.has_edge(body_appear, der)
        assert g.has_edge(der, head_appear)

    def test_underive_on_delete(self):
        gca = _gca()
        body = Tup("b", "n", 1)
        head = Tup("h", "n", 1)
        gca.process(Event(1.0, "n", "ins", body))
        gca.process(Event(2.0, "n", "del", body))
        g = gca.graph
        und = g.get((UNDERIVE, "n", head, "R", 2.0))
        assert und is not None
        head_exist = g.get((EXIST, "n", head, 1.0))
        assert head_exist.t_end == 2.0

    def test_all_vertices_black_for_correct_history(self):
        gca = _gca()
        tup = Tup("b", "n", 1)
        gca.process(Event(1.0, "n", "ins", tup))
        gca.process(Event(2.0, "n", "del", tup))
        assert not gca.graph.red_vertices()


class TestMessaging:
    def _send_flow(self, gca):
        """A correct remote derivation at node 'a' destined to node 'b'."""
        body = Tup("b", "a", "b")  # REMOTE_RULE: fwd(@b, a)
        gca.process(Event(1.0, "a", "ins", body))
        machine = gca.machines["a"]
        # Recover the message the machine sent (seq 0 to b).
        sends = [v for v in gca.graph.vertices() if v.vtype == SEND]
        assert len(sends) == 1
        return sends[0].msg

    def test_send_vertex_initially_yellow(self):
        gca = _gca((REMOTE_RULE,))
        msg = self._send_flow(gca)
        gca.process(Event(1.0, "a", "snd", msg))
        send = gca.graph.get((SEND, msg.full_key()))
        assert send.color == Color.YELLOW

    def test_ack_turns_send_black(self):
        gca = _gca((REMOTE_RULE,))
        msg = self._send_flow(gca)
        gca.process(Event(1.0, "a", "snd", msg))
        gca.process(Event(1.3, "a", "rcv", _ack_for(msg, 1.2)))
        send = gca.graph.get((SEND, msg.full_key()))
        assert send.color == Color.BLACK

    def test_receive_flow_builds_believe(self):
        gca = _gca((REMOTE_RULE,))
        msg = Msg(PLUS, Tup("fwd", "b", "a"), "a", "b", 0, 1.0)
        gca.process(Event(1.2, "b", "rcv", msg))
        gca.process(Event(1.2, "b", "snd", Ack("b", "a", [msg], 1.2)))
        g = gca.graph
        recv = g.get((RECEIVE, msg.full_key()))
        ba = g.get((BELIEVE_APPEAR, "b", msg.tup, 1.2))
        bel = g.get((BELIEVE, "b", msg.tup, 1.2))
        assert recv.color == Color.BLACK  # acked immediately
        assert g.has_edge(recv, ba) and g.has_edge(ba, bel)
        send_stub = g.get((SEND, msg.full_key()))
        assert send_stub.color == Color.YELLOW  # sender side unknown

    def test_unacked_receive_goes_red(self):
        gca = _gca((REMOTE_RULE,))
        msg = Msg(PLUS, Tup("fwd", "b", "a"), "a", "b", 0, 1.0)
        gca.process(Event(1.2, "b", "rcv", msg))
        # Next input arrives without the node having sent the ack.
        gca.process(Event(1.5, "b", "ins", Tup("x", "b", 0)))
        recv = gca.graph.get((RECEIVE, msg.full_key()))
        assert recv.color == Color.RED

    def test_fabricated_send_goes_red(self):
        gca = _gca((REMOTE_RULE,))
        bogus = Msg(PLUS, Tup("fwd", "b", "zzz"), "a", "b", 0, 1.0)
        gca.process(Event(1.0, "a", "snd", bogus))
        send = gca.graph.get((SEND, bogus.full_key()))
        assert send.color == Color.RED

    def test_suppressed_output_goes_red(self):
        gca = _gca((REMOTE_RULE,))
        msg = self._send_flow(gca)
        # The machine produced the output, but no snd event follows; the
        # next input flags it.
        gca.process(Event(2.0, "a", "ins", Tup("x", "a", 0)))
        send = gca.graph.get((SEND, msg.full_key()))
        assert send.color == Color.RED

    def test_a_later_ack_does_not_repaint_a_suppressed_send(self):
        # Red is proof: an ack for a message the log never sent must not
        # turn its send vertex black again.
        gca = _gca((REMOTE_RULE,))
        msg = self._send_flow(gca)
        gca.process(Event(1.5, "a", "ins", Tup("x", "a", 0)))
        gca.process(Event(1.7, "a", "rcv", _ack_for(msg, 1.6)))
        send = gca.graph.get((SEND, msg.full_key()))
        assert send.color == Color.RED

    def test_stale_unacked_send_goes_red_after_2tprop(self):
        gca = _gca((REMOTE_RULE,), t_prop=0.1)
        msg = self._send_flow(gca)
        gca.process(Event(1.0, "a", "snd", msg))
        gca.process(Event(5.0, "a", "ins", Tup("x", "a", 0)))
        send = gca.graph.get((SEND, msg.full_key()))
        assert send.color == Color.RED

    def test_alarmed_unacked_send_stays_yellow(self):
        gca = _gca((REMOTE_RULE,), t_prop=0.1)
        msg = self._send_flow(gca)
        gca.known_alarm_msg_ids = frozenset([msg.msg_id()])
        gca.process(Event(1.0, "a", "snd", msg))
        gca.process(Event(5.0, "a", "ins", Tup("x", "a", 0)))
        send = gca.graph.get((SEND, msg.full_key()))
        assert send.color == Color.YELLOW

    def test_same_seq_different_content_not_aliased(self):
        gca = _gca((REMOTE_RULE,))
        msg = self._send_flow(gca)
        forged = Msg(msg.polarity, Tup("fwd", "b", "forged"), msg.src,
                     msg.dst, msg.seq, msg.t_sent)
        gca.process(Event(1.0, "a", "snd", forged))
        forged_send = gca.graph.get((SEND, forged.full_key()))
        honest_send = gca.graph.get((SEND, msg.full_key()))
        assert forged_send.color == Color.RED
        assert forged_send is not honest_send


class TestCheckpointSeeding:
    def test_seeded_vertices_are_open_and_flagged(self):
        gca = _gca()
        tup = Tup("b", "n", 1)
        gca.seed_node("n", [(tup, 0.5)], [(Tup("r", "n", 2), "p", 0.6)])
        graph = gca.graph
        exist = graph.vertex(graph.open_interval(EXIST, "n", tup))
        believe = graph.vertex(
            graph.open_interval(BELIEVE, "n", Tup("r", "n", 2)))
        assert exist.seeded and believe.seeded
        assert exist.t == 0.5

    def test_replay_continues_from_seed(self):
        program = Program([LOCAL_RULE])
        gca = GraphConstructor(lambda n: DatalogApp(n, program))
        machine = gca.machine("n")
        body = Tup("b", "n", 1)
        # Simulate a checkpoint where body already exists.
        machine.store.add_base(body, 0.5)
        gca.seed_node("n", [(body, 0.5)], [])
        gca.process(Event(2.0, "n", "del", body))
        exist = gca.graph.get((EXIST, "n", body, 0.5))
        assert exist.t_end == 2.0
