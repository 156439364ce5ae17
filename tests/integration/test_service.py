"""The service plane end-to-end, over real loopback sockets.

The acceptance bar for PR 8's tentpole: a daemon fed by *pushed* deltas
must reach verdicts bit-identical to a direct in-process audit of the
same deployment (clean runs compare whole summaries; adversarial runs
compare convictions), standing subscriptions must alert on the first
push that carries a downgrade, and the degradation ladder — shedding to
poll fallback, one reconnect on a kept connection — must keep both sides
consistent.

Everything here runs the real stack: asyncio servers on ``127.0.0.1``
port 0, framed pickles on the push socket, HTTP/NDJSON on the REST side.
"""

import asyncio
import contextlib
import json
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps.mapreduce import WordCountJob
from repro.apps.mincost import best_cost, link, mincost_factory
from repro.crypto.rsa import generate_keypair
from repro.metrics import QueryStats
from repro.service import (
    MonitorClient, ServicePusher, server, start_monitor_thread, tup_spec,
)
from repro.service.framing import frame_payload
from repro.service.monitor import MonitorState, watch_key
from repro.service.push import TIMEOUT_SECONDS
from repro.snp import Deployment, QueryProcessor
from repro.snp.adversary import ForkingNode, TamperingNode
from repro.snp.evidence import RetentionFloor
from repro.snp.log import LogEntry
from repro.util.errors import QueryError

from scenarios import paper_network


def paper_deployment(adversary_cls=None, victim="b", seed=77):
    return paper_network(seed, {victim: adversary_cls} if adversary_cls
                         else {})


def direct_summary(dep, tup, **kwargs):
    qp = QueryProcessor(dep)
    qp.refresh()
    return qp.why(tup, **kwargs).summary()


@pytest.fixture
def monitor():
    handle = start_monitor_thread(
        host="127.0.0.1", push_port=0, http_port=0)
    try:
        yield handle
    finally:
        handle.stop()


def make_pusher(dep, handle):
    return ServicePusher(dep, "127.0.0.1", handle.daemon.push_port)


class TestServiceAudit:
    def test_pushed_audit_matches_direct(self, monitor, clients):
        """The acceptance gate: the daemon's verdict over pushed data is
        bit-identical to a direct in-process audit."""
        dep, _nodes = paper_deployment()
        expected = direct_summary(dep, best_cost("c", "d", 5))
        assert expected["verdict"] == "green"

        pusher = make_pusher(dep, monitor)
        ack = pusher.push_once()
        assert ack is not None and not ack.get("shed")

        client = clients()
        out = client.query(tup_spec(best_cost("c", "d", 5), fresh=True))
        assert out["ok"]
        assert out["result"] == expected
        pusher.close()
        # Framing damage folds into the meter read by read.
        meter = client.status()["meter"]
        assert (meter["corrupt_frames"], meter["garbage_bytes"],
                meter["oversized_frames"]) == (0, 0, 0)

    def test_status_reports_pushed_heads(self, monitor, clients):
        dep, _nodes = paper_deployment()
        pusher = make_pusher(dep, monitor)
        pusher.push_once()
        client = clients()
        status = client.status()
        assert status["ok"] and status["hello"]
        for name, node in dep.nodes.items():
            assert status["nodes"][str(name)] == len(node.log.entries)
        assert status["meter"]["pushes_accepted"] == 1
        assert set(status["query"]) == \
            set(QueryStats.FIELDS) - set(QueryStats.TIMING_FIELDS)
        pusher.close()

    def test_incremental_push_ships_only_the_delta(self, monitor):
        dep, nodes = paper_deployment()
        pusher = make_pusher(dep, monitor)
        first = pusher.push_once()
        heads = dict(first["heads"])
        nodes["a"].insert(link("a", "e", 9))
        dep.run()
        msg = pusher.build_push()
        part = msg["nodes"]["a"]["response"]
        assert part.start_index == heads["a"] + 1
        second = pusher.push_once()
        assert second["heads"]["a"] == len(nodes["a"].log.entries)
        assert second["heads"]["a"] > heads["a"]
        pusher.close()

    def test_sixteen_concurrent_clients_agree(self, monitor, clients):
        """≥16 REST clients sharing one daemon all see the same audit."""
        dep, _nodes = paper_deployment()
        expected = direct_summary(dep, best_cost("c", "d", 5))
        pusher = make_pusher(dep, monitor)
        pusher.push_once()
        client = clients()
        client.refresh()

        spec = tup_spec(best_cost("c", "d", 5))
        results = [None] * 16
        errors = []

        def worker(slot):
            try:
                with MonitorClient("127.0.0.1", monitor.daemon.http_port,
                                   timeout=60) as own:
                    results[slot] = own.query(spec)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not errors
        for out in results:
            assert out is not None and out["ok"]
            assert out["result"] == expected
        assert monitor.daemon.meter.queries_served >= 16
        pusher.close()

    def test_a_mapreduce_job_run_after_the_hello_audits_as_direct(
            self, monitor):
        """The splits travel in the mappers' logs, not in the hello: a
        job run after the hello replays at the daemon as it does here."""
        dep = Deployment(seed=31)
        job = WordCountJob(dep, n_mappers=2, n_reducers=1)
        pusher = make_pusher(dep, monitor)
        assert not pusher.push_once()["shed"]
        job.run(["the quick brown fox", "the lazy dog"])
        assert not pusher.push_once()["shed"]
        pusher.close()
        _settle(monitor)
        assert {status for status, _reason in _views(dep).values()} \
            == {"ok"}
        assert _views(monitor.daemon.state) == _views(dep)

    def test_a_mapreduce_deployment_may_hello_again_after_its_job(
            self, monitor):
        """An app spec carries no data, so the hello a new pusher sends
        after the job ran is the one the daemon already holds."""
        dep = Deployment(seed=31)
        job = WordCountJob(dep, n_mappers=2, n_reducers=1)
        first = make_pusher(dep, monitor)
        assert not first.push_once()["shed"]
        job.run(["the quick brown fox", "the lazy dog"])
        first.close()
        second = make_pusher(dep, monitor)
        ack = second.push_once()
        second.close()
        assert ack is not None and not ack["shed"]
        assert second.meter.push_failures == 0
        _settle(monitor)
        assert _views(monitor.daemon.state) == _views(dep)


class TestAdversarial:
    def test_fork_convicted_through_service(self, monitor, clients):
        """A fork after the daemon stored the honest prefix: the next
        delta contradicts the stored chain, and the daemon's audit
        convicts exactly like a direct one."""
        dep, nodes = paper_deployment(ForkingNode)
        pusher = make_pusher(dep, monitor)
        pusher.push_once()

        nodes["b"].fork_log(keep_upto=3)
        nodes["b"].insert(link("b", "e", 9))
        dep.run()
        pusher.push_once()

        client = clients()
        out = client.query(tup_spec(best_cost("c", "d", 5), fresh=True))
        assert out["ok"]
        assert out["result"]["verdict"] == "red"
        assert "b" in out["result"]["faulty_nodes"]

        direct = direct_summary(dep, best_cost("c", "d", 5))
        assert direct["verdict"] == "red"
        assert "b" in direct["faulty_nodes"]
        pusher.close()

    def test_tampered_history_convicted_through_service(self, monitor,
                                                        clients):
        dep, nodes = paper_deployment(TamperingNode)
        pusher = make_pusher(dep, monitor)
        pusher.push_once()

        nodes["b"].tamper_entry(2, ("rewritten-history",),
                                recompute_chain=True)
        # History alone can't reach the daemon — it already holds the
        # honest prefix. The node's next (non-empty) push carries hashes
        # from the rewritten chain, and that contradiction convicts.
        nodes["b"].insert(link("b", "e", 9))
        dep.run()
        pusher.push_once()

        client = clients()
        out = client.query(tup_spec(best_cost("c", "d", 5), fresh=True))
        assert out["ok"]
        assert out["result"]["verdict"] == "red"
        assert "b" in out["result"]["faulty_nodes"]
        pusher.close()

    def test_a_log_embedding_an_unregistered_signer_is_convicted(self):
        """A hello and a push that leave ``b`` out: ``a``'s log still
        holds ``b``'s batch authenticators, which no registered key can
        have signed. Before the check, building ``a``'s view raised
        ``KeyError: 'b'`` — every daemon query touching ``a`` a 500."""
        dep, _nodes = paper_deployment()
        pusher = ServicePusher(dep, "127.0.0.1", 1)  # builds messages only
        hello = pusher.hello_message()
        push = pusher.build_push()
        del hello["nodes"]["b"], push["nodes"]["b"]
        state = MonitorState()
        state.ingest_hello(hello)
        state.ingest_push(push)
        qp = QueryProcessor(state)
        view = qp.mq.view_of("a")
        assert qp.mq.view_of("c").status == "proven-faulty"
        assert view.status == "proven-faulty"
        assert "unregistered node 'b'" in view.verdict_reason


HOSTILE_HELLOS = {
    # the issue's frame: "a" is fine, "b" has no key — nothing may apply
    "missing-key": {"t_prop": 0.05, "nodes": {
        "a": {"key": (5, 3), "app": ("mincost", {})}, "b": {}}},
    "key-not-ints": {"t_prop": 0.05, "nodes": {"a": {"key": ("n", 3)}}},
    "key-is-bool": {"t_prop": 0.05, "nodes": {"a": {"key": (True, 3)}}},
    "t-prop-not-a-number": {"t_prop": "soon", "nodes": {}},
    "nodes-not-a-table": {"t_prop": 0.05, "nodes": [("a", (5, 3))]},
    "unknown-app": {"t_prop": 0.05, "nodes": {
        "a": {"key": (5, 3), "app": ("no-such-app", {})}}},
    "malformed-app-spec": {"t_prop": 0.05, "nodes": {
        "a": {"key": (5, 3), "app": ("mincost",)}}},
    "app-kwargs-rejected": {"t_prop": 0.05, "nodes": {
        "a": {"key": (5, 3),
              "app": ("mincost", {"no_such_kwarg": 1})}}},
    "app-kwargs-not-a-dict": {"t_prop": 0.05, "nodes": {
        "a": {"key": (5, 3), "app": ("mincost", [("max_cost", 3)])}}},
    # a node replay could never rebuild: accepted, it made every later
    # refresh raise, for every subscriber
    "app-missing": {"t_prop": 0.05, "nodes": {"a": {"key": (5, 3)}}},
    "app-none": {"t_prop": 0.05, "nodes": {"a": {"key": (5, 3),
                                                 "app": None}}},
}

def _changed(hello, node=None, **fields):
    """*hello* with *fields* of *node*'s entry, or of the hello itself,
    replaced."""
    (hello["nodes"][node] if node else hello).update(fields)
    return hello


_FRESH_KEY = generate_keypair(256, seed=4242)
#: name → a second hello, given the first: each changes identity the
#: daemon already adopted, and each is refused whole.
IDENTITY_CHANGES = {
    "fresh-key": lambda hello: _changed(
        hello, "a", key=(_FRESH_KEY.n, _FRESH_KEY.e)),
    "other-app-spec": lambda hello: _changed(
        hello, "a", app=("mincost", {"max_cost": 9})),
    "other-t-prop": lambda hello: _changed(
        hello, t_prop=hello["t_prop"] * 2),
}


def _views(dep):
    """Every node's view of a cold audit: ``{node: (status, reason)}``."""
    return {node: (view.status, view.verdict_reason)
            for node, view in QueryProcessor(dep).prefetch().items()}


def hostile_pushes(auth):
    """name → malformed push body; *auth* is a genuine authenticator, so
    the well-formed half of a frame is really well formed."""
    return {
        "response-not-a-response": {
            "nodes": {"a": {"response": "not-a-response"}}},
        # "a"'s part is fine — it must not land when "c"'s is not
        "second-node-malformed": {
            "nodes": {"a": {"response": None, "auths": {"b": [auth]}},
                      "c": {"response": 5}}},
        "nodes-not-a-table": {"nodes": ["a"]},
        "auths-not-lists": {
            "nodes": {"a": {"response": None, "auths": {"b": 7}}}},
        "auths-not-authenticators": {
            "nodes": {"a": {"response": None, "auths": {"b": ["sig"]}}}},
        "alarm-without-msg-ids": {"nodes": {}, "alarms": [{"node": "a"}]},
        "fault-without-reason": {"nodes": {}, "faults": [{"node": "a"}]},
        "floor-not-an-advert": {"nodes": {}, "floors": {"a": 3}},
        # acked and stored, it made every later GET /status drop its
        # connection unanswered: the reply could not be JSON
        "seq-not-an-int": {"nodes": {}, "seq": b"\x00"},
    }


#: name → the floor a push files under ``a``, given the deployment and
#: ``a``'s genuine floor after the first GC pass. An honest node's floor
#: never goes down, and every floor is signed by its node.
FLOOR_LIES = {
    "forged-below-the-held-floor":
        lambda dep, first: RetentionFloor("a", 1, 0.0, b"forged"),
    "forged-at-the-held-floor": lambda dep, first: RetentionFloor(
        "a", dep.retention_floors["a"].floor_index,
        dep.retention_floors["a"].floor_time, b"forged"),
    "an-older-genuine-floor": lambda dep, first: first,
    "another-node's-floor": lambda dep, first: dep.retention_floors["b"],
}


_SPEC = {"relation": "bestCost", "loc": "c", "args": ["d", 5]}

#: name → (route, JSON body) answered 400, or a raw Content-Length value.
HOSTILE_REQUESTS = {
    # the issue's body: the subscription used to be registered *before*
    # its key was hashed, and every later refresh raised on it
    "subscribe-dict-arg": ("/subscribe", {"watches": [
        {"relation": "bestCost", "loc": "a", "args": [{"x": 1}]}]}),
    "subscribe-dict-inside-a-list-arg": ("/subscribe", {"watches": [
        dict(_SPEC, args=[["d", {"x": 1}], 5])]}),
    "subscribe-second-watch-malformed": ("/subscribe", {"watches": [
        _SPEC, dict(_SPEC, node={"b": 1})]}),
    "subscribe-no-loc": ("/subscribe",
                         {"watches": [{"relation": "bestCost"}]}),
    "query-no-loc": ("/query", {"relation": "bestCost", "args": ["d", 5]}),
    "query-relation-not-a-string": ("/query", dict(_SPEC, relation=7)),
    "query-args-not-a-list": ("/query", dict(_SPEC, args="d5")),
    "query-dict-loc": ("/query", dict(_SPEC, loc={"c": 1})),
    "query-unknown-direction": ("/query", dict(_SPEC, direction="sideways")),
    "query-at-not-a-number": ("/query", dict(_SPEC, at="noon")),
    "query-scope-not-a-number": ("/query", dict(_SPEC, scope=True)),
    "content-length-not-a-number": "abc",
    "content-length-negative": "-5",
}


def _status_of_raw_post(port, content_length):
    with socket.create_connection(("127.0.0.1", port), timeout=20) as sock:
        sock.sendall((f"POST /query HTTP/1.1\r\nHost: monitor\r\n"
                      f"Content-Length: {content_length}\r\n\r\n").encode())
        reply = sock.makefile("rb").read()
    return int(reply.split()[1])


class TestHostileFrames:
    """A well-framed message that is malformed inside is answered with
    an error and counted, and changes nothing: the connection, the
    stored state and every later audit are as if it never arrived. The
    same holds for a REST request whose spec is malformed."""

    @pytest.mark.parametrize("name", sorted(HOSTILE_REQUESTS))
    def test_malformed_rest_request_is_400_and_changes_nothing(
            self, monitor, clients, name):
        dep, nodes = paper_deployment(ForkingNode)
        pusher = make_pusher(dep, monitor)
        pusher.push_once()
        port = monitor.daemon.http_port
        client = clients()
        fresh = tup_spec(best_cost("c", "d", 5), fresh=True)
        before = client.query(fresh)
        assert before["ok"] and before["result"]["verdict"] == "green"
        with client.subscribe([tup_spec(best_cost("c", "d", 5))]) as stream:
            stream.events_until(
                lambda e: e.get("type") == "state", timeout=20)
            assert client.status()["subscriptions"] == 1

            hostile = HOSTILE_REQUESTS[name]
            if isinstance(hostile, str):
                assert _status_of_raw_post(port, hostile) == 400
            else:
                reply = client._request("POST", *hostile)
                assert reply["_status"] == 400 and not reply["ok"]

            assert client.refresh()["ok"]
            after = client.query(fresh)
            assert after["ok"] and after["result"] == before["result"]
            assert client.status()["subscriptions"] == 1

            # ... and the subscriber already open is still served
            nodes["b"].fork_log(keep_upto=3)
            nodes["b"].insert(link("b", "e", 9))
            dep.run()
            pusher.push_once()
            alert = stream.events_until(
                lambda e: e.get("type") == "alert", timeout=20)[-1]
            assert alert["to"] == "red" and "b" in alert["faulty_nodes"]
        pusher.close()

    def _audited(self, monitor, clients):
        dep, _nodes = paper_deployment()
        pusher = make_pusher(dep, monitor)
        assert not pusher.push_once()["shed"]
        client = clients()
        spec = tup_spec(best_cost("c", "d", 5), fresh=True)
        before = client.query(spec)
        assert before["ok"]
        return dep, pusher, client, spec, before

    @staticmethod
    def _stored(daemon):
        state = daemon.state
        return {
            "hello": state.hello, "t_prop": state._t_prop,
            "keys": {n: (k.n, k.e) for n, k in state._public_keys.items()},
            "apps": dict(state.app_factories),
            "holdings": state.holdings(),
            "latest": {n: p.latest for n, p in state.nodes.items()},
            "floors": dict(state.retention_floors),
        }

    def _assert_rejected_whole(self, monitor, clients, make_frame):
        dep, pusher, client, spec, before = self._audited(monitor, clients)
        frame = make_frame(dep)
        stored = self._stored(monitor.daemon)
        reply = pusher._exchange(frame)
        assert reply["type"] == "error" and "malformed" in reply["error"]
        assert monitor.daemon.meter.corrupt_frames == 1
        assert self._stored(monitor.daemon) == stored
        assert client.status()["last_push_seq"] == pusher.seq
        # The same connection carries on: the next valid push is acked
        # without a reconnect, and the audit answers as before.
        ack = pusher.push_once()
        assert ack is not None and not ack["shed"]
        assert pusher.meter.push_retries == 0
        after = client.query(spec)
        assert after["ok"] and after["result"] == before["result"]
        pusher.close()
        return dep

    def test_a_refused_global_is_counted_apart_from_line_damage(
            self, monitor, clients):
        """A correctly framed payload naming ``builtins.eval`` is an
        attack, not a bad cable: it is answered with an error, ``/status``
        says so in its own counter at once, nothing runs, and the
        connection and the daemon carry on."""
        dep, pusher, client, spec, before = self._audited(monitor, clients)
        probe = (b"\x80\x04\x8c\x08builtins\x8c\x04eval\x93"
                 b"\x8c\x041+41\x85R.")
        pusher._sock.sendall(frame_payload(probe))
        assert pusher._recv()["type"] == "error"
        # Counted while the peer still holds its socket open.
        meter = client.status()["meter"]
        assert (meter["refused_globals"], meter["corrupt_frames"],
                meter["garbage_bytes"], meter["oversized_frames"]) \
            == (1, 1, 0, 0)
        ack = pusher.push_once()
        assert ack is not None and not ack["shed"]
        assert pusher.meter.push_retries == 0
        pusher.close()
        after = client.query(spec)
        assert after["ok"] and after["result"] == before["result"]

    @pytest.mark.parametrize("name", sorted(HOSTILE_HELLOS))
    def test_malformed_hello_is_rejected_whole(self, monitor, clients, name):
        self._assert_rejected_whole(
            monitor, clients, lambda dep: dict(HOSTILE_HELLOS[name], type="hello"))

    @pytest.mark.parametrize("name", sorted(IDENTITY_CHANGES))
    def test_a_hello_that_changes_identity_is_refused_whole(
            self, monitor, clients, name):
        """Identity is adopted once. A second hello that gives ``a`` a
        fresh key, or another app spec, or moves the Tprop bound, would
        have every log re-judged under it — accepted, a fresh key for
        ``a`` left ``a``, ``b``, ``d`` and ``e`` proven-faulty. It is
        refused whole, and every later audit equals the direct one."""
        dep = self._assert_rejected_whole(
            monitor, clients, lambda dep: IDENTITY_CHANGES[name](
                ServicePusher(dep, "127.0.0.1", 1).hello_message()))
        _settle(monitor)
        state = monitor.daemon.state
        assert _views(state) == _views(dep)
        assert {status for status, _reason in _views(dep).values()} \
            == {"ok"}
        target = best_cost("c", "d", 5)
        assert direct_summary(state, target) == direct_summary(dep, target)

    def test_a_hello_may_repeat_itself_or_add_nodes(self):
        """What every reconnect sends — the same hello — is accepted, and
        so is one that adds a node; the known nodes keep their identity."""
        dep, _nodes = paper_deployment()
        hello = ServicePusher(dep, "127.0.0.1", 1).hello_message()
        state = MonitorState()
        state.ingest_hello(hello)
        state.ingest_hello(hello)
        state.ingest_hello(_changed(hello, nodes=dict(
            hello["nodes"], z=hello["nodes"]["a"])))
        assert set(state.nodes) == set(dep.nodes) | {"z"}
        for node, info in hello["nodes"].items():
            key = state.public_key_of(node)
            assert (key.n, key.e) == info["key"]

    @pytest.mark.parametrize("name", sorted(hostile_pushes(None)))
    def test_malformed_push_is_rejected_whole(self, monitor, clients, name):
        self._assert_rejected_whole(monitor, clients, lambda dep: {
            "type": "push", "seq": 10_000,
            **hostile_pushes(dep.nodes["c"].received_auths["b"][0])[name]})

    @pytest.mark.parametrize("field,lie", [
        ("content_hash", "in hex"), ("entry_hash", "in hex"),
        ("timestamp", "an int"), ("timestamp", "a str"),
    ])
    def test_an_entry_no_chain_step_takes_costs_its_frame(
            self, monitor, clients, field, lie):
        """A pushed log entry whose digest is not 32 raw bytes, or whose
        timestamp is not a float, cannot be hashed into the chain: its
        builder refuses it, so the frame decodes to nothing — answered
        with an error, counted corrupt, none of its delta stored — and
        the same delta, pushed intact, lands."""
        dep, pusher, client, _spec, _before = self._audited(monitor, clients)
        a = dep.nodes["a"]
        a.insert(link("a", "e", 50))
        dep.run()
        stored = self._stored(monitor.daemon)
        pusher._send(_lying_push(
            a, stored["holdings"]["heads"]["a"], field, lie))
        assert pusher._recv()["type"] == "error"
        assert client.status()["meter"]["corrupt_frames"] == 1
        assert self._stored(monitor.daemon) == stored
        ack = pusher.push_once()
        assert ack is not None and not ack["shed"]
        assert pusher.meter.push_retries == 0
        assert monitor.daemon.state.holdings()["heads"]["a"] == len(a.log)
        pusher.close()

    def test_a_content_that_does_not_encode_is_a_digest_mismatch(
            self, monitor, clients):
        """A pushed entry whose content holds a value with no canonical
        encoding (an authenticator) is well framed, so it is acked and
        stored — but no chain check hashes it: ``a``'s log does not
        match its digest: an audit rooted at ``a`` says so and one
        elsewhere answers as before, after more honest pushes too,
        instead of failing on the encoding."""
        dep, pusher, client, elsewhere, before = self._audited(
            monitor, clients)
        spec = tup_spec(link("a", "b", 6), fresh=True)
        assert client.query(spec)["result"]["verdict"] == "green"
        a = dep.nodes["a"]
        a.insert(link("a", "e", 50))
        dep.run()
        response = a.retrieve(
            since_index=monitor.daemon.state.holdings()["heads"]["a"])
        entry = response.entries[-1]
        response.entries[-1] = LogEntry(
            entry.index, entry.timestamp, entry.entry_type,
            (entry.content, response.head_auth), entry.content_hash,
            entry.entry_hash)
        reply = pusher._exchange({"type": "push", "seq": 10_000,
                                  "nodes": {"a": {"response": response}}})
        assert reply["type"] == "push-ack"
        assert monitor.daemon.state.holdings()["heads"]["a"] == len(a.log)
        for _push in range(2):
            answer = client.query(spec)
            assert not answer["ok"] and answer["error"] == (
                "cannot query 'a': proven-faulty (log of node 'a' failed "
                f"verification: entry {entry.index} content does not match "
                "its digest)")
            answer = client.query(elsewhere)
            assert answer["ok"] and answer["result"] == before["result"]
            a.insert(link("a", "e", 51))
            dep.run()
            assert not pusher.push_once()["shed"]
        pusher.close()

    def test_a_content_that_does_not_encode_is_trimmed_like_any_other(
            self, monitor, clients):
        """A stored entry whose content does not encode is dropped like
        any other once the node's sanctioned floor passes it, charged its
        header: the push that carries the floor is acked, the stored copy
        starts at the floor, nothing counts as corrupt, and the
        connection and the audit carry on."""
        dep, pusher, client, spec, before = self._audited(monitor, clients)
        state = monitor.daemon.state
        a = dep.nodes["a"]
        a.insert(link("a", "e", 50))
        dep.run()
        response = a.retrieve(since_index=state.holdings()["heads"]["a"])
        entry = response.entries[-1]
        response.entries[-1] = LogEntry(
            entry.index, entry.timestamp, entry.entry_type,
            (entry.content, response.head_auth), entry.content_hash,
            entry.entry_hash)
        reply = pusher._exchange({"type": "push", "seq": 10_000,
                                  "nodes": {"a": {"response": response}}})
        assert reply["type"] == "push-ack"
        a.checkpoint()
        floor = a.advertise_retention_floor()
        assert floor.floor_index > entry.index
        delta = a.retrieve(since_index=state.holdings()["heads"]["a"])
        reply = pusher._exchange({"type": "push", "seq": 10_001,
                                  "nodes": {"a": {"response": delta}},
                                  "floors": {"a": floor}})
        assert reply["type"] == "push-ack"
        assert state.nodes["a"].merged.start_index == floor.floor_index
        assert client.status()["meter"]["corrupt_frames"] == 0
        ack = pusher.push_once()
        assert ack is not None and not ack["shed"]
        after = client.query(spec)
        assert after["ok"] and after["result"] == before["result"]
        pusher.close()

    @pytest.mark.parametrize("payload", [[1, 2], {"seq": 1}],
                             ids=["a-list", "no-type"])
    def test_a_frame_that_is_no_typed_message_is_answered(
            self, monitor, clients, payload):
        """An intact frame that decodes to no typed message is answered
        with an error as well, counted corrupt, and changes nothing."""
        _dep, pusher, client, _spec, _before = self._audited(
            monitor, clients)
        stored = self._stored(monitor.daemon)
        assert pusher._exchange(payload)["type"] == "error"
        assert client.status()["meter"]["corrupt_frames"] == 1
        assert self._stored(monitor.daemon) == stored
        ack = pusher.push_once()
        assert ack is not None and not ack["shed"]
        assert pusher.meter.push_retries == 0
        pusher.close()

    @staticmethod
    def _floored(monitor, clients):
        """The paper network after six rounds of push, a refresh of the
        daemon's views and a GC pass: the stored copies start at their
        floors. Returns the deployment, the pusher and ``a``'s floor
        after the first pass."""
        dep, _nodes = paper_deployment()
        pusher = make_pusher(dep, monitor)
        dep.register_querier(pusher)
        client = clients()
        first = None
        for _round in range(6):
            assert not pusher.push_once()["shed"]
            assert client.refresh()["ok"]
            dep.run_gc()
            first = first or dep.retention_floors.get("a")
        assert not pusher.push_once()["shed"]
        return dep, pusher, first

    @pytest.mark.parametrize("name", sorted(FLOOR_LIES))
    def test_a_floor_that_is_forged_or_goes_down_is_refused_whole(
            self, monitor, clients, name):
        """A pushed floor must verify under its node's key and must not
        go down. Adopted, the forged floor 1 or ``a``'s older genuine
        floor would be the floor a cold audit holds the stored copy —
        which starts at ``a``'s current floor — against, and ``a``
        would be convicted of a retention violation the direct audit
        does not see. Refused whole, every view equals the direct
        audit's."""
        dep, pusher, first = self._floored(monitor, clients)
        state = monitor.daemon.state
        held = state.retention_floors["a"]
        assert first.floor_index < held.floor_index \
            == state.nodes["a"].merged.start_index
        stored = self._stored(monitor.daemon)
        msg = pusher.build_push()
        msg["floors"]["a"] = FLOOR_LIES[name](dep, first)
        reply = pusher._exchange(msg)
        assert reply["type"] == "error" and "floor" in reply["error"]
        assert monitor.daemon.meter.corrupt_frames == 1
        assert self._stored(monitor.daemon) == stored
        ack = pusher.push_once()
        assert ack is not None and not ack["shed"]
        pusher.close()
        _settle(monitor)
        assert _views(state) == _views(dep)
        assert {status for status, _reason in _views(dep).values()} \
            == {"ok"}

    def test_a_node_that_replays_its_older_floor_is_convicted_alike(
            self, monitor, clients):
        """A node that re-advertises its older signed floor breaks the
        rule the daemon holds pushed floors to, at the handshake: it is
        convicted there, citing both adverts, and its held floor stays.
        The pusher never ships a lowered floor, so every later push
        lands and every daemon view equals the direct audit's."""
        dep, pusher, first = self._floored(monitor, clients)
        a = dep.nodes["a"]
        held = dep.retention_floors["a"]
        a.advertise_retention_floor = lambda mark=None: first
        dep.run_gc()
        assert dep.retention_floors["a"] is held
        [fault] = [fault for fault in dep.maintainer.retention_faults
                   if fault["node"] == "a"]
        assert (fault["advert"], fault["held"]) == (first, held)
        a.insert(link("a", "e", 50))
        dep.run()
        for _tick in range(2):
            ack = pusher.push_once()
            assert ack is not None and not ack["shed"]
        assert monitor.daemon.meter.corrupt_frames == 0
        pusher.close()
        _settle(monitor)
        state = monitor.daemon.state
        assert state.retention_floors["a"].payload() == held.payload()
        views = _views(dep)
        assert views["a"][0] == "proven-faulty"
        assert "goes below its own earlier signed floor" in views["a"][1]
        assert _views(state) == views

    def test_a_refused_push_ends_its_tick_without_a_resend(
            self, monitor, clients):
        """The daemon's error reply is the pusher's answer: ``push_once``
        returns ``None`` at once, counts a failure and resends nothing —
        the same bytes would be refused again. The next tick, intact,
        lands on the same connection."""
        dep, pusher, client, _spec, _before = self._audited(monitor, clients)
        a = dep.nodes["a"]
        a.insert(link("a", "e", 50))
        dep.run()
        stored = self._stored(monitor.daemon)
        intact = pusher.build_push

        def lying():
            msg = intact()
            msg["nodes"].update(_lying_push(
                a, stored["holdings"]["heads"]["a"], "timestamp",
                "an int")["nodes"])
            return msg
        pusher.build_push = lying
        started = time.monotonic()
        assert pusher.push_once() is None
        assert time.monotonic() - started < TIMEOUT_SECONDS / 4
        assert (pusher.meter.push_failures, pusher.meter.push_retries,
                pusher.meter.frames_sent) == (1, 0, 3)
        assert self._stored(monitor.daemon) == stored
        pusher.build_push = intact
        ack = pusher.push_once()
        assert ack is not None and not ack["shed"]
        assert pusher.meter.push_retries == 0
        assert monitor.daemon.state.holdings()["heads"]["a"] == len(a.log)
        pusher.close()


def _lying_push(node, since, field, lie):
    """A push of *node*'s log past *since* whose last entry carries
    *field* in a form no chain step takes."""
    response = node.retrieve(since_index=since)
    entry = response.entries[-1]  # the list is the response's own
    fields = {name: getattr(entry, name) for name in LogEntry.__slots__}
    fields[field] = {"in hex": bytes.hex, "an int": int,
                     "a str": str}[lie](fields[field])
    response.entries[-1] = LogEntry(**fields)
    return {"type": "push", "seq": 10_000,
            "nodes": {node.node_id: {"response": response}}}


@contextlib.contextmanager
def _raw_exchange(port, request):
    """Write *request* on a connection of its own; yields the reply
    stream."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        with sock.makefile("rb") as stream:
            yield stream


def _read_reply(stream):
    """One HTTP response off the stream, by its ``Content-Length``:
    (status, headers, decoded JSON body)."""
    status = int(stream.readline().split()[1])
    headers = {}
    while True:
        line = stream.readline()
        if line in (b"\r\n", b""):
            break
        name, _sep, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, json.loads(
        stream.read(int(headers["content-length"])))


def _closed_by_daemon(stream):
    """Nothing more comes: EOF — or a reset, which is what a close
    turns into when the daemon left request bytes unread."""
    try:
        return stream.read() == b""
    except ConnectionResetError:
        return True


def _wait_for(condition, seconds=10.0):
    deadline = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


_GET_STATUS = b"GET /status HTTP/1.1\r\nHost: monitor\r\n\r\n"


class TestPersistentConnections:
    """The REST plane keeps a connection for as long as its peer behaves:
    reuse is a count in ``/status``, not a timing; everything that ends a
    connection — an error, ``Connection: close``, a deadline, the daemon
    going away — ends it cleanly for both sides."""

    def test_one_client_is_one_connection(self, monitor):
        with MonitorClient("127.0.0.1", monitor.daemon.http_port) as client:
            before = client.status()["meter"]
            assert (before["http_connections"], before["http_requests"],
                    before["http_timeouts"]) == (1, 1, 0)
            for _ in range(7):
                assert client.marks()["ok"]
            after = client.status()["meter"]
        assert after["http_connections"] == before["http_connections"]
        assert after["http_requests"] == before["http_requests"] + 8

    def test_pipelined_requests_are_answered_in_order(self, monitor):
        with _raw_exchange(
                monitor.daemon.http_port,
                b"GET /marks HTTP/1.1\r\nHost: monitor\r\n\r\n"
                + _GET_STATUS) as stream:
            first = _read_reply(stream)
            second = _read_reply(stream)
        assert first[0] == second[0] == 200
        assert "connection" not in first[1]
        assert "marks" in first[2] and "meter" in second[2]
        assert second[2]["meter"]["http_connections"] == 1
        assert second[2]["meter"]["http_requests"] == 2

    def test_an_error_closes_and_the_client_reconnects(self, monitor):
        port = monitor.daemon.http_port
        with _raw_exchange(
                port, b"GET /nowhere HTTP/1.1\r\nHost: monitor\r\n\r\n"
        ) as stream:
            status, headers, body = _read_reply(stream)
            assert status == 404 and not body["ok"]
            assert headers["connection"] == "close"
            assert _closed_by_daemon(stream)
        with MonitorClient("127.0.0.1", port) as client:
            assert client.status()["ok"]
            reply = client._request("POST", "/query", {"relation": 7})
            assert reply["_status"] == 400
            meter = client.status()["meter"]
        # the raw socket, the client's first connection, its second
        assert meter["http_connections"] == 3

    @pytest.mark.parametrize("request_head", [
        b"GET /status HTTP/1.1\r\nConnection: close\r\n\r\n",
        b"GET /status HTTP/1.0\r\n\r\n",
    ], ids=["connection-close", "http-1.0"])
    def test_a_peer_that_wants_one_answer_gets_one(self, monitor,
                                                   request_head):
        with _raw_exchange(monitor.daemon.http_port,
                           request_head) as stream:
            status, headers, body = _read_reply(stream)
            assert status == 200 and body["ok"]
            assert headers["connection"] == "close"
            assert _closed_by_daemon(stream)

    def test_client_survives_a_daemon_restart_with_one_reconnect(self):
        dep, _nodes = paper_deployment()
        spec = tup_spec(best_cost("c", "d", 5), fresh=True)
        first = start_monitor_thread(
            host="127.0.0.1", push_port=0, http_port=0)
        port = first.daemon.http_port
        client = MonitorClient("127.0.0.1", port)
        try:
            pusher = make_pusher(dep, first)
            pusher.push_once()
            before = client.query(spec)
            assert before["ok"]
        finally:
            first.stop()
        pusher.close()

        second = start_monitor_thread(
            host="127.0.0.1", push_port=0, http_port=port)
        try:
            pusher = make_pusher(dep, second)
            pusher.push_once()
            # The client still holds the dead daemon's connection.
            after = client.query(spec)
            assert after["ok"] and after["result"] == before["result"]
            assert second.daemon.meter.http_connections == 1
            assert second.daemon.meter.http_requests == 1
        finally:
            second.stop()
        pusher.close()
        # Nobody listening: the one retry fails, and that is the answer.
        with pytest.raises(ConnectionError):
            client.query(spec)
        with pytest.raises(ConnectionError):
            client.status()
        client.close()

    def test_an_idle_connection_is_closed_and_replaced(self, monitor,
                                                       monkeypatch):
        monkeypatch.setattr(server, "IDLE_SECONDS", 0.2)
        meter = monitor.daemon.meter
        with _raw_exchange(monitor.daemon.http_port,
                           _GET_STATUS) as stream:
            assert _read_reply(stream)[0] == 200
            assert _closed_by_daemon(stream)
        assert meter.http_timeouts == 1
        with MonitorClient("127.0.0.1", monitor.daemon.http_port) as client:
            assert client.status()["ok"]
            _wait_for(lambda: meter.http_timeouts == 2)
            assert client.status()["ok"]
        assert meter.http_connections == 3

    @pytest.mark.parametrize("half_request", [
        b"POST /query HTTP/1.1\r\nContent-Length: 50\r\n\r\n{",
        b"GET /status HTTP/1.1\r\nHost: monitor\r\n",
        b"G",
    ], ids=["short-body", "no-blank-line", "one-byte"])
    def test_a_stalled_request_is_dropped(self, monitor, monkeypatch,
                                          half_request):
        """At the parent a half-sent request pinned its handler task for
        good: no deadline anywhere in ``server.py``."""
        monkeypatch.setattr(server, "REQUEST_SECONDS", 0.2)
        with _raw_exchange(monitor.daemon.http_port,
                           half_request) as stream:
            assert _closed_by_daemon(stream)
        assert monitor.daemon.meter.http_timeouts == 1
        _wait_for(lambda: not monitor.daemon._conn_tasks)
        # ... while a whole request is in no hurry to be answered
        with MonitorClient("127.0.0.1", monitor.daemon.http_port) as client:
            assert client.status()["meter"]["http_timeouts"] == 1

    @pytest.mark.parametrize("headers", [
        b"X: 1\r\n" * 500,
        b"X: " + b"a" * 70_000 + b"\r\n",
    ], ids=["500-header-lines", "70kB-header-line"])
    def test_oversized_headers_are_431_and_closed(self, monitor, headers):
        """At the parent the first was answered 200 (the bound counted a
        dict's keys, not lines) and the second 500 (``StreamReader``'s
        line limit fell through to the defensive arm)."""
        with _raw_exchange(
                monitor.daemon.http_port,
                b"GET /status HTTP/1.1\r\n" + headers + b"\r\n") as stream:
            status, reply_headers, body = _read_reply(stream)
            assert status == 431 and not body["ok"]
            assert reply_headers["connection"] == "close"
            assert _closed_by_daemon(stream)

    def test_stop_does_not_wait_for_idle_connections(self):
        handle = start_monitor_thread(
            host="127.0.0.1", push_port=0, http_port=0)
        clients = [MonitorClient("127.0.0.1", handle.daemon.http_port)
                   for _ in range(3)]
        try:
            for client in clients:
                assert client.status()["ok"]
            assert len(handle.daemon._conn_tasks) == 3
            started = time.monotonic()
        finally:
            handle.stop()
        assert time.monotonic() - started < server.IDLE_SECONDS / 4
        assert not handle.daemon._conn_tasks
        for client in clients:
            client.close()


class TestSubscriptions:
    def test_alert_on_green_to_red_within_one_push(self, monitor, clients):
        dep, nodes = paper_deployment(ForkingNode)
        pusher = make_pusher(dep, monitor)
        pusher.push_once()

        client = clients()
        watch = tup_spec(best_cost("c", "d", 5))
        with client.subscribe([watch]) as stream:
            banner = stream.next_event(timeout=20)
            assert banner["type"] == "subscribed"
            seen = stream.events_until(
                lambda e: e.get("type") == "state", timeout=20)
            assert seen[-1]["verdict"] == "green"

            nodes["b"].fork_log(keep_upto=3)
            nodes["b"].insert(link("b", "e", 9))
            dep.run()
            pusher.push_once()

            seen = stream.events_until(
                lambda e: e.get("type") == "alert", timeout=20)
            alert = seen[-1]
            assert alert["from"] == "green" and alert["to"] == "red"
            assert "b" in alert["faulty_nodes"]
        assert monitor.daemon.meter.alerts_emitted >= 1
        pusher.close()

    def test_fanout_same_downgrade_reaches_every_subscriber(self, monitor,
                                                            clients):
        dep, nodes = paper_deployment(ForkingNode)
        pusher = make_pusher(dep, monitor)
        pusher.push_once()

        client = clients()
        watch = tup_spec(best_cost("c", "d", 5))
        streams = [client.subscribe([watch]) for _ in range(4)]
        try:
            for stream in streams:
                assert stream.next_event(timeout=20)["type"] == "subscribed"
                stream.events_until(
                    lambda e: e.get("type") == "state", timeout=20)

            nodes["b"].fork_log(keep_upto=3)
            nodes["b"].insert(link("b", "e", 9))
            dep.run()
            pusher.push_once()

            for stream in streams:
                seen = stream.events_until(
                    lambda e: e.get("type") == "alert", timeout=20)
                assert seen[-1]["to"] == "red"
            # One unique watch → one evaluation per epoch, not four.
            assert (monitor.daemon.meter.watch_evaluations
                    < 4 * monitor.daemon.meter.refresh_batches)
        finally:
            for stream in streams:
                stream.close()
        pusher.close()


    def test_quiet_refresh_skips_watch_evaluation(self, monitor, clients):
        """A refresh that changes no node's view (no new pushes, every
        delta fetch empty) reuses each watch's stored outcome instead of
        re-running the query — and a refresh that *does* carry a
        downgrade still alerts, so the skip never masks a change."""
        dep, nodes = paper_deployment(ForkingNode)
        pusher = make_pusher(dep, monitor)
        pusher.push_once()

        client = clients()
        watch = tup_spec(best_cost("c", "d", 5))
        with client.subscribe([watch]) as stream:
            assert stream.next_event(timeout=20)["type"] == "subscribed"
            stream.events_until(
                lambda e: e.get("type") == "state", timeout=20)
            # Settle: when the push's pass was still in flight as the
            # subscription registered, that pass evaluated the watch and
            # the subscription's own wake-up pass is still owed.
            assert client.refresh()["ok"]

            skipped_before = monitor.daemon.meter.watch_evaluations_skipped
            evaluated_before = monitor.daemon.meter.watch_evaluations
            for _ in range(3):   # nothing pushed: views cannot change
                assert client.refresh()["ok"]
            assert (monitor.daemon.meter.watch_evaluations_skipped
                    - skipped_before == 3)
            assert (monitor.daemon.meter.watch_evaluations
                    == evaluated_before)

            nodes["b"].fork_log(keep_upto=3)
            nodes["b"].insert(link("b", "e", 9))
            dep.run()
            pusher.push_once()
            seen = stream.events_until(
                lambda e: e.get("type") == "alert", timeout=20)
            assert seen[-1]["to"] == "red"
            assert (monitor.daemon.meter.watch_evaluations
                    > evaluated_before)
        pusher.close()


SPEC = tup_spec(best_cost("c", "d", 5))


def _on_loop(handle, make_coro):
    """Run ``make_coro()`` on the daemon's event loop; its result."""
    return asyncio.run_coroutine_threadsafe(
        make_coro(), handle._loop).result(30)


def _settle(handle):
    """Wait until no ingest or refresh pass is owed, scheduled or running."""
    daemon = handle.daemon

    async def idle():
        while daemon._refresh_needed.is_set() or daemon._writes:
            await asyncio.sleep(0.002)
    _on_loop(handle, idle)


def _rerun(handle, spec):
    """The reply a ``_run_query`` run on the worker gives right now."""
    daemon = handle.daemon

    def evaluate():
        try:
            return {"ok": True, "result": daemon._run_query(spec).summary()}
        except QueryError as exc:
            return {"ok": False, "error": str(exc)}

    async def on_worker():
        return dict(await daemon._in_pool(evaluate), epoch=daemon.qp.epoch)
    return _on_loop(handle, on_worker)


@contextlib.contextmanager
def _worker_blocked(daemon):
    """Hold the daemon's one worker: what is scheduled meanwhile queues."""
    gate = threading.Event()
    daemon._qp_pool.submit(gate.wait)
    try:
        yield
    finally:
        gate.set()


def _pushed(handle, adversary_cls=None):
    """A paper deployment pushed to *handle*'s daemon, its pass done."""
    dep, nodes = paper_deployment(adversary_cls)
    pusher = make_pusher(dep, handle)
    assert not pusher.push_once()["shed"]
    _settle(handle)
    return dep, nodes, pusher


def _fork_b(dep, nodes):
    nodes["b"].fork_log(keep_upto=3)
    nodes["b"].insert(link("b", "e", 9))
    dep.run()


@pytest.fixture
def clients(monitor):
    """Make clients of the ``monitor`` daemon, closed after the test."""
    made = []

    def make():
        made.append(MonitorClient("127.0.0.1", monitor.daemon.http_port))
        return made[-1]
    yield make
    for client in made:
        client.close()


class TestAnswerTable:
    """A repeated read is a lookup in the daemon's answer table, and no
    stored answer outlives the verified state it was computed at."""

    def test_a_read_that_builds_a_view_is_not_stored(self, monitor, clients):
        daemon = monitor.daemon
        _dep, _nodes, pusher = _pushed(monitor)
        client = clients()
        first = client.query(SPEC)        # builds every view it reaches
        assert first["ok"] and not daemon._answers
        assert client.query(SPEC) == first
        assert list(daemon._answers) == [watch_key(SPEC)]
        assert client.status()["meter"]["answers_reused"] == 0
        # an explicit default is the same key
        assert client.query(dict(SPEC, scope=None)) == first
        assert client.status()["meter"]["answers_reused"] == 1
        pusher.close()

    def test_hits_skip_run_query(self, monitor, clients, monkeypatch):
        daemon = monitor.daemon
        _dep, _nodes, pusher = _pushed(monitor)
        calls = []
        run_query = daemon._run_query
        monkeypatch.setattr(daemon, "_run_query",
                            lambda spec: calls.append(spec) or run_query(spec))
        client = clients()
        warm = client.query(dict(SPEC, fresh=True))
        replies = [client.query(SPEC) for _ in range(10)]
        assert all(reply == warm for reply in replies)
        # the fresh read built views; the first plain read stored
        assert len(calls) == 2
        meter = client.status()["meter"]
        assert (meter["answers_reused"], meter["queries_served"]) == (9, 11)
        pusher.close()

    def test_a_stored_green_does_not_outlive_a_pass_that_changed_a_view(
            self, monitor, clients):
        """The fork's ingest empties the table, but a plain read queued
        between that ingest and its pass stores green again (it reads the
        views as they were); the pass must empty the table once more."""
        daemon = monitor.daemon
        dep, nodes, pusher = _pushed(monitor, ForkingNode)
        client, reader = clients(), clients()
        green = client.query(dict(SPEC, fresh=True))
        assert green["result"]["verdict"] == "green"
        _fork_b(dep, nodes)
        with ThreadPoolExecutor(2) as side, _worker_blocked(daemon):
            pushed = side.submit(pusher.push_once)
            _wait_for(lambda: daemon._writes == 1)   # the ingest is queued
            stale = side.submit(reader.query, SPEC)
            # the read queued behind it
            _wait_for(lambda: daemon._qp_pool._work_queue.qsize() == 2)
        assert not pushed.result()["shed"]
        assert stale.result()["result"] == green["result"]
        assert client.refresh()["ok"]
        out = client.query(SPEC)
        assert out["result"]["verdict"] == "red"
        assert "b" in out["result"]["faulty_nodes"]
        pusher.close()

    def test_a_read_issued_after_a_pass_was_scheduled_waits_for_it(
            self, monitor, clients):
        daemon = monitor.daemon
        _dep, _nodes, pusher = _pushed(monitor)
        client, reader = clients(), clients()
        client.query(dict(SPEC, fresh=True))
        stored = client.query(SPEC)
        with ThreadPoolExecutor(2) as side, _worker_blocked(daemon):
            refreshed = side.submit(client.refresh)
            _wait_for(lambda: daemon._writes == 1)   # the pass is queued
            read = side.submit(reader.query, SPEC)
            time.sleep(0.2)
            assert not read.done()
        assert read.result()["epoch"] == refreshed.result()["epoch"]
        assert read.result()["result"] == stored["result"]
        pusher.close()

    def test_a_fresh_read_joins_the_pass_covering_its_push(
            self, monitor, clients):
        daemon = monitor.daemon
        dep, _nodes, pusher = _pushed(monitor)
        client, reader = clients(), clients()
        batches = daemon.meter.refresh_batches
        batched = daemon.meter.requests_batched
        with ThreadPoolExecutor(2) as side, _worker_blocked(daemon):
            refreshed = side.submit(client.refresh)
            _wait_for(lambda: daemon._writes == 1)   # the pass is queued
            fresh = side.submit(reader.query, dict(SPEC, fresh=True))
            _wait_for(lambda: daemon.meter.requests_batched == batched + 2)
        assert fresh.result()["epoch"] == refreshed.result()["epoch"]
        assert daemon.meter.refresh_batches == batches + 1
        assert fresh.result()["result"] == direct_summary(
            dep, best_cost("c", "d", 5))
        pusher.close()

    def test_a_fresh_read_does_not_join_a_pass_older_than_a_push(
            self, monitor, clients):
        daemon = monitor.daemon
        dep, nodes, pusher = _pushed(monitor, ForkingNode)
        client, reader = clients(), clients()
        assert client.query(dict(SPEC, fresh=True))["ok"]
        _fork_b(dep, nodes)
        with ThreadPoolExecutor(3) as side, _worker_blocked(daemon):
            refreshed = side.submit(client.refresh)
            _wait_for(lambda: daemon._writes == 1)   # the pass is queued
            pushed = side.submit(pusher.push_once)
            _wait_for(lambda: daemon._writes == 2)   # the ingest behind it
            fresh = side.submit(reader.query, dict(SPEC, fresh=True))
            _wait_for(lambda: daemon._refresh_waiters)  # owed the next pass
        assert not pushed.result()["shed"]
        # (a later pass, at least: the push's own may follow at once)
        assert fresh.result()["epoch"] > refreshed.result()["epoch"]
        assert fresh.result()["result"]["verdict"] == "red"
        pusher.close()

    def test_no_read_issued_after_a_conviction_is_green(
            self, monitor, clients):
        """Eight readers hammer one spec (loop-side hits, worker-side
        stores) while pushes, then a fork, land; once a fresh read has
        returned red, no read issued later may be the stored green."""
        daemon = monitor.daemon
        dep, nodes, pusher = _pushed(monitor, ForkingNode)
        client = clients()
        assert client.query(dict(SPEC, fresh=True))["ok"]
        stop = threading.Event()

        def read(_slot):
            seen = []
            with MonitorClient("127.0.0.1", daemon.http_port) as own:
                while not stop.is_set():
                    issued = time.monotonic()
                    seen.append((issued, own.query(SPEC)["result"]["verdict"]))
            return seen

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(8) as side:
                readers = [side.submit(read, slot) for slot in range(8)]
                for step in range(3):
                    nodes["a"].insert(link("a", "e", 100 + step))
                    dep.run()
                    assert not pusher.push_once()["shed"]
                _fork_b(dep, nodes)
                assert not pusher.push_once()["shed"]
                red = client.query(dict(SPEC, fresh=True))
                convicted = time.monotonic()
                time.sleep(0.3)
                stop.set()
                seen = [row for reader in readers
                        for row in reader.result(30)]
        finally:
            sys.setswitchinterval(interval)
        assert red["result"]["verdict"] == "red"
        late = [verdict for issued, verdict in seen if issued > convicted]
        assert late and set(late) == {"red"}
        assert daemon.meter.answers_reused > 0
        pusher.close()


#: Specs the interleavings read: a deep why, a shallow one, a forward
#: query, and one that is a ``QueryError`` (no such tuple).
INTERLEAVED_SPECS = (
    SPEC,
    tup_spec(link("a", "b", 6), scope=1),
    tup_spec(link("b", "c", 2), scope=2, direction="effects"),
    tup_spec(best_cost("c", "d", 99)),
)

#: (operation, index of the spec it reads or watches)
_OPS = st.lists(st.tuples(
    st.sampled_from(["push", "fork", "refresh", "read", "fresh",
                     "subscribe"]),
    st.integers(0, len(INTERLEAVED_SPECS) - 1)), min_size=1, max_size=12)


class TestAnswerTableInterleavings:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=_OPS)
    def test_every_reply_equals_a_run_query_rerun(self, ops):
        """Push, plain read, fresh read, ``/refresh`` and subscribe in any
        order: every reply — hit or miss — is what ``_run_query`` gives on
        the worker at that point."""
        handle = start_monitor_thread(
            host="127.0.0.1", push_port=0, http_port=0)
        dep, nodes, pusher = _pushed(handle, ForkingNode)
        client = MonitorClient("127.0.0.1", handle.daemon.http_port)
        forked = False
        try:
            with contextlib.ExitStack() as streams:
                for step, (op, index) in enumerate(ops):
                    spec = INTERLEAVED_SPECS[index]
                    if op == "fork" and not forked:
                        _fork_b(dep, nodes)
                        forked = True
                        assert not pusher.push_once()["shed"]
                    elif op in ("push", "fork"):
                        nodes["a"].insert(link("a", "e", 100 + step))
                        dep.run()
                        assert not pusher.push_once()["shed"]
                    elif op == "refresh":
                        assert client.refresh()["ok"]
                    elif op == "subscribe":
                        stream = streams.enter_context(
                            client.subscribe([spec]))
                        assert stream.next_event(10)["type"] == "subscribed"
                    else:
                        reply = client.query(
                            dict(spec, fresh=True) if op == "fresh" else spec)
                        _settle(handle)
                        assert reply.pop("_status") == 200
                        assert reply == _rerun(handle, spec)
                    _settle(handle)
        finally:
            client.close()
            pusher.close()
            handle.stop()


class TestDegradation:
    def test_shed_keeps_delta_and_next_tick_polls(self, monitor):
        dep, _nodes = paper_deployment()
        pusher = make_pusher(dep, monitor)
        pusher.connect()

        monitor.daemon.ingest_limit = 0
        ack = pusher.push_once()
        assert ack is not None and ack["shed"]
        # Nothing advanced past the hello baseline of zero.
        assert set(pusher.ack["heads"].values()) == {0}
        assert pusher.meter.poll_fallbacks == 1
        assert monitor.daemon.meter.pushes_shed == 1

        monitor.daemon.ingest_limit = 64
        ack = pusher.push_once()
        assert not ack["shed"]
        for name, node in dep.nodes.items():
            assert ack["heads"][name] == len(node.log.entries)
        pusher.close()

    def test_a_refused_connection_ends_the_tick(self):
        """A fresh connection that fails is the tick's failure: no
        reconnect, no sleep — the next cadence tick is the retry."""
        dep, _nodes = paper_deployment()
        pusher = ServicePusher(
            dep, "127.0.0.1", 1)  # reserved port: connection refused
        for tick in (1, 2):
            assert pusher.push_once() is None
            assert (pusher.meter.push_failures, pusher.meter.push_retries,
                    pusher.meter.frames_sent) == (tick, 0, 0)
        assert pusher.ack == {} and pusher._sock is None

    def test_a_kept_connection_to_a_stopped_daemon_is_reopened_once(self):
        """The daemon behind a kept connection restarts on another port:
        the push fails before any reply, and the tick reconnects once.
        The new hello-ack reports an empty store, so the rebuilt push
        carries every log and every authenticator."""
        dep, _nodes = paper_deployment()
        first = start_monitor_thread(
            host="127.0.0.1", push_port=0, http_port=0)
        try:
            pusher = make_pusher(dep, first)
            assert not pusher.push_once()["shed"]
        finally:
            first.stop()
        second = start_monitor_thread(
            host="127.0.0.1", push_port=0, http_port=0)
        try:
            pusher.port = second.daemon.push_port
            ack = pusher.push_once()
            assert ack is not None and not ack["shed"]
            assert (pusher.meter.push_retries,
                    pusher.meter.push_failures) == (1, 0)
            assert self._holdings(second) == self._held_by_nodes(dep)
        finally:
            second.stop()
        pusher.close()

    def test_a_reconnect_that_fails_ends_the_tick(self):
        """The one reconnect is the tick's last try: when it is refused
        too, the tick fails, and the next tick starts afresh."""
        dep, _nodes = paper_deployment()
        handle = start_monitor_thread(
            host="127.0.0.1", push_port=0, http_port=0)
        try:
            pusher = make_pusher(dep, handle)
            assert not pusher.push_once()["shed"]
        finally:
            handle.stop()
        pusher.port = 1  # reserved port: connection refused
        assert pusher.push_once() is None
        assert (pusher.meter.push_retries, pusher.meter.push_failures) \
            == (1, 1)
        assert pusher._sock is None
        assert pusher.push_once() is None
        assert (pusher.meter.push_retries, pusher.meter.push_failures) \
            == (1, 2)

    def test_a_refused_hello_ends_the_tick(self, monitor):
        """A hello the daemon answers with an error would be refused
        again word for word: the tick ends at once, like a refused push —
        no resend, no reconnect, the socket closed."""
        dep, _nodes = paper_deployment()
        pusher = make_pusher(dep, monitor)
        pusher.hello_message = lambda: dict(
            ServicePusher.hello_message(pusher), t_prop="soon")
        assert pusher.push_once() is None
        meter = pusher.meter
        assert (meter.push_failures, meter.push_retries, meter.frames_sent) \
            == (1, 0, 1)
        assert pusher._sock is None
        assert monitor.daemon.meter.corrupt_frames == 1
        assert pusher.ack == {}
        with pytest.raises(ConnectionError, match="rejected hello"):
            pusher.connect()

    @staticmethod
    def _held_by_nodes(dep):
        """What a store holding all of *dep*'s evidence reports."""
        return {
            "auths": {name: {peer: len(held)
                             for peer, held in node.received_auths.items()}
                      for name, node in dep.nodes.items()},
            "alarms": len(dep.maintainer.missing_ack_alarms),
            "faults": len(dep.maintainer.retention_faults),
        }

    @staticmethod
    def _holdings(handle):
        held = dict(handle.daemon.state.holdings())
        held.pop("heads")
        return held

    def test_push_recovers_after_daemon_restart(self):
        dep, _nodes = paper_deployment()
        first = start_monitor_thread(
            host="127.0.0.1", push_port=0, http_port=0)
        try:
            pusher = make_pusher(dep, first)
            assert not pusher.push_once()["shed"]
            assert self._holdings(first) == self._held_by_nodes(dep)
        finally:
            first.stop()
        pusher.close()

        second = start_monitor_thread(
            host="127.0.0.1", push_port=0, http_port=0)
        try:
            pusher.port = second.daemon.push_port
            ack = pusher.push_once()
            assert ack is not None and not ack["shed"]
            # The fresh daemon's hello-ack reported an empty store, and
            # the pusher builds from that ack alone: one push handed it
            # every log and every authenticator the nodes hold.
            assert self._holdings(second) == self._held_by_nodes(dep)
            assert pusher.ack is ack
            port = second.daemon.http_port
            with MonitorClient("127.0.0.1", port) as client:
                out = client.query(
                    tup_spec(best_cost("c", "d", 5), fresh=True))
            assert out["ok"] and out["result"]["verdict"] == "green"
        finally:
            second.stop()
        pusher.close()

    def test_a_restarted_daemon_convicts_a_forked_node(self):
        """The direct audit and the daemon before its restart both refuse
        to answer at a node whose log is a forked stub. A restarted
        daemon that got the logs but not the peers' authenticators
        answered green there: nothing it held covered past the stub."""
        dep, nodes = paper_deployment(ForkingNode)
        nodes["b"].fork_log(keep_upto=3)
        target = best_cost("b", "a", 6)
        with pytest.raises(QueryError) as direct:
            direct_summary(dep, target, scope=0)
        spec = tup_spec(target, scope=0, fresh=True)
        pusher = None
        for _restart in range(2):
            handle = start_monitor_thread(
                host="127.0.0.1", push_port=0, http_port=0)
            try:
                if pusher is None:
                    pusher = make_pusher(dep, handle)
                pusher.port = handle.daemon.push_port
                assert not pusher.push_once()["shed"]
                with MonitorClient(
                        "127.0.0.1", handle.daemon.http_port) as client:
                    out = client.query(spec)
                assert not out["ok"]
                assert out["error"] == str(direct.value)
                assert "proven-faulty" in out["error"]
            finally:
                handle.stop()
            pusher.close()

    def test_a_node_that_rolls_its_log_back_is_convicted(self, monitor):
        """A node pushes honestly, then rolls its log back to entry 3 and
        pushes the stub. The direct audit convicts it: its peers hold
        authenticators past the stub. The daemon served its stored copy
        of the longer log and answered green."""
        dep, nodes = paper_deployment(ForkingNode)
        pusher = make_pusher(dep, monitor)
        try:
            assert not pusher.push_once()["shed"]
            nodes["b"].fork_log(keep_upto=3)
            dep.run()
            assert not pusher.push_once()["shed"]
        finally:
            pusher.close()
        target = best_cost("b", "a", 6)
        with pytest.raises(QueryError) as direct:
            direct_summary(dep, target, scope=0)
        assert "returned log ends at 3" in str(direct.value)
        with MonitorClient("127.0.0.1", monitor.daemon.http_port) as client:
            out = client.query(tup_spec(target, scope=0, fresh=True))
        assert not out["ok"]
        assert out["error"] == str(direct.value)

    def test_a_push_whose_ack_was_lost_is_not_stored_twice(self, monitor):
        """The daemon applies a push, and its ack never arrives. The
        kept connection failed before any reply, so the tick reconnects
        once, and the hello-ack reports what the daemon holds now: the
        rebuilt push carries no authenticator it already has."""
        dep, nodes = paper_deployment()
        pusher = make_pusher(dep, monitor)
        assert not pusher.push_once()["shed"]
        nodes["a"].insert(link("a", "e", 9))
        dep.run()
        receive, lost = pusher._recv, []

        def lossy():
            reply = receive()
            if reply.get("type") == "push-ack" and not lost:
                lost.append(reply)
                raise ConnectionError("the ack was lost")
            return reply
        pusher._recv = lossy
        ack = pusher.push_once()
        assert lost and not lost[0]["shed"]
        assert ack is not None and not ack["shed"]
        assert pusher.meter.push_retries == 1
        assert monitor.daemon.meter.pushes_accepted == 3
        assert self._holdings(monitor) == self._held_by_nodes(dep)
        pusher.close()


class TestCadenceComposition:
    def test_service_push_rides_the_shared_scheduler(self, monitor,
                                                     clients):
        """PR 8's bugfix satellite: replication, GC, and service push all
        hang off one cadence table — no third ad-hoc loop."""
        dep, nodes = paper_deployment()
        dep.enable_replication(interval_seconds=5.0)
        dep.enable_gc(interval_seconds=7.0)

        pusher = make_pusher(dep, monitor)
        pusher.install(interval_seconds=3.0)
        assert dep.cadence("service-push") is not None
        assert dep.cadence("replication") is not None
        assert dep.cadence("gc") is not None

        nodes["a"].insert(link("a", "e", 9))
        dep.run()      # quiescence fires the at-quiescence cadences
        assert pusher.meter.pushes_sent >= 1
        assert monitor.daemon.meter.pushes_accepted >= 1

        # The daemon's marks flow back through the GC handshake seat.
        client = clients()
        client.query(tup_spec(best_cost("c", "d", 5), fresh=True))
        pusher.push_once()
        assert pusher.low_water_marks()
        assert pusher in dep._queriers

        pusher.uninstall()
        assert dep.cadence("service-push") is None
        assert pusher not in dep._queriers
        pusher.close()


class TestDaemonRetention:
    def test_stored_copies_follow_sanctioned_floors(self, monitor, clients):
        """The daemon's copy of each node is trimmed at the node's
        sanctioned GC floor, as a replica's mirror is: it starts where the
        origin's log does, and a cold audit of the daemon's store equals
        a cold direct audit of the GC'd deployment."""
        dep, nodes = paper_deployment()
        pusher = make_pusher(dep, monitor)
        dep.register_querier(pusher)
        client = clients()
        target = best_cost("c", "d", 5)
        for cost in range(12):
            nodes["a"].insert(link("a", "e", 20 + cost))
            dep.run()
            assert not pusher.push_once()["shed"]
            assert client.query(tup_spec(target, fresh=True))["ok"]
            assert not pusher.push_once()["shed"]  # the daemon's marks
            dep.run_gc()
        assert not pusher.push_once()["shed"]      # the last pass's floors
        _settle(monitor)
        pusher.close()
        state = monitor.daemon.state
        assert any(node.log.start_index > 1 for node in dep.nodes.values())
        for name, node in dep.nodes.items():
            copy = state.nodes[name].merged
            assert (copy.start_index, copy.start_hash) \
                == (node.log.start_index, node.log.start_hash), name
        assert direct_summary(state, target) == direct_summary(dep, target)

    def test_a_floor_of_a_node_the_hello_did_not_name_waits(
            self, monitor):
        """The daemon holds no key for a node added after the hello, so
        it cannot check that node's floor: the floor waits, unadopted,
        and the rest of the push lands. The next hello names the node,
        and its floor is checked and adopted."""
        dep, _nodes = paper_deployment()
        pusher = make_pusher(dep, monitor)
        dep.register_querier(pusher)
        assert not pusher.push_once()["shed"]
        dep.add_node("f", mincost_factory())
        dep.run_gc()
        assert "f" in dep.retention_floors
        state = monitor.daemon.state
        ack = pusher.push_once()
        assert ack is not None and not ack["shed"]
        assert "f" not in state.retention_floors
        assert state.retention_floors["a"].payload() \
            == dep.retention_floors["a"].payload()
        pusher.close()
        ack = pusher.push_once()
        assert ack is not None and not ack["shed"]
        assert state.retention_floors["f"].payload() \
            == dep.retention_floors["f"].payload()
        assert monitor.daemon.meter.corrupt_frames == 0
        pusher.close()
