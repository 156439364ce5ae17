#!/usr/bin/env python
"""End-to-end gate for the service plane, across real process boundaries.

Boots the monitor daemon as a *subprocess* (``python -m
repro.service.monitor``), runs a Chord workload in this process, pushes
its logs over the framed socket transport, then proves the service
plane's acceptance bar:

1. **bit-identical audits** — N concurrent REST clients sharing the
   daemon all receive exactly the summary a direct in-process
   ``QueryProcessor`` audit of the same deployment produces, repeated
   reads from the daemon's answer table (``meter.answers_reused``);
2. **subscription alerting** — subscribers watching the audited vertex
   are told about an injected adversary's green→red downgrade within one
   push, after which a plain (not ``fresh``) read is red too: no stored
   green outlives the conviction;
3. **hostile input bounces** — framed payloads naming ``builtins.eval``
   and ``repro.model.Tup`` are refused unrun and counted in ``/status``
   ``meter.refused_globals``; they and two well-framed but malformed
   messages behind them on the same connection are each answered with an
   error and counted in ``/status`` ``meter.corrupt_frames``, a
   ``/subscribe`` whose watch cannot be keyed is answered 400 and leaves
   no subscription behind, a REST request that stalls half sent is
   dropped at the request deadline and counted in
   ``meter.http_timeouts``, and every audit and alert served afterwards
   is as if none of them had arrived;
4. **an otherwise quiet transport** — no other corrupt, garbage or
   oversized frame on loopback, nothing shed, retried or dropped,
   exactly two pushes accepted;
5. **persistent REST connections** — every client keeps one connection:
   ``meter.http_connections`` stays within clients + subscribers +
   :data:`SPARE_CONNECTIONS` and carries at least ten requests each, and
   a client answered 400 (``Connection: close``) makes its next call on
   exactly one new connection (``http_connections`` +1 for
   ``http_requests`` +2);
6. **query counters in ``/status``** — after the concurrent phase,
   ``query.logs_fetched`` covers every log the direct audit fetched (the
   nodes on the vertex's provenance, not the whole ring),
   ``query.signatures_verified`` is non-zero, and the honest run left no
   evidence behind a view's base (``query.auth_checks_skipped`` and
   ``query.anchor_fetches`` are 0);
7. **stored copies at the head** — after the first push, ``/status``
   ``nodes`` reports, for every node, the length of its log: the daemon's
   copy was spliced to each origin's head across the process boundary;
8. the daemon shuts down cleanly on SIGTERM;
9. **a restart loses nothing** — the same pusher, its connection to the
   stopped daemon kept, reconnects exactly once within one push, and
   the fresh daemon gets every log and every peer's authenticators in
   that push, so a scope-0 query rooted at the forker is answered as
   the direct audit answers it (proven-faulty), and that daemon exits
   cleanly too;
10. **a rollback is convicted** — on the paper's MinCost network, a node
    that pushes honestly, then rolls its log back to entry 3 and pushes
    the stub, gets the direct audit's answer at a scope-0 query rooted
    at it (proven-faulty: its peers hold authenticators past the stub),
    not the daemon's stored copy of the longer log;
11. **a MapReduce job run after the hello** — a WordCount job's pusher
    says hello before the job runs, then pushes the job's logs: each
    split's text crosses the socket inside its ``mapTask`` tuple (the
    ``W.blob`` row), and the daemon answers a query on an output tuple
    as the direct audit does (green).

Exit status 0 on success, 1 on any failed check — CI's ``service-e2e``
job runs exactly this file.
"""

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.apps.chord import ChordNetwork, node_tuple         # noqa: E402
from repro.apps.mapreduce import WordCountJob                  # noqa: E402
from repro.apps.mincost import best_cost, build_paper_network  # noqa: E402
from repro.metrics import ServiceMeter                         # noqa: E402
from repro.service import MonitorClient, ServicePusher, tup_spec  # noqa: E402
from repro.service.framing import (                           # noqa: E402
    FrameDecoder, encode_frame, frame_payload,
)
from repro.snp import Deployment, QueryProcessor              # noqa: E402
from repro.snp.adversary import ForkingNode                   # noqa: E402
from repro.util.errors import QueryError                      # noqa: E402

CHECKS = []


def check(name, ok, detail=""):
    CHECKS.append((name, bool(ok)))
    print(f"  [{'ok' if ok else 'FAIL'}] {name}" + (f" — {detail}" if detail else ""),
          flush=True)
    return bool(ok)


def stop_daemon(proc, name):
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    check(f"{name} exited cleanly on SIGTERM", proc.returncode == 0,
          f"returncode={proc.returncode}")


def spawn_daemon():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service",
         "--host", "127.0.0.1", "--push-port", "0", "--http-port", "0"],
        stdout=subprocess.PIPE, env=env, text=True)
    line = proc.stdout.readline()
    try:
        ports = json.loads(line)
    except ValueError:
        proc.kill()
        raise SystemExit(f"daemon did not report ports, said: {line!r}")
    return proc, ports


#: Well framed, malformed inside: a hello whose second node has no key,
#: a push whose response is not a response. Before ingest validated
#: whole messages, the first poisoned every later query.
HOSTILE_FRAMES = (
    {"type": "hello", "t_prop": 0.05,
     "nodes": {"a": {"key": (5, 3)}, "b": {}}},
    {"type": "push", "seq": 0,
     "nodes": {"n0": {"response": "not-a-response"}}},
)


#: ``eval("1+41")`` (code execution's benign stand-in: the daemon once
#: ran it) and ``Tup("r", "a")`` by its class name (once resolvable from
#: a name table) as protocol-4 pickles. Frames resolve no global at all.
GLOBAL_PROBES = (b"\x80\x04\x8c\x08builtins\x8c\x04eval\x93\x8c\x041+41\x85R.",
                 b"\x80\x04\x8c\x0brepro.model\x8c\x03Tup\x93\x8c\x01r\x8c\x01a\x86R.")


#: A watch that cannot be keyed. Before a spec was validated whole at the
#: HTTP boundary, the subscription was registered first and every later
#: refresh — hence every later alert — raised on it.
HOSTILE_SUBSCRIBE = {"watches": [
    {"relation": "bestCost", "loc": "a", "args": [{"x": 1}]}]}


#: Half a request: the header promises a body that never comes. Before
#: the REST plane had deadlines, this pinned its handler task for good.
STALLED_REQUEST = (b"POST /query HTTP/1.1\r\nHost: monitor\r\n"
                   b"Content-Length: 50\r\n\r\n{")

#: REST connections beside one per client and one per subscriber: the
#: main client's, its replacement after the 400 closed the first, the
#: stalled request's, and one for a main client that sat out the idle
#: deadline on a slow runner.
SPARE_CONNECTIONS = 4


def send_hostile_frames(push_port):
    """Send :data:`GLOBAL_PROBES`, then :data:`HOSTILE_FRAMES`, on a
    connection of their own; returns the daemon's reply to each."""
    decoder = FrameDecoder(ServiceMeter())
    replies = []
    with socket.create_connection(("127.0.0.1", push_port),
                                  timeout=30) as sock:
        for data in (*map(frame_payload, GLOBAL_PROBES),
                     *map(encode_frame, HOSTILE_FRAMES)):
            sock.sendall(data)
            replies.append(decoder.recv(sock))
    return replies


def build_workload(adversary_name, seed=11):
    dep = Deployment(seed=seed, key_bits=256)
    net = ChordNetwork(dep, n_nodes=8, ring_bits=12, seed=seed,
                       node_overrides={adversary_name: ForkingNode})
    net.bootstrap(neighbors=2)
    net.stabilize(rounds=2)
    # A lookup that *routes through* the (future) adversary: a key
    # strictly inside its successor arc makes it the closest preceding
    # hop, so it resolves the lookup and the audited vertex's provenance
    # crosses its log. (A key the requester's own successor pointer
    # covers would be answered locally and audit nothing remote.)
    names = [name for name, _r in net.members]
    index = names.index(adversary_name)
    successor = names[(index + 1) % len(names)]
    key = (net.ring_id(successor) - 1) % net.size
    requester = names[index - 1]
    results = net.lookup(requester, key, "e2e-0")
    if not results:
        raise SystemExit("chord lookup produced no result")
    return dep, net, results[0]


def check_restart(dep, net, pusher, adversary):
    """Point *pusher*, still holding its connection to the stopped
    daemon, at a fresh daemon and push once. The kept connection fails
    before any reply, so the tick reconnects exactly once. The new
    hello-ack reports an empty store, so the push carries every log and
    every authenticator the nodes hold; a restarted store that got the
    logs alone answered green at the forker."""
    root = node_tuple(adversary, net.ring_id(adversary))
    qp = QueryProcessor(dep)
    qp.refresh()
    try:
        direct = qp.why(root, scope=0).summary()
    except QueryError as exc:
        direct = str(exc)
    check("direct scope-0 audit at the forker: proven-faulty",
          "proven-faulty" in str(direct), str(direct))
    proc, ports = spawn_daemon()
    try:
        pusher.port = ports["push_port"]
        retries = pusher.meter.push_retries
        ack = pusher.push_once()
        check("restarted daemon accepted the push",
              ack is not None and not ack["shed"])
        check("the push reconnected exactly once",
              pusher.meter.push_retries - retries == 1,
              f"push_retries {retries} -> {pusher.meter.push_retries}")
        with MonitorClient("127.0.0.1", ports["http_port"],
                           timeout=60) as client:
            out = client.query(tup_spec(root, scope=0, fresh=True))
        answer = out["result"] if out.get("ok") else out.get("error")
        check("restarted daemon answers the forker's scope-0 query as "
              "the direct audit does", answer == direct, str(answer))
        pusher.close()
    finally:
        stop_daemon(proc, "restarted daemon")


def check_rollback():
    """A node that rolls its log back after an honest push is convicted
    over sockets exactly as the direct audit convicts it."""
    dep = Deployment(seed=77, key_bits=256)
    nodes = build_paper_network(dep, node_overrides={"b": ForkingNode})
    dep.run()
    root = best_cost("b", "a", 6)
    proc, ports = spawn_daemon()
    try:
        pusher = ServicePusher(dep, "127.0.0.1", ports["push_port"])
        first = pusher.push_once()
        nodes["b"].fork_log(keep_upto=3)
        dep.run()
        second = pusher.push_once()
        pusher.close()
        check("honest push and rolled-back push accepted",
              all(ack is not None and not ack["shed"]
                  for ack in (first, second)))
        qp = QueryProcessor(dep)
        qp.refresh()
        try:
            direct = qp.why(root, scope=0).summary()
        except QueryError as exc:
            direct = str(exc)
        check("direct scope-0 audit at the rolled-back node: proven-faulty",
              "proven-faulty" in str(direct), str(direct))
        with MonitorClient("127.0.0.1", ports["http_port"],
                           timeout=60) as client:
            out = client.query(tup_spec(root, scope=0, fresh=True))
        answer = out["result"] if out.get("ok") else out.get("error")
        check("daemon answers the rolled-back node's scope-0 query as the "
              "direct audit does", answer == direct, str(answer))
    finally:
        stop_daemon(proc, "rollback daemon")


def check_mapreduce():
    """A WordCount job run after the hello audits at the daemon as it
    does in process: the splits travel in the mappers' logs."""
    dep = Deployment(seed=31, key_bits=256)
    job = WordCountJob(dep, n_mappers=2, n_reducers=1)
    proc, ports = spawn_daemon()
    try:
        pusher = ServicePusher(dep, "127.0.0.1", ports["push_port"])
        first = pusher.push_once()
        job.run(["the quick brown fox", "the lazy dog"])
        second = pusher.push_once()
        pusher.close()
        check("hello before the job and the job's push accepted",
              all(ack is not None and not ack["shed"]
                  for ack in (first, second)))
        root = job.output_tuple_for("the")
        direct = QueryProcessor(dep).why(root).summary()
        check("direct audit of a WordCount output is green",
              direct["verdict"] == "green", f"verdict={direct['verdict']}")
        with MonitorClient("127.0.0.1", ports["http_port"],
                           timeout=60) as client:
            out = client.query(tup_spec(root, fresh=True))
        answer = out["result"] if out.get("ok") else out.get("error")
        check("daemon answers the WordCount output's query as the direct "
              "audit does", answer == direct,
              "" if answer == direct else str(answer))
    finally:
        stop_daemon(proc, "mapreduce daemon")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=16,
                        help="concurrent REST clients (acceptance: >= 16)")
    parser.add_argument("--subscribers", type=int, default=3)
    parser.add_argument("--alert-timeout", type=float, default=60.0,
                        help="seconds a subscriber may wait for the alert")
    parser.add_argument("--adversary", default="n3")
    args = parser.parse_args(argv)

    print("service e2e: building chord workload", flush=True)
    dep, net, target = build_workload(args.adversary)
    qp = QueryProcessor(dep)
    qp.refresh()
    direct = qp.why(target).summary()
    direct_fetched = qp.mq.stats.logs_fetched
    check("clean direct audit is green", direct["verdict"] == "green",
          f"verdict={direct['verdict']}")

    print("service e2e: starting daemon subprocess", flush=True)
    proc, ports = spawn_daemon()
    pusher = None
    try:
        # Sent first and read last: the daemon's request deadline runs
        # while everything else does.
        stalled = socket.create_connection(
            ("127.0.0.1", ports["http_port"]), timeout=60)
        stalled.sendall(STALLED_REQUEST)

        pusher = ServicePusher(dep, "127.0.0.1", ports["push_port"])
        ack = pusher.push_once()
        check("first push accepted", ack is not None and not ack["shed"])

        watch = tup_spec(target)
        client = MonitorClient("127.0.0.1", ports["http_port"], timeout=60)
        heads = client.status()["nodes"]
        check("/status shows every node's stored copy at its log head",
              all(heads.get(str(name)) == len(dep.node(name).log)
                  for name in dep.nodes), repr(heads))

        streams = [client.subscribe([watch])
                   for _ in range(args.subscribers)]
        for stream in streams:
            banner = stream.next_event(timeout=30)
            assert banner["type"] == "subscribed"
            state = stream.events_until(
                lambda e: e.get("type") == "state", timeout=30)[-1]
            check("subscriber baseline is green",
                  state["verdict"] == "green")

        print("service e2e: hostile frames on a second connection",
              flush=True)
        corrupt_before = client.status()["meter"]["corrupt_frames"]
        replies = send_hostile_frames(ports["push_port"])
        check("hostile frames answered with errors",
              all(reply is not None and reply.get("type") == "error"
                  for reply in replies), repr(replies))
        meter = client.status()["meter"]
        check("meter.refused_globals counted the eval and Tup probes",
              meter["refused_globals"] == len(GLOBAL_PROBES),
              f"refused_globals={meter['refused_globals']}")
        check("meter.corrupt_frames counted each probe and hostile frame",
              meter["corrupt_frames"] - corrupt_before
              == len(GLOBAL_PROBES) + len(HOSTILE_FRAMES),
              f"{corrupt_before} -> {meter['corrupt_frames']}")

        reply = client._request("POST", "/subscribe", HOSTILE_SUBSCRIBE)
        check("hostile /subscribe answered 400",
              reply["_status"] == 400 and not reply["ok"], repr(reply))
        after = client.status()["meter"]
        moved = (after["http_connections"] - meter["http_connections"],
                 after["http_requests"] - meter["http_requests"])
        check("the 400 closed the connection and the client opened "
              "exactly one more", moved == (1, 2),
              f"connections +{moved[0]}, requests +{moved[1]}")

        # Enough rounds per client that reuse shows in the counters: ten
        # requests a connection over the whole run's connection budget.
        budget = args.clients + args.subscribers + SPARE_CONNECTIONS
        rounds = -(-10 * budget // args.clients)
        print(f"service e2e: {args.clients} concurrent clients, "
              f"{rounds} audits each", flush=True)
        results = [None] * args.clients
        errors = []

        def worker(slot):
            try:
                with MonitorClient("127.0.0.1", ports["http_port"],
                                   timeout=120) as own:
                    results[slot] = [own.query(watch)
                                     for _ in range(rounds)]
            except Exception as exc:
                errors.append(f"client {slot}: {exc!r}")

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(args.clients)]
        started = time.monotonic()
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
        elapsed = time.monotonic() - started
        check("no client errors", not errors, "; ".join(errors[:3]))
        identical = all(outs is not None and all(
            out.get("ok") and out["result"] == direct for out in outs)
            for outs in results)
        check(f"{args.clients} x {rounds} concurrent audits bit-identical "
              "to direct", identical, f"{elapsed:.2f}s wall")
        status = client.status()
        meter, query = status["meter"], status["query"]
        check("/status query counters show the audit's fetches and "
              "signature checks",
              query["logs_fetched"] >= direct_fetched > 0
              and query["signatures_verified"] > 0,
              f"logs_fetched={query['logs_fetched']}, "
              f"signatures_verified={query['signatures_verified']}")
        check("/status query counters show no authenticator skipped and "
              "no anchoring fetch on the honest run",
              query["auth_checks_skipped"] == 0
              and query["anchor_fetches"] == 0,
              f"auth_checks_skipped={query['auth_checks_skipped']}, "
              f"anchor_fetches={query['anchor_fetches']}")
        check("every client kept one connection",
              meter["http_connections"] <= budget
              and meter["http_requests"] >= 10 * meter["http_connections"],
              f"{meter['http_requests']} requests on "
              f"{meter['http_connections']} connections (budget {budget})")
        check("repeated reads were served from the answer table",
              meter["answers_reused"] > 0,
              f"answers_reused={meter['answers_reused']} of "
              f"{meter['queries_served']} served")

        print("service e2e: injecting fork at " + args.adversary,
              flush=True)
        adversary = dep.node(args.adversary)
        adversary.fork_log(keep_upto=3)
        net.stabilize(rounds=1)   # the forked branch keeps operating
        push_at = time.monotonic()
        ack = pusher.push_once()
        check("post-fork push accepted",
              ack is not None and not ack["shed"])

        for index, stream in enumerate(streams):
            alert = stream.events_until(
                lambda e: e.get("type") == "alert",
                timeout=args.alert_timeout)[-1]
            latency = time.monotonic() - push_at
            ok = (alert["from"] == "green" and alert["to"] == "red"
                  and args.adversary in alert["faulty_nodes"])
            check(f"subscriber {index} alerted green->red",
                  ok, f"{latency:.2f}s after push")

        # The alerting pass changed a view, so it emptied the answer
        # table: a plain read can no longer be the stored green.
        out = client.query(watch)
        check("plain (not fresh) query after the alert is red",
              out.get("ok") and out["result"]["verdict"] == "red",
              f"verdict={out.get('result', {}).get('verdict')}")
        out = client.query(dict(watch, fresh=True))
        check("service audit convicts the forker",
              out.get("ok") and out["result"]["verdict"] == "red"
              and args.adversary in out["result"]["faulty_nodes"])
        qp = QueryProcessor(dep)
        qp.refresh()
        direct_red = qp.why(target).summary()
        check("direct audit agrees on the conviction",
              direct_red["verdict"] == "red"
              and args.adversary in direct_red["faulty_nodes"])
        subscriptions = client.status()["subscriptions"]
        check("/status still counts only the real subscribers",
              subscriptions == args.subscribers,
              f"subscriptions={subscriptions}")

        for stream in streams:
            stream.close()
        try:
            dropped = stalled.recv(4096) == b""
        except ConnectionResetError:
            dropped = True
        stalled.close()
        check("stalled half-request dropped at the deadline", dropped)
        # The pusher keeps its connection: the restart below reopens it.
        meter = client.status()["meter"]
        client.close()
        check("meter.http_timeouts counted the stalled request only",
              meter["http_timeouts"] == 1,
              f"http_timeouts={meter['http_timeouts']}")
        print("daemon meter:", json.dumps(
            {k: v for k, v in meter.items() if v}), flush=True)
        damage = {k: meter[k] for k in (
            "corrupt_frames", "garbage_bytes", "oversized_frames",
            "refused_globals")}
        damage["corrupt_frames"] -= len(GLOBAL_PROBES) + len(HOSTILE_FRAMES)
        damage["refused_globals"] -= len(GLOBAL_PROBES)
        check("no transport damage on loopback beyond the hostile frames",
              not any(damage.values()), json.dumps(damage))
        # Shedding and dropped alerts are the daemon's to count; retries
        # are counted by the side that retried.
        ladder = {"pushes_shed": meter["pushes_shed"],
                  "alerts_dropped": meter["alerts_dropped"],
                  "push_retries": pusher.meter.push_retries}
        check("degradation ladder never engaged", not any(ladder.values()),
              json.dumps(ladder))
        check("daemon accepted exactly the two pushes",
              meter["pushes_accepted"] == 2,
              f"pushes_accepted={meter['pushes_accepted']}")
    finally:
        stop_daemon(proc, "daemon")
    if pusher is not None:
        print("service e2e: a fresh daemon under the same pusher",
              flush=True)
        check_restart(dep, net, pusher, args.adversary)
    print("service e2e: a node rolls its log back after an honest push",
          flush=True)
    check_rollback()
    print("service e2e: a MapReduce job runs after the hello", flush=True)
    check_mapreduce()
    failed = [name for name, ok in CHECKS if not ok]
    if failed:
        print(f"service e2e: FAILED ({len(failed)}): " + "; ".join(failed),
              flush=True)
        return 1
    print(f"service e2e: PASS ({len(CHECKS)} checks)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
