"""The node side of the service plane: pushing deltas to the monitor.

One :class:`ServicePusher` serves a whole deployment (the paper's nodes
each push their own log; here the simulation host plays every node, so
one connection multiplexes them). Each cadence tick ships, per node, the
log suffix past the head the daemon last acked — the same
``retrieve(since_index=...)`` delta a polling querier would have
fetched, so fork/tamper fallbacks behave identically — plus cursored
evidence streams (received authenticators, maintainer alarms, retention
faults) and the current floor advertisements.

Failure ladder:

* transport errors → retry with exponential backoff, reconnecting each
  attempt; after ``retries`` the tick is abandoned (``push_failures``)
  and state is untouched, so the next tick re-sends everything — pushes
  are idempotent because acks carry the daemon's *actual* stored heads;
* daemon shed → the ack says so, nothing advances
  (``poll_fallbacks``), the next cadence tick is the poll;
* daemon ``error`` reply, to the push or to the hello → the daemon
  refused the frame itself, and the same bytes would be refused again:
  the tick ends at once (``push_failures``, no resend), state untouched;
* daemon restart → its hello/push acks report heads the pusher doesn't
  expect; since acked heads only ever come from the daemon, the pusher
  simply rebuilds from what the daemon claims (a full push when heads
  regress to 0).

GC integration: the daemon's acks also carry its query plane's
low-water marks; :class:`ServiceQuerier` republishes them to
``Deployment.register_querier``, so a standing *remote* audit service
bounds node retention exactly like a local standing querier (PR 5
handshake).
"""

import socket
import time

from repro.service.framing import FrameDecoder, encode_frame, recv_frame
from repro.metrics import ServiceMeter


class HelloRefused(ConnectionError):
    """The daemon answered the hello with an error: resending is futile."""


class ServicePusher:
    """Pushes one deployment's log/evidence deltas to a monitor daemon."""

    def __init__(self, deployment, host, port, timeout=10.0, retries=4,
                 backoff=0.05, backoff_factor=2.0, sleep=None):
        self.deployment = deployment
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.backoff_factor = backoff_factor
        self.meter = ServiceMeter()
        self._sleep = sleep if sleep is not None else time.sleep
        self._sock = None
        self._decoder = None
        self.seq = 0
        self.acked_heads = {}     # node -> head index the daemon stored
        self.daemon_marks = {}    # the daemon's low-water marks (GC)
        self._auth_cursors = {}   # node -> {peer: count already pushed}
        self._alarm_cursor = 0
        self._fault_cursor = 0
        self._querier = None

    # ------------------------------------------------------- connection

    def connect(self):
        """Open the transport and run the hello handshake (idempotent)."""
        if self._sock is not None:
            return self
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout)
        self._decoder = FrameDecoder()
        ack = self._exchange(self.hello_message())
        if ack.get("type") != "hello-ack":
            self.close()
            raise HelloRefused(f"monitor rejected hello: {ack!r}")
        self._adopt_cursors(ack)
        self.acked_heads.update(ack.get("heads") or {})
        return self

    def close(self):
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None
                self._decoder = None

    def _send(self, msg):
        data = encode_frame(msg)
        self._sock.sendall(data)
        self.meter.frames_sent += 1
        self.meter.bytes_sent += len(data)

    def _recv(self):
        reply = recv_frame(self._sock, self._decoder)
        if reply is None:
            raise ConnectionError("monitor closed the push stream")
        self.meter.frames_received += 1
        return reply

    def _exchange(self, msg):
        """Send one frame, return the next reply (transport errors
        propagate to the retry loop)."""
        self._send(msg)
        return self._recv()

    # ---------------------------------------------------- message builds

    def hello_message(self):
        dep = self.deployment
        nodes = {}
        for node_id in sorted(dep.nodes, key=str):
            key = dep.public_key_of(node_id)
            nodes[node_id] = {
                "key": (key.n, key.e),
                "app": dep.app_factories[node_id].wire_spec(),
            }
        return {"type": "hello", "deployment": id(dep),
                "t_prop": dep.effective_t_prop(), "nodes": nodes}

    def build_push(self):
        """The delta message for this tick, plus the auth cursors to
        commit if (and only if) the daemon accepts it."""
        dep = self.deployment
        parts = {}
        pending_cursors = {}
        for node_id in sorted(dep.nodes, key=str):
            node = dep.nodes[node_id]
            since = self.acked_heads.get(node_id, 0)
            if since > 0:
                response = node.retrieve(since_index=since)
            else:
                response = node.retrieve()
            auths = {}
            cursors = dict(self._auth_cursors.get(node_id, ()))
            for peer in sorted(node.received_auths, key=str):
                held = node.received_auths[peer]
                done = cursors.get(peer, 0)
                fresh = list(held[done:])
                if fresh:
                    auths[peer] = fresh
                    cursors[peer] = done + len(fresh)
            pending_cursors[node_id] = cursors
            parts[node_id] = {"response": response, "auths": auths}
        maintainer = dep.maintainer
        msg = {
            "type": "push", "seq": self.seq, "nodes": parts,
            "alarms": list(
                maintainer.missing_ack_alarms[self._alarm_cursor:]),
            "faults": list(
                maintainer.retention_faults[self._fault_cursor:]),
            "floors": dict(dep.retention_floors),
        }
        return msg, pending_cursors

    def _adopt_cursors(self, ack):
        cursors = ack.get("cursors") or {}
        self._alarm_cursor = cursors.get("alarms", self._alarm_cursor)
        self._fault_cursor = cursors.get("faults", self._fault_cursor)

    # ------------------------------------------------------------- push

    def push_once(self):
        """One cadence tick: build, send with retry-with-backoff, adopt
        the ack. Returns the ack dict, or ``None`` when every attempt
        failed or the daemon refused the frame (state untouched — the
        next tick retries the same delta).
        """
        self.seq += 1
        self.meter.pushes_sent += 1
        ack, pending_cursors = self._push_with_retry()
        if ack is None:
            self.meter.push_failures += 1
            return None
        if ack.get("shed"):
            # The daemon is lagging; keep our delta and let the next
            # cadence tick re-offer it — push degrades to poll.
            self.meter.poll_fallbacks += 1
            return ack
        self.meter.pushes_accepted += 1
        self.acked_heads.update(ack.get("heads") or {})
        if ack.get("marks") is not None:
            self.daemon_marks = dict(ack["marks"])
        self._adopt_cursors(ack)
        self._auth_cursors.update(pending_cursors)
        return ack

    def _push_with_retry(self):
        """Send this tick's delta, rebuilding it whenever an attempt had
        to re-handshake: the hello ack may have moved ``acked_heads``
        (most drastically after a daemon restart, which zeroes them), and
        a delta anchored at the *old* heads would hand the fresh daemon a
        mid-chain stub it can never rebuild from."""
        delay = self.backoff
        msg = pending = None
        for attempt in range(self.retries + 1):
            if attempt:
                self.meter.push_retries += 1
                self._sleep(delay)
                delay *= self.backoff_factor
            try:
                fresh = self._sock is None
                self.connect()
                if msg is None or fresh:
                    msg, pending = self.build_push()
                self._send(msg)
                while True:
                    reply = self._recv()
                    if reply.get("type") == "error":
                        return None, None
                    if reply.get("type") == "push-ack" \
                            and reply.get("seq") == msg["seq"]:
                        return reply, pending
                    # A stale ack from a timed-out earlier attempt;
                    # absorb its heads (they are authoritative) and keep
                    # reading for ours.
                    if reply.get("type") == "push-ack" \
                            and not reply.get("shed"):
                        self.acked_heads.update(reply.get("heads") or {})
            except HelloRefused:
                return None, None
            except (OSError, ConnectionError):
                self.close()
        return None, None

    # ----------------------------------------------------- deployment glue

    def install(self, interval_seconds):
        """Register the push cadence on the deployment's shared scheduler
        (at quiescence, like replication: an idle tick pushes empty
        deltas) and register the daemon's marks in the GC handshake.
        Returns the :class:`ServiceQuerier`."""
        self.deployment.add_cadence(
            "service-push", interval_seconds, self.push_once,
            at_quiescence=True,
        )
        if self._querier is None:
            self._querier = ServiceQuerier(self)
            self.deployment.register_querier(self._querier)
        return self._querier

    def uninstall(self):
        self.deployment.remove_cadence("service-push")
        if self._querier is not None:
            self.deployment.unregister_querier(self._querier)
            self._querier = None


class ServiceQuerier:
    """The daemon's seat at the retention-handshake table: republishes
    the low-water marks from the last push ack, so GC never truncates
    above what the *remote* audit service has verified."""

    def __init__(self, pusher):
        self.pusher = pusher

    def low_water_marks(self):
        return dict(self.pusher.daemon_marks)

    def __repr__(self):
        return (f"ServiceQuerier(monitor={self.pusher.host}:"
                f"{self.pusher.port})")
