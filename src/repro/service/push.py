"""The node side of the service plane: pushing deltas to the monitor.

One :class:`ServicePusher` serves a whole deployment (the paper's nodes
each push their own log; here the simulation host plays every node, so
one connection multiplexes them). Each cadence tick ships, per node, the
log suffix past the head the daemon holds — the same
``retrieve(since_index=...)`` delta a polling querier would have
fetched, so fork/tamper fallbacks behave identically — plus the evidence
streams past what the daemon holds (each peer's authenticators, the
maintainer's alarms and retention faults) and the current floor
advertisements.

The daemon's ack is the pusher's only record of what the daemon holds:
every hello-ack and push-ack reports the stored heads, the authenticator
count per node and peer, the alarm and fault stream lengths and the
query plane's low-water marks, and the next push is built from the last
accepted ack alone.

Failure ladder:

* transport errors → retry with exponential backoff, reconnecting each
  attempt; after ``retries`` the tick is abandoned (``push_failures``).
  Each reconnect re-handshakes, and its hello-ack replaces the last ack,
  so a push that landed but whose ack was lost is not shipped twice;
* daemon shed → the ack says so, nothing advances
  (``poll_fallbacks``), the next cadence tick is the poll;
* daemon ``error`` reply, to the push or to the hello → the daemon
  refused the frame itself, and the same bytes would be refused again:
  the tick ends at once (``push_failures``, no resend), state untouched;
* daemon restart → the fresh daemon's hello-ack reports an empty store,
  so the next push re-ships every log *and* all the evidence; an audit
  of the restarted daemon convicts what the old one did.

GC integration: :meth:`ServicePusher.install` registers the pusher in
``Deployment.register_querier``; its ``low_water_marks`` are the marks
of the last ack, so a standing *remote* audit service bounds node
retention exactly like a local standing querier.
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
        self.ack = {}             # the daemon's last accepted ack

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
        self.ack = ack
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
        """The delta message for this tick: everything past what the
        last ack says the daemon holds."""
        dep, held = self.deployment, self.ack
        heads, counts = held.get("heads", {}), held.get("auths", {})
        parts = {}
        for node_id in sorted(dep.nodes, key=str):
            node = dep.nodes[node_id]
            since = heads.get(node_id, 0)
            if since > 0:
                response = node.retrieve(since_index=since)
            else:
                response = node.retrieve()
            done = counts.get(node_id, {})
            auths = {}
            for peer in sorted(node.received_auths, key=str):
                fresh = node.received_auths[peer][done.get(peer, 0):]
                if fresh:
                    auths[peer] = list(fresh)
            parts[node_id] = {"response": response, "auths": auths}
        maintainer = dep.maintainer
        return {
            "type": "push", "seq": self.seq, "nodes": parts,
            "alarms": list(
                maintainer.missing_ack_alarms[held.get("alarms", 0):]),
            "faults": list(
                maintainer.retention_faults[held.get("faults", 0):]),
            "floors": dict(dep.retention_floors),
        }

    def low_water_marks(self):
        """The daemon's seat at the retention handshake: the query
        plane's marks from the last ack, so GC never truncates above what
        the *remote* audit service has verified."""
        return dict(self.ack.get("marks", {}))

    # ------------------------------------------------------------- push

    def push_once(self):
        """One cadence tick: build, send with retry-with-backoff, adopt
        the ack. Returns the ack dict, or ``None`` when every attempt
        failed or the daemon refused the frame (state untouched — the
        next tick retries the same delta).
        """
        self.seq += 1
        self.meter.pushes_sent += 1
        ack = self._push_with_retry()
        if ack is None:
            self.meter.push_failures += 1
            return None
        if ack.get("shed"):
            # The daemon is lagging; keep our delta and let the next
            # cadence tick re-offer it — push degrades to poll.
            self.meter.poll_fallbacks += 1
            return ack
        self.meter.pushes_accepted += 1
        self.ack = ack
        return ack

    def _push_with_retry(self):
        """Send this tick's delta, built anew by every attempt: a retry
        reconnects, and its hello-ack replaced the last ack (most
        drastically after a daemon restart, which reports an empty
        store), so a delta built from the old one would hand the daemon
        a mid-chain stub, or evidence it already holds."""
        delay = self.backoff
        for attempt in range(self.retries + 1):
            if attempt:
                self.meter.push_retries += 1
                self._sleep(delay)
                delay *= self.backoff_factor
            try:
                self.connect()
                msg = self.build_push()
                self._send(msg)
                while True:
                    reply = self._recv()
                    if reply.get("type") == "error":
                        return None
                    # Another push's ack is skipped: ours carries
                    # this seq and reports the store after it.
                    if reply.get("type") == "push-ack" \
                            and reply.get("seq") == msg["seq"]:
                        return reply
            except HelloRefused:
                return None
            except (OSError, ConnectionError):
                self.close()
        return None

    # ----------------------------------------------------- deployment glue

    def install(self, interval_seconds):
        """Register the push cadence on the deployment's shared scheduler
        (at quiescence, like replication: an idle tick pushes empty
        deltas) and the pusher itself in the GC handshake."""
        self.deployment.add_cadence(
            "service-push", interval_seconds, self.push_once,
            at_quiescence=True,
        )
        self.deployment.register_querier(self)

    def uninstall(self):
        self.deployment.remove_cadence("service-push")
        self.deployment.unregister_querier(self)
