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

Failure ladder — a tick is one transition: connect, send, then an ack
or a failure:

* a transport error ends the tick (``push_failures``), and the next
  cadence tick is the retry — except that, as in
  :class:`~repro.service.client.MonitorClient`, a kept connection that
  fails before any reply is reopened once (``push_retries``) and the
  push rebuilt from the new hello-ack;
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

from repro.service.framing import FrameDecoder, encode_frame
from repro.metrics import ServiceMeter

#: Seconds a push socket waits to connect, send or read a reply.
TIMEOUT_SECONDS = 10.0


class ServicePusher:
    """Pushes one deployment's log/evidence deltas to a monitor daemon."""

    def __init__(self, deployment, host, port):
        self.deployment = deployment
        self.host = host
        self.port = port
        self.meter = ServiceMeter()
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
            (self.host, self.port), timeout=TIMEOUT_SECONDS)
        self._decoder = FrameDecoder(self.meter)
        ack = self._exchange(self.hello_message())
        if ack.get("type") != "hello-ack":
            self.close()
            raise ConnectionError(f"monitor rejected hello: {ack!r}")
        self.ack = ack
        return self

    def close(self):
        if self._sock is not None:
            self._sock.close()
            self._sock = self._decoder = None

    def _send(self, msg):
        data = encode_frame(msg)
        self._sock.sendall(data)
        self.meter.frames_sent += 1
        self.meter.bytes_sent += len(data)

    def _recv(self):
        reply = self._decoder.recv(self._sock)
        if reply is None:
            raise ConnectionError("monitor closed the push stream")
        return reply

    def _exchange(self, msg):
        """Send one frame, return the next reply (transport errors
        propagate to :meth:`push_once`)."""
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
        return {"type": "hello", "t_prop": dep.effective_t_prop(),
                "nodes": nodes}

    def build_push(self):
        """The delta message for this tick: everything past what the
        last ack says the daemon holds."""
        dep, held = self.deployment, self.ack
        heads, counts = held.get("heads", {}), held.get("auths", {})
        parts = {}
        for node_id in sorted(dep.nodes, key=str):
            node = dep.nodes[node_id]
            response = node.retrieve(since_index=heads.get(node_id) or None)
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
        """One cadence tick: build, send, adopt the ack. Returns the ack
        dict, or ``None`` when the tick failed or the daemon refused the
        frame (state untouched — the next tick retries the same delta).
        """
        self.seq += 1
        self.meter.pushes_sent += 1
        try:
            ack = self._push()
        except OSError:
            # A refused hello included: nothing on this connection can
            # be trusted to line up any more.
            self.close()
            ack = None
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

    def _push(self):
        """Send this tick's delta; returns the daemon's ack to it, or
        ``None`` for an ``error`` reply. A kept connection that fails
        before any reply is reopened once, and the push rebuilt from the
        new hello-ack (a delta built from the old ack could hand a
        restarted daemon a mid-chain stub, or evidence it holds); any
        other failure propagates."""
        kept = self._sock is not None
        try:
            reply = self._send_push()
        except ConnectionError:
            if not kept:
                raise
            self.close()
            self.meter.push_retries += 1
            reply = self._send_push()
        # Another push's ack is skipped: ours carries this seq and
        # reports the store after it.
        while reply.get("type") != "error":
            if reply.get("type") == "push-ack" \
                    and reply.get("seq") == self.seq:
                return reply
            reply = self._recv()
        return None

    def _send_push(self):
        """Connect if need be, send a push built from the last ack, and
        return the first reply."""
        self.connect()
        self._send(self.build_push())
        return self._recv()

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
