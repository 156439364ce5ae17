"""Blocking REST client for the monitor daemon.

Thin by design: each :class:`MonitorClient` method is one HTTP request
on the instance's one persistent connection (``http.client`` under the
hood), so N concurrent clients are just N threads each holding its own
instance. ``subscribe`` keeps a raw socket of its own open and reads the
NDJSON event stream line by line.
"""

import http.client
import json
import socket


class ServiceClientError(Exception):
    """The daemon answered with a non-JSON or error response."""


def tup_spec(tup, node=None, at=None, scope=None, direction="why",
             fresh=False):
    """Build a query/watch spec dict from a :class:`~repro.model.Tup`."""
    spec = {"relation": tup.relation, "loc": tup.loc,
            "args": list(tup.args)}
    if node is not None:
        spec["node"] = node
    if at is not None:
        spec["at"] = at
    if scope is not None:
        spec["scope"] = scope
    if direction != "why":
        spec["direction"] = direction
    if fresh:
        spec["fresh"] = True
    return spec


class MonitorClient:
    """One caller's handle on the daemon's REST front end.

    Holds one connection and reuses it for every request; the daemon
    closes it after an error response or an idle period, and the next
    call reconnects. Not thread-safe: one instance per thread.
    """

    def __init__(self, host, port, timeout=30.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def close(self):
        """Drop the connection (the next request would open a new one)."""
        self._conn.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def _send(self, method, path, payload, headers):
        """One request out, the response's status line and headers in.

        A connection kept from an earlier call may have been closed
        under us (daemon restarted, idle deadline); that shows as a
        connection error before a response is parsed, and the request
        is resent once on a new connection — every route is a read or
        idempotent. A fresh connection that fails is the daemon's
        answer.
        """
        conn = self._conn
        reused = conn.sock is not None
        try:
            conn.request(method, path, body=payload, headers=headers)
            return conn.getresponse()
        except ConnectionError:
            conn.close()
            if not reused:
                raise
        conn.request(method, path, body=payload, headers=headers)
        return conn.getresponse()

    def _request(self, method, path, body=None):
        payload = None if body is None else json.dumps(body)
        headers = {"Content-Type": "application/json"} if payload else {}
        try:
            response = self._send(method, path, payload, headers)
            raw = response.read()
        except BaseException:
            # Half an exchange leaves nothing the next call could reuse.
            self._conn.close()
            raise
        try:
            out = json.loads(raw)
        except ValueError as exc:
            raise ServiceClientError(
                f"{method} {path}: non-JSON response {raw[:200]!r}"
            ) from exc
        out["_status"] = response.status
        return out

    def status(self):
        return self._request("GET", "/status")

    def marks(self):
        return self._request("GET", "/marks")

    def refresh(self):
        return self._request("POST", "/refresh")

    def query(self, spec_or_tup, **kwargs):
        """Evaluate a query. Accepts a prepared spec dict or a ``Tup``
        plus :func:`tup_spec` keyword arguments."""
        if isinstance(spec_or_tup, dict):
            spec = spec_or_tup
        else:
            spec = tup_spec(spec_or_tup, **kwargs)
        return self._request("POST", "/query", spec)

    def subscribe(self, watches):
        """Open a standing subscription; returns a
        :class:`SubscriptionStream` whose first event is the
        ``subscribed`` banner."""
        specs = [w if isinstance(w, dict) else tup_spec(w) for w in watches]
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout)
        body = json.dumps({"watches": specs}).encode()
        request = (
            f"POST /subscribe HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode() + body
        sock.sendall(request)
        stream = SubscriptionStream(sock)
        stream._read_headers()
        return stream


class SubscriptionStream:
    """Reader side of an open ``/subscribe`` response."""

    def __init__(self, sock):
        self._sock = sock
        self._file = sock.makefile("rb")
        self.status = None

    def _read_headers(self):
        status_line = self._file.readline()
        parts = status_line.decode("latin-1").split()
        self.status = int(parts[1]) if len(parts) >= 2 else 0
        while True:
            line = self._file.readline()
            if line in (b"\r\n", b"\n", b""):
                break
        if self.status != 200:
            body = self._file.readline()
            self.close()
            raise ServiceClientError(
                f"subscribe failed: {self.status} {body[:200]!r}")

    def next_event(self, timeout=None):
        """The next event dict, or ``None`` on EOF. ``socket.timeout``
        propagates when *timeout* elapses first."""
        if timeout is not None:
            self._sock.settimeout(timeout)
        line = self._file.readline()
        if not line:
            return None
        return json.loads(line)

    def events_until(self, predicate, timeout=10.0, clock=None):
        """Collect events until one satisfies *predicate* (returned
        last). Raises ``TimeoutError`` when *timeout* wall seconds pass
        first."""
        import time
        clock = clock or time.monotonic
        deadline = clock() + timeout
        seen = []
        while True:
            remaining = deadline - clock()
            if remaining <= 0:
                raise TimeoutError(
                    f"no matching event within {timeout}s; saw {seen!r}")
            try:
                event = self.next_event(timeout=remaining)
            except (socket.timeout, TimeoutError):
                raise TimeoutError(
                    f"no matching event within {timeout}s; saw {seen!r}")
            if event is None:
                raise TimeoutError(f"stream closed; saw {seen!r}")
            seen.append(event)
            if predicate(event):
                return seen

    def close(self):
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False
