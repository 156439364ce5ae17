"""Blocking REST client for the monitor daemon.

Thin by design: each :class:`MonitorClient` method is one HTTP/1.1
exchange on the instance's one kept socket, so N concurrent clients are
just N threads each holding its own instance. The client speaks only
what :mod:`repro.service.server` speaks — one request template
(:func:`_request_bytes`), one response-head parser (:func:`_read_head`)
— and treats anything else as an error, not as a dialect to support.
``subscribe`` opens a socket of its own with the same two functions and
reads the NDJSON event stream line by line.
"""

import json
import socket

#: The daemon's own bound on one request line; a response head has no
#: business being longer.
_MAX_HEAD = 1 << 16


class ServiceClientError(Exception):
    """The daemon answered with a non-JSON or error response."""


def _request_bytes(method, path, host, port, body=None, close=False):
    """One whole request, head and JSON body, to leave in one segment."""
    head = f"{method} {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
    payload = b""
    if body is not None:
        payload = json.dumps(body).encode()
        head += (f"Content-Type: application/json\r\n"
                 f"Content-Length: {len(payload)}\r\n")
    if close:
        head += "Connection: close\r\n"
    return (head + "\r\n").encode("latin-1") + payload


def _recv_more(sock, buf):
    """One ``recv`` appended to *buf*; EOF inside an exchange is an error."""
    chunk = sock.recv(1 << 16)
    if not chunk:
        raise ConnectionResetError(
            "daemon closed the connection "
            + ("mid-response" if buf else "before responding"))
    buf += chunk


def _read_head(sock, buf):
    """Receive into *buf* until it starts with a whole response head;
    returns ``(status, content_length_or_None, close, body_offset)``.
    The head stays in *buf* for the caller to drop, so that an empty
    buffer always means that no byte of a response has arrived."""
    scanned = 0
    while True:
        end = buf.find(b"\r\n\r\n", scanned, _MAX_HEAD)
        if end >= 0:
            break
        if len(buf) >= _MAX_HEAD:
            raise ServiceClientError(
                f"no end of response head in {_MAX_HEAD} bytes")
        scanned = max(0, len(buf) - 3)
        _recv_more(sock, buf)
    status_line, *header_lines = bytes(buf[:end]).split(b"\r\n")
    parts = status_line.split(None, 2)
    if (len(parts) < 2 or parts[0] != b"HTTP/1.1"
            or len(parts[1]) != 3 or not parts[1].isdigit()):
        raise ServiceClientError(
            f"malformed status line {status_line[:200]!r}")
    length, close = None, False
    for line in header_lines:
        name, _sep, value = line.partition(b":")
        name, value = name.strip().lower(), value.strip()
        if name == b"content-length":
            # Digits only (``int`` alone would take "+5", "5_0", " 5"),
            # and too few of them to trip ``int``'s own digit limit.
            if (not value.isdigit() or len(value) > 18
                    or length not in (None, int(value))):
                raise ServiceClientError(
                    f"malformed Content-Length {value[:200]!r}")
            length = int(value)
        elif name == b"connection":
            close = value.lower() == b"close"
    return int(parts[1]), length, close, end + 4


def _take_body(sock, buf, start, length):
    """Receive until *buf* holds a head of *start* bytes and *length*
    bytes of body; returns the body and leaves in *buf* what follows."""
    total = start + length
    while len(buf) < total:
        _recv_more(sock, buf)
    body = bytes(buf[start:total])
    del buf[:total]
    return body


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

    Holds one socket, and one buffer of what it has received on it, and
    reuses them for every request; the daemon closes the connection
    after an error response or an idle period, and the next call
    reconnects. Not thread-safe: one instance per thread.
    """

    def __init__(self, host, port, timeout=30.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock = None
        self._buf = bytearray()

    def close(self):
        """Drop the connection (the next request would open a new one)."""
        sock, self._sock = self._sock, None
        del self._buf[:]
        if sock is not None:
            sock.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def _exchange(self, request):
        """One request out in one segment, one whole response in, on the
        kept socket (opened here when there is none); returns
        ``(status, body bytes)``. Bytes past the body stay buffered for
        the next response."""
        sock = self._sock
        if sock is None:
            sock = self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.sendall(request)
        status, length, close, start = _read_head(sock, self._buf)
        if length is None:
            raise ServiceClientError("response has no Content-Length")
        body = _take_body(sock, self._buf, start, length)
        if close:
            self.close()
        return status, body

    def _request(self, method, path, body=None):
        request = _request_bytes(method, path, self.host, self.port, body)
        reused = self._sock is not None
        try:
            try:
                status, raw = self._exchange(request)
            except ConnectionError:
                # A connection kept from an earlier call may have been
                # closed under us (daemon restarted, idle deadline);
                # that shows as a connection error before any byte of a
                # response, and the request is resent once on a new
                # connection — every route is a read or idempotent. A
                # fresh connection that fails, or a response that breaks
                # off, is the daemon's answer.
                if not reused or self._buf:
                    raise
                self.close()
                status, raw = self._exchange(request)
        except BaseException:
            # Half an exchange leaves nothing the next call could reuse.
            self.close()
            raise
        try:
            out = json.loads(raw)
        except (ValueError, RecursionError) as exc:
            raise ServiceClientError(
                f"{method} {path}: non-JSON response {raw[:200]!r}"
            ) from exc
        if not isinstance(out, dict):
            raise ServiceClientError(
                f"{method} {path}: response is not an object {raw[:200]!r}")
        out["_status"] = status
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
        buf = bytearray()
        try:
            sock.sendall(_request_bytes(
                "POST", "/subscribe", self.host, self.port,
                {"watches": specs}, close=True))
            status, length, _close, start = _read_head(sock, buf)
            if status != 200:
                body = _take_body(sock, buf, start, length or 0)
                raise ServiceClientError(
                    f"subscribe failed: {status} {body[:200]!r}")
        except BaseException:
            sock.close()
            raise
        del buf[:start]
        return SubscriptionStream(sock, buf)


class SubscriptionStream:
    """Reader side of an open ``/subscribe`` response: *sock*, and *buf*
    holding what has been received past the response head."""

    def __init__(self, sock, buf):
        self._sock = sock
        self._buf = buf

    def next_event(self, timeout=None):
        """The next event dict, or ``None`` on EOF. ``socket.timeout``
        propagates when *timeout* elapses first."""
        if timeout is not None:
            self._sock.settimeout(timeout)
        buf = self._buf
        scanned = 0
        while True:
            end = buf.find(b"\n", scanned)
            if end >= 0:
                break
            scanned = len(buf)
            chunk = self._sock.recv(1 << 16)
            if not chunk:
                return None
            buf += chunk
        line = bytes(buf[:end])
        del buf[:end + 1]
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
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False
