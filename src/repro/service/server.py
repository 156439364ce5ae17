"""The REST front end: a minimal HTTP/1.1 layer over asyncio streams.

Routes (all JSON bodies/responses):

* ``GET  /status``    — daemon epoch, stored heads, meter counters;
* ``POST /query``     — answer one provenance query spec (``fresh``
  first joins a refresh pass covering every push so far);
* ``POST /refresh``   — join such a pass, returns its epoch;
* ``GET  /marks``     — the daemon's per-node verified heads (its
  low-water marks for the GC handshake);
* ``POST /subscribe`` — open a standing subscription: the response is an
  unbounded ``application/x-ndjson`` stream of state/alert events, one
  JSON object per line, until the client disconnects.

Connections are persistent (HTTP/1.1 keep-alive): :func:`serve_connection`
answers requests on one connection until the peer closes it, asks for
``Connection: close`` (or speaks HTTP/1.0), sends something malformed, or
misses one of two fixed deadlines — :data:`IDLE_SECONDS` between requests,
:data:`REQUEST_SECONDS` from a request's first byte to its last. A warm
read therefore pays for its answer, not for a TCP connect/accept/close
and a fresh transport per request (DESIGN.md, "REST front end and
subscriptions").

Deliberately stdlib-only and small: request bodies are bounded, parsing
is strict, a query or watch spec is validated whole before the daemon
sees any of it (:func:`check_spec`, as a hello is on the push side), and
anything malformed gets a 4xx and a closed connection — the service
contract lives in :mod:`repro.service.monitor`, not here.
"""

import asyncio
import json

MAX_REQUEST_BYTES = 1 << 20
#: Once a request's first byte has arrived, the whole request must have
#: arrived this many seconds later — or a peer that sends half a request
#: would pin its handler task for good.
REQUEST_SECONDS = 5.0
#: A persistent connection with no request in flight is closed after
#: this many seconds; the client reconnects on its next call.
IDLE_SECONDS = 30.0
_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error"}


class _BadRequest(Exception):
    def __init__(self, status, message):
        super().__init__(message)
        self.status = status


async def _read_line(reader):
    try:
        line = await reader.readline()
    except ValueError:
        # StreamReader's own bound on one line (64 KiB) tripped.
        raise _BadRequest(431, "request or header line too long")
    if not line.endswith(b"\n"):
        # EOF inside a request — the peer's, or a deadline's abort.
        raise asyncio.IncompleteReadError(line, None)
    return line


async def _read_request(reader, first):
    """Parse one request whose first byte, *first*, is already read;
    returns (method, path, body-dict-or-None, keep-alive)."""
    line = first + await _read_line(reader)
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise _BadRequest(400, "malformed request line")
    method, path, version = parts
    headers = {}
    lines = 0
    while True:
        line = await _read_line(reader)
        if line in (b"\r\n", b"\n"):
            break
        lines += 1
        if lines > 64:
            raise _BadRequest(431, "too many headers")
        name, _sep, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length") or 0)
    except ValueError:
        length = -1
    if length < 0:
        raise _BadRequest(400, "malformed Content-Length")
    if length > MAX_REQUEST_BYTES:
        raise _BadRequest(413, "request body too large")
    body = None
    if length:
        raw = await reader.readexactly(length)
        try:
            body = json.loads(raw)
        except ValueError as exc:
            raise _BadRequest(400, f"request body is not JSON: {exc}")
    keep_alive = (version.upper() == "HTTP/1.1"
                  and headers.get("connection", "").lower() != "close")
    return method, path, body, keep_alive


def _is_plain(value):
    """A JSON scalar, or a list of plain values (revived to a tuple)."""
    if isinstance(value, list):
        return all(_is_plain(item) for item in value)
    return value is None or isinstance(value, (str, int, float))


def check_spec(spec):
    """Validate one query / watch spec whole, for both routes that take
    one: everything the daemon will key, hash or dispatch on. A spec that
    fails used to raise *inside* the daemon — after a subscription was
    registered, which then broke every later refresh."""
    def require(ok, what):
        if not ok:
            raise _BadRequest(400, "malformed spec: " + what)
    require(isinstance(spec, dict)
            and isinstance(spec.get("relation"), str) and "loc" in spec,
            "needs a relation (string) and a loc")
    args = spec.get("args", [])
    require(isinstance(args, list)
            and _is_plain([spec["loc"], spec.get("node"), args]),
            "loc, node and every arg must be JSON scalars or lists of them")
    require(spec.get("direction", "why") in ("why", "why_appear", "effects"),
            "direction must be why, why_appear or effects")
    require(all(spec.get(name) is None
                or isinstance(spec[name], (int, float))
                and not isinstance(spec[name], bool)
                for name in ("at", "before", "scope")),
            "at, before and scope must be numbers")


def _response_bytes(status, payload, keep_alive):
    body = json.dumps(payload).encode()
    head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n")
    if not keep_alive:
        head += "Connection: close\r\n"
    return (head + "\r\n").encode() + body


def _deadline(daemon, writer, seconds):
    """A timer that, unless cancelled first, counts a timeout and aborts
    the connection, which ends whatever read is pending in EOF. A timer
    and not ``asyncio.wait_for``, which before 3.12 starts a task per
    call — on every request, twice (DESIGN.md has the measurement)."""
    def expire():
        daemon.meter.http_timeouts += 1
        writer.transport.abort()
    return asyncio.get_running_loop().call_later(seconds, expire)


async def serve_connection(daemon, reader, writer):
    """Serve one connection: a request at a time, in order, until the
    peer closes, a request ends the connection (see
    :func:`handle_http`) or a deadline passes. A closed idle connection
    is the normal end of a client that went away; a client that comes
    back reconnects (:class:`~repro.service.client.MonitorClient`)."""
    daemon.meter.http_connections += 1
    try:
        while True:
            idle = _deadline(daemon, writer, IDLE_SECONDS)
            try:
                first = await reader.read(1)
            finally:
                idle.cancel()
            # ``handle_http`` is looked up in the module on every
            # request: the e2e tracer wraps that name, and a wrapper
            # entered once per connection, in untimed set-up, would
            # never record a request.
            if not first or not await handle_http(daemon, reader, writer,
                                                  first):
                break
    except (ConnectionError, asyncio.IncompleteReadError):
        pass
    finally:
        try:
            writer.close()
        except (ConnectionError, RuntimeError):  # pragma: no cover
            pass


async def handle_http(daemon, reader, writer, first):
    """Serve one request (its first byte, *first*, already read);
    returns whether the connection may carry another. Every error
    response closes: after a malformed request the byte stream has no
    trustworthy next request boundary."""
    daemon.meter.http_requests += 1
    keep_alive = False
    try:
        arrival = _deadline(daemon, writer, REQUEST_SECONDS)
        try:
            method, path, body, wants_more = await _read_request(
                reader, first)
        finally:
            arrival.cancel()
        if method == "GET" and path == "/status":
            reply = 200, daemon.status()
        elif method == "GET" and path == "/marks":
            reply = 200, await daemon.marks()
        elif method == "POST" and path == "/refresh":
            reply = 200, await daemon.refresh()
        elif method == "POST" and path == "/query":
            check_spec(body)
            reply = 200, await daemon.query(body)
        elif method == "POST" and path == "/subscribe":
            await _serve_subscription(daemon, body, reader, writer)
            return False
        elif path in ("/status", "/marks", "/refresh", "/query",
                      "/subscribe"):
            raise _BadRequest(405, f"wrong method for {path}")
        else:
            raise _BadRequest(404, f"no route {path!r}")
        keep_alive = wants_more
    except _BadRequest as exc:
        reply = exc.status, {"ok": False, "error": str(exc)}
    except (ConnectionError, asyncio.IncompleteReadError):
        return False
    except Exception as exc:  # pragma: no cover - defensive
        reply = 500, {"ok": False, "error": str(exc)}
    writer.write(_response_bytes(*reply, keep_alive))
    await writer.drain()
    return keep_alive


async def _serve_subscription(daemon, body, reader, writer):
    """Stream NDJSON events until the subscriber disconnects.

    Each ``writer.drain()`` is the per-connection backpressure point; a
    subscriber that stops reading stalls only its own queue, whose
    overflow policy (drop-oldest + ``lagged``) lives in the daemon.
    """
    watches = body.get("watches") if isinstance(body, dict) else None
    if not isinstance(watches, list) or not watches:
        raise _BadRequest(400, "subscribe body must carry a list of watch "
                               "specs under 'watches'")
    for watch in watches:
        check_spec(watch)
    sub = daemon.add_subscription(watches)
    head = ("HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Connection: close\r\n\r\n")
    writer.write(head.encode())
    writer.write((json.dumps(
        {"type": "subscribed", "id": sub.sid,
         "watches": len(watches)}) + "\n").encode())
    await writer.drain()
    # Race each queue wait against client EOF, or a silent disconnect
    # would leave the stream parked on an empty queue forever.
    eof = asyncio.ensure_future(reader.read())
    nxt = None
    try:
        while not sub.closed:
            nxt = asyncio.ensure_future(sub.queue.get())
            done, _pending = await asyncio.wait(
                {nxt, eof}, return_when=asyncio.FIRST_COMPLETED)
            if nxt not in done:
                break
            writer.write((json.dumps(nxt.result()) + "\n").encode())
            await writer.drain()
    except (ConnectionError, asyncio.CancelledError):
        pass
    finally:
        eof.cancel()
        if nxt is not None and not nxt.done():
            nxt.cancel()
        daemon.remove_subscription(sub)
