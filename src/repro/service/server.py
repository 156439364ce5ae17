"""The REST front end: a minimal HTTP/1.1 layer over asyncio streams.

Routes (all JSON bodies/responses):

* ``GET  /status``    — daemon epoch, stored heads, meter counters;
* ``POST /query``     — evaluate one provenance query spec (``fresh``
  joins the next batched refresh pass first);
* ``POST /refresh``   — join the next refresh pass, returns its epoch;
* ``GET  /marks``     — the daemon's per-node verified heads (its
  low-water marks for the GC handshake);
* ``POST /subscribe`` — open a standing subscription: the response is an
  unbounded ``application/x-ndjson`` stream of state/alert events, one
  JSON object per line, until the client disconnects.

Deliberately stdlib-only and small: request bodies are bounded, parsing
is strict, a query or watch spec is validated whole before the daemon
sees any of it (:func:`check_spec`, as a hello is on the push side), and
anything malformed gets a 4xx and a closed connection — the service
contract lives in :mod:`repro.service.monitor`, not here.
"""

import asyncio
import json

MAX_REQUEST_BYTES = 1 << 20
_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            500: "Internal Server Error"}


class _BadRequest(Exception):
    def __init__(self, status, message):
        super().__init__(message)
        self.status = status


async def _read_request(reader):
    """Parse one request; returns (method, path, body-dict-or-None)."""
    line = await reader.readline()
    if not line:
        raise ConnectionError("closed")
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise _BadRequest(400, "malformed request line")
    method, path, _version = parts
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        if len(headers) > 64:
            raise _BadRequest(400, "too many headers")
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
    return method, path, body


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


def _response_bytes(status, payload, extra_headers=()):
    body = json.dumps(payload).encode()
    head = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close"]
    head.extend(extra_headers)
    return ("\r\n".join(head) + "\r\n\r\n").encode() + body


async def handle_http(daemon, reader, writer):
    """Serve one connection (one request — ``Connection: close``)."""
    try:
        try:
            method, path, body = await _read_request(reader)
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
                return
            elif path in ("/status", "/marks", "/refresh", "/query",
                          "/subscribe"):
                raise _BadRequest(405, f"wrong method for {path}")
            else:
                raise _BadRequest(404, f"no route {path!r}")
        except _BadRequest as exc:
            reply = exc.status, {"ok": False, "error": str(exc)}
        writer.write(_response_bytes(*reply))
        await writer.drain()
    except (ConnectionError, asyncio.IncompleteReadError):
        pass
    except Exception as exc:  # pragma: no cover - defensive
        try:
            writer.write(_response_bytes(
                500, {"ok": False, "error": str(exc)}))
            await writer.drain()
        except ConnectionError:
            pass
    finally:
        try:
            writer.close()
        except (ConnectionError, RuntimeError):  # pragma: no cover
            pass


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
