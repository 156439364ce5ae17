"""``MonitorClient`` against servers the daemon would never be.

The client parses HTTP itself (``service/client.py``: one request
template, one response-head parser), so what a broken or hostile peer can
make it do is ours to pin. Every server here is a scripted loopback
socket — no daemon, no asyncio — and every outcome is one of four: a
dict, :class:`ServiceClientError`, a ``ConnectionError``, or a timeout.
"""

import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.service import client as client_module
from repro.service.client import MonitorClient, ServiceClientError

SRC = Path(__file__).resolve().parents[2] / "src"


def response(payload, status=b"200 OK", extra=b""):
    body = payload if isinstance(payload, bytes) else json.dumps(
        payload).encode()
    return (b"HTTP/1.1 " + status + b"\r\nContent-Type: application/json\r\n"
            + b"Content-Length: %d\r\n" % len(body) + extra + b"\r\n" + body)


class Peer:
    """One accepted connection, as a script sees it."""

    def __init__(self, sock, requests):
        self.sock = sock
        self._requests = requests
        self._buf = b""

    def request(self):
        """Read one whole request (head, then its Content-Length of
        body); ``None`` once the client has hung up."""
        while b"\r\n\r\n" not in self._buf:
            try:
                chunk = self.sock.recv(65536)
            except ConnectionError:     # it hung up with bytes unread
                return None
            if not chunk:
                return None
            self._buf += chunk
        head, _sep, rest = self._buf.partition(b"\r\n\r\n")
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _colon, value = line.partition(b":")
            if name.lower() == b"content-length":
                length = int(value)
        while len(rest) < length:
            rest += self.sock.recv(65536)
        self._buf = rest[length:]
        self._requests.append(head + b"\r\n\r\n" + rest[:length])
        return self._requests[-1]

    def send(self, data):
        self.sock.sendall(data)

    def trickle(self, data):
        for i in range(len(data)):
            self.sock.sendall(data[i:i + 1])

    def reset(self):
        """Close with an RST, as an aborted transport does."""
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                             struct.pack("ii", 1, 0))
        self.sock.close()

    def until_hangup(self):
        while self.request() is not None:
            pass


class FakeDaemon:
    """Plays one script per accepted connection, in order, on a loopback
    port; counts connections and keeps every request it read. Leaving
    the ``with`` block re-raises whatever a script raised."""

    def __init__(self, *scripts):
        self._scripts = scripts
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self.connections = 0
        self._finished = threading.Semaphore(0)
        self.requests = []
        self._errors = []
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        for script in self._scripts:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return      # listener closed: the test needed fewer
            self.connections += 1
            sock.settimeout(10)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            try:
                script(Peer(sock, self.requests))
            except Exception as exc:
                self._errors.append(exc)
            finally:
                sock.close()
                self._finished.release()

    def client(self, timeout=5.0):
        return MonitorClient("127.0.0.1", self.port, timeout=timeout)

    def wait_finished(self):
        """Block until one more script has run to its end."""
        assert self._finished.acquire(timeout=5), "script still running"

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, exc_type, exc, tb):
        # shutdown, not just close: wakes an accept() still in progress.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        self._thread.join(10)
        assert not self._thread.is_alive(), "a script never finished"
        if exc_type is None and self._errors:
            raise self._errors[0]
        return False


def answers(*replies):
    """A script: answer request *i* with ``replies[i]``, then wait for
    the client to hang up."""
    def script(peer):
        for reply in replies:
            if peer.request() is None:
                return
            peer.send(reply)
        peer.until_hangup()
    return script


class TestOneExchange:
    def test_a_request_is_one_fixed_shape_segment(self):
        with FakeDaemon(answers(response({"ok": True}),
                                response({"ok": True}))) as daemon:
            with daemon.client() as client:
                assert client.status() == {"ok": True, "_status": 200}
                assert client.query({"relation": "r", "loc": "a"})["ok"]
            host = b"Host: 127.0.0.1:%d\r\n" % daemon.port
            body = b'{"relation": "r", "loc": "a"}'
            assert daemon.requests == [
                b"GET /status HTTP/1.1\r\n" + host + b"\r\n",
                b"POST /query HTTP/1.1\r\n" + host
                + b"Content-Type: application/json\r\n"
                + b"Content-Length: %d\r\n\r\n" % len(body) + body,
            ]
            assert daemon.connections == 1

    def test_a_response_trickled_a_byte_at_a_time(self):
        def script(peer):
            peer.request()
            peer.trickle(response({"ok": True, "n": [1, 2, 3]}))
            peer.until_hangup()
        with FakeDaemon(script) as daemon, daemon.client() as client:
            assert client.status() == {"ok": True, "n": [1, 2, 3],
                                       "_status": 200}

    def test_two_responses_in_one_segment(self):
        """The second is already buffered: the next call returns it
        although the server sends nothing more (a client that needed a
        second ``recv`` would time out)."""
        def script(peer):
            peer.request()
            peer.send(response({"n": 1}) + response({"n": 2}, b"404 Not Found"))
            peer.until_hangup()
        with FakeDaemon(script) as daemon, daemon.client(1.0) as client:
            assert client.status() == {"n": 1, "_status": 200}
            assert client.status() == {"n": 2, "_status": 404}
            assert len(daemon.requests) <= 2 and daemon.connections == 1

    def test_connection_close_is_honoured_on_a_200(self):
        closing = response({"n": 1}, extra=b"Connection: close\r\n")
        with FakeDaemon(answers(closing), answers(response({"n": 2}))
                        ) as daemon, daemon.client() as client:
            assert client.status()["n"] == 1
            assert client._sock is None
            assert client.status()["n"] == 2
            assert daemon.connections == 2 and len(daemon.requests) == 2

    def test_header_names_and_spacing_are_not_fixed(self):
        reply = (b"HTTP/1.1 200 OK\r\ncontent-length:2\r\n"
                 b"CONNECTION:  Close \r\n\r\n{}")
        with FakeDaemon(answers(reply)) as daemon, \
                daemon.client() as client:
            assert client.status() == {"_status": 200}
            assert client._sock is None


BAD_FRAMING = {
    "status-not-a-number": b"HTTP/1.1 abc OK\r\nContent-Length: 2\r\n\r\n{}",
    "status-missing": b"HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
    "status-four-digits": b"HTTP/1.1 2000 OK\r\nContent-Length: 2\r\n\r\n{}",
    "not-http-1.1": b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\n{}",
    "empty-status-line": b"\r\nContent-Length: 2\r\n\r\n{}",
    "length-missing": b"HTTP/1.1 200 OK\r\nX: 1\r\n\r\n{}",
    "length-negative": b"HTTP/1.1 200 OK\r\nContent-Length: -2\r\n\r\n{}",
    "length-signed": b"HTTP/1.1 200 OK\r\nContent-Length: +2\r\n\r\n{}",
    "length-not-a-number":
        b"HTTP/1.1 200 OK\r\nContent-Length: two\r\n\r\n{}",
    "length-empty": b"HTTP/1.1 200 OK\r\nContent-Length:\r\n\r\n{}",
    "length-5000-digits":
        b"HTTP/1.1 200 OK\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n{}",
    "lengths-conflict": b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
                        b"Content-Length: 3\r\n\r\n{} ",
    "70kB-of-head": b"HTTP/1.1 200 OK\r\nX: " + b"a" * 70_000,
}
BAD_BODIES = {
    "body-not-json": response(b"<html>"),
    "body-not-utf8": response(b"\xff\xfe{}"),
    "body-a-list": response([]),
    "body-a-number": response(3),
    "body-a-string": response("x"),
    "body-nested-past-the-recursion-limit":
        response(b"[" * 100_000 + b"]" * 100_000),
}


class TestMalformedResponses:
    @pytest.mark.parametrize("reply", list(BAD_FRAMING.values()),
                             ids=list(BAD_FRAMING))
    def test_a_bad_head_is_a_service_client_error_and_closes(self, reply):
        with FakeDaemon(answers(reply)) as daemon, \
                daemon.client() as client:
            with pytest.raises(ServiceClientError):
                client.status()
            assert client._sock is None and not client._buf
            assert len(daemon.requests) == 1

    @pytest.mark.parametrize("reply", list(BAD_BODIES.values()),
                             ids=list(BAD_BODIES))
    def test_a_bad_body_is_a_service_client_error(self, reply):
        """At the parent a JSON body that is not an object escaped as
        ``TypeError``. The exchange was whole, so the connection is
        kept."""
        with FakeDaemon(answers(reply, response({"n": 2}))) as daemon, \
                daemon.client() as client:
            with pytest.raises(ServiceClientError):
                client.status()
            assert client.status()["n"] == 2
            assert daemon.connections == 1

    def test_the_same_length_twice_is_not_a_conflict(self):
        reply = (b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
                 b"Content-Length: 2\r\n\r\n{}")
        with FakeDaemon(answers(reply)) as daemon, \
                daemon.client() as client:
            assert client.status() == {"_status": 200}

    def test_a_head_with_no_end_is_given_up_on_at_the_bound(self):
        """The server would send for ever; the client stops reading."""
        sent = []

        def script(peer):
            peer.request()
            try:
                while len(sent) < 64:
                    peer.send(b"X: " + b"a" * 65_533)
                    sent.append(1)
            except OSError:
                pass
        with FakeDaemon(script) as daemon, daemon.client() as client:
            with pytest.raises(ServiceClientError, match="head"):
                client.status()
            assert client._sock is None
            daemon.wait_finished()

    @pytest.mark.parametrize("partial", [
        b"HTTP/1.1 200 OK\r\nContent-Le",
        response({"ok": True, "pad": "x" * 64})[:-10],
    ], ids=["head-cut-short", "body-shorter-than-its-length"])
    def test_eof_inside_a_response_is_a_connection_error(self, partial):
        def script(peer):
            peer.request()
            peer.send(partial)
        with FakeDaemon(script, answers(response({}))) as daemon, \
                daemon.client() as client:
            with pytest.raises(ConnectionError):
                client.status()
            assert client._sock is None
            # a fresh connection's failure is the answer: nothing resent
            assert daemon.connections == 1 and len(daemon.requests) == 1

    def test_a_server_that_never_answers_times_out(self):
        with FakeDaemon(Peer.until_hangup) as daemon, \
                daemon.client(0.2) as client:
            started = time.monotonic()
            with pytest.raises(socket.timeout):
                client.status()
            assert time.monotonic() - started < 2.0
            assert client._sock is None


class TestResendRule:
    """A *reused* connection that fails before any byte of a response is
    replaced and the request resent, once; every other failure is the
    answer."""

    @pytest.mark.parametrize("ending", ["fin-while-idle", "rst-on-request"])
    def test_a_dead_kept_connection_costs_one_resend(self, ending):
        def first(peer):
            peer.request()
            peer.send(response({"n": 1}))
            if ending == "rst-on-request":
                peer.request()
                peer.reset()
        with FakeDaemon(first, answers(response({"n": 2}))) as daemon, \
                daemon.client() as client:
            assert client.status()["n"] == 1
            if ending == "fin-while-idle":
                daemon.wait_finished()
            assert client.status()["n"] == 2
            assert daemon.connections == 2
            # the same request both times, whether or not the dead
            # connection's copy was ever read
            assert len(set(daemon.requests)) == 1

    @pytest.mark.parametrize("ending", ["eof", "rst"])
    def test_a_response_that_breaks_off_is_not_resent(self, ending):
        def first(peer):
            peer.request()
            peer.send(response({"n": 1}))
            peer.request()
            peer.send(b"HTTP/1.1 200 OK\r\nContent-Len")
            if ending == "rst":
                peer.reset()
        with FakeDaemon(first, answers(response({"n": 2}))) as daemon, \
                daemon.client() as client:
            assert client.status()["n"] == 1
            with pytest.raises(ConnectionError):
                client.status()
            assert client._sock is None and not client._buf
            assert daemon.connections == 1 and len(daemon.requests) == 2
            # ... and the client is usable again
            assert client.status()["n"] == 2

    def test_the_resend_failing_too_is_the_answer(self):
        def dies(peer):
            peer.request()
            peer.send(response({"n": 1}))
        with FakeDaemon(dies, Peer.reset) as daemon, \
                daemon.client() as client:
            assert client.status()["n"] == 1
            daemon.wait_finished()
            with pytest.raises(ConnectionError):
                client.status()
            assert client._sock is None
            daemon.wait_finished()
            assert daemon.connections == 2


class TestSubscribeSharesTheExchange:
    def test_request_and_events(self):
        def script(peer):
            peer.request()
            peer.send(b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson"
                      b"\r\nConnection: close\r\n\r\n"
                      b'{"type": "subscribed"}\n{"type":')
            peer.send(b' "state"}\n')
        with FakeDaemon(script) as daemon, daemon.client() as client:
            with client.subscribe([{"relation": "r", "loc": "a"}]) as stream:
                assert stream.next_event(timeout=5)["type"] == "subscribed"
                assert stream.next_event(timeout=5)["type"] == "state"
                assert stream.next_event(timeout=5) is None
            head, _sep, body = daemon.requests[0].partition(b"\r\n\r\n")
            assert head.split(b"\r\n") == [
                b"POST /subscribe HTTP/1.1",
                b"Host: 127.0.0.1:%d" % daemon.port,
                b"Content-Type: application/json",
                b"Content-Length: %d" % len(body),
                b"Connection: close"]
            assert json.loads(body) == {
                "watches": [{"relation": "r", "loc": "a"}]}

    def test_a_timeout_does_not_end_the_stream(self):
        proceed = threading.Event()

        def script(peer):
            peer.request()
            peer.send(b"HTTP/1.1 200 OK\r\n\r\n" b'{"n":')
            proceed.wait(10)
            peer.send(b" 1}\n")
        with FakeDaemon(script) as daemon, daemon.client() as client:
            with client.subscribe([{"relation": "r", "loc": "a"}]) as stream:
                with pytest.raises(socket.timeout):
                    stream.next_event(timeout=0.05)
                proceed.set()
                assert stream.next_event(timeout=5) == {"n": 1}

    @pytest.mark.parametrize("reply, message", [
        (b"HTTP/1.1 abc\r\n\r\n", "malformed status line"),
        (b"garbage\r\n\r\n", "malformed status line"),
        (response({"ok": False, "error": "no"}, b"400 Bad Request",
                  b"Connection: close\r\n"), "subscribe failed: 400"),
        (b"HTTP/1.1 500 Internal Server Error\r\n\r\n",
         "subscribe failed: 500"),
    ], ids=["status-not-a-number", "no-status-line", "a-400", "a-bare-500"])
    def test_a_refusal_is_a_service_client_error(self, reply, message):
        with FakeDaemon(answers(reply)) as daemon, \
                daemon.client() as client:
            with pytest.raises(ServiceClientError, match=message):
                client.subscribe([{"relation": "r", "loc": "a"}])


# --------------------------------------------------------------- property

class _ChunkedSocket:
    """Stands in for a connected socket: hands out *chunks* one ``recv``
    at a time, then EOF; counts what was taken."""

    def __init__(self, chunks):
        self._chunks = list(chunks)
        self.taken = 0
        self.closed = False

    def setsockopt(self, *args):
        pass

    def sendall(self, data):
        pass

    def recv(self, size):
        if not self._chunks:
            return b""
        chunk = self._chunks[0][:size]
        self._chunks[0] = self._chunks[0][size:]
        if not self._chunks[0]:
            del self._chunks[0]
        self.taken += len(chunk)
        return chunk

    def close(self):
        self.closed = True


_STATUS_LINES = st.sampled_from([
    b"HTTP/1.1 200 OK", b"HTTP/1.1 404 Not Found", b"HTTP/1.1 200",
    b"HTTP/1.1 abc", b"HTTP/1.0 200 OK", b"HTTP/1.1  200  OK", b"",
    b"200 OK", b"HTTP/1.1 \xff\xfe\xfd"])
_BODIES = st.sampled_from([
    b"{}", b'{"ok": true}', b"[]", b"3", b'"x"', b"", b"{", b"\xff",
    b'{"_status": 1}', b"[" * 3000])
_HEADER_LINES = st.one_of(
    st.sampled_from([
        b"Content-Length: 2", b"Content-Length: 12", b"content-length:0",
        b"Content-Length: -1", b"Content-Length: 1e1", b"Content-Length",
        b"Content-Length: " + b"1" * 30, b"Connection: close",
        b"Connection: keep-alive", b"Content-Type: application/json",
        b": ", b":", b"X: " + b"a" * 70_000]),
    st.binary(max_size=40))
_RESPONSES = st.one_of(
    st.binary(max_size=300),
    st.builds(
        lambda status, headers, sep, body, tail:
            status + b"\r\n" + b"".join(h + b"\r\n" for h in headers)
            + sep + body + tail,
        _STATUS_LINES, st.lists(_HEADER_LINES, max_size=4),
        st.sampled_from([b"\r\n", b"\r\n", b"\n", b""]), _BODIES,
        st.binary(max_size=20)),
    st.builds(lambda body, tail: response(body) + tail, _BODIES,
              st.binary(max_size=80)))


@settings(max_examples=300, deadline=None)
@given(_RESPONSES, st.data())
def test_no_response_bytes_make_anything_else_escape(stream, data):
    """Whatever arrives, however it is cut up: a dict with an integer
    ``_status``, ``ServiceClientError`` or ``ConnectionError`` — and no
    socket dropped without being closed. A head that has not ended in
    ``_MAX_HEAD`` bytes is not read further."""
    cuts = data.draw(st.lists(st.integers(0, len(stream)),
                              max_size=6).map(sorted))
    chunks = [stream[a:b] for a, b in zip([0] + cuts, cuts + [len(stream)])
              if a < b]
    fake = _ChunkedSocket(chunks)
    with mock.patch.object(client_module.socket, "create_connection",
                           return_value=fake):
        client = MonitorClient("127.0.0.1", 1)
        try:
            out = client.status()
        except ConnectionError:
            assert fake.closed
        except ServiceClientError:
            pass    # closed, or a whole exchange with a bad body: kept
        else:
            assert isinstance(out, dict) and type(out["_status"]) is int
    assert fake.closed == (client._sock is None)
    assert not (fake.closed and client._buf)
    first_end = stream.find(b"\r\n\r\n")
    if first_end < 0 or first_end > client_module._MAX_HEAD:
        assert fake.taken < 2 * client_module._MAX_HEAD


# ------------------------------------------------------------ import guard

def test_the_service_package_imports_no_http_stack():
    """The daemon child is ``python -m repro.service``: what importing
    the package drags in stays resident in it (``http.client`` alone
    brings ``email`` and ``urllib.parse``, about 1.5 MB)."""
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.service; print([m for m in ('http.client', "
         "'email.parser', 'urllib.request') if m in sys.modules])"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), check=True,
        capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_nothing_under_src_names_http_client():
    offenders = [str(path) for path in SRC.rglob("*.py")
                 if "http.client" in path.read_text()]
    assert not offenders
