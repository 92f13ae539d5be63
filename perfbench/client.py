"""Single-threaded open-loop HTTP/1.1 client over at most two keep-alive connections.

Requests follow a fixed arrival schedule.  Each request is timed from the
moment it was *due*, not from when a connection became free, so a stall
on one request shows up in the latency of every request queued behind it.
The generator's own lag (how late the loop noticed a request was due) is
recorded separately as ``lateness``, to check that the client, not the
server, was never the bottleneck.

The client speaks just enough HTTP/1.1 for ``python -m repro.serve
--http``: one ``POST /`` per request, written with a single ``send``, and
a ``Content-Length`` framed response read back on the same connection.
"""
from __future__ import annotations

import json
import selectors
import socket
import time
from collections import deque

__all__ = ["Outcome", "OpenLoopClient", "request_once", "wait_ready"]

#: Upper bound on how long one request may stay unanswered before the
#: client gives up on its connection (counted as a failure).
REQUEST_TIMEOUT_S = 10.0


class Outcome:
    """What happened to one scheduled request."""

    __slots__ = ("tag", "due", "queued", "sent", "done", "status", "body",
                 "error", "conn", "good")

    def __init__(self, tag, due):
        self.tag = tag
        self.due = due
        self.queued = None   # when the generator noticed it was due
        self.sent = None
        self.done = None
        self.status = None
        self.body = None     # decoded JSON response
        self.error = None    # transport failure text
        self.conn = None     # index of the connection that carried it
        self.good = None     # the caller's correctness verdict

    @property
    def latency_ms(self) -> float:
        """Due-to-answer latency (the open-loop measure)."""
        return 1e3 * (self.done - self.due)

    @property
    def service_ms(self) -> float:
        """Send-to-answer latency on the wire."""
        return 1e3 * (self.done - self.sent)

    @property
    def ok(self) -> bool:
        return (self.error is None and self.status == 200
                and isinstance(self.body, dict) and bool(self.body.get("ok")))


def _frame(host: str, port: int, body: bytes) -> bytes:
    head = (
        f"POST / HTTP/1.1\r\nHost: {host}:{port}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("ascii")
    return head + body


def _parse_response(buf: bytearray):
    """Pop one whole response off ``buf``: ``(status, body_bytes)`` or ``None``."""
    end = buf.find(b"\r\n\r\n")
    if end < 0:
        return None
    head = bytes(buf[:end]).decode("latin-1").split("\r\n")
    status = int(head[0].split()[1])
    length = 0
    for line in head[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    total = end + 4 + length
    if len(buf) < total:
        return None
    body = bytes(buf[end + 4:total])
    del buf[:total]
    return status, body


class _Conn:
    def __init__(self, index: int, host: str, port: int):
        self.index = index
        self.sock = socket.create_connection((host, port), timeout=5.0)
        self.sock.setblocking(False)
        self.buf = bytearray()
        self.current: Outcome | None = None
        self.out = b""

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


class OpenLoopClient:
    """Send scheduled requests over ``connections`` keep-alive sockets.

    Use as a context manager; :meth:`run` may be called several times
    (one call per rate step) on the same connections.
    """

    def __init__(self, host: str, port: int, connections: int = 2):
        if not 1 <= connections <= 2:
            raise ValueError("the benchmark uses one or two connections")
        self.host, self.port = host, port
        self.sel = selectors.DefaultSelector()
        self.conns = []
        for i in range(connections):
            conn = _Conn(i, host, port)
            self.sel.register(conn.sock, selectors.EVENT_READ, conn)
            self.conns.append(conn)

    def close(self):
        self.sel.close()
        for conn in self.conns:
            conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _reconnect(self, conn: _Conn) -> None:
        try:
            self.sel.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        conn.close()
        fresh = _Conn(conn.index, self.host, self.port)
        self.sel.register(fresh.sock, selectors.EVENT_READ, fresh)
        self.conns[conn.index] = fresh

    def _fail(self, conn: _Conn, text: str, now: float) -> None:
        out = conn.current
        conn.current = None
        if out is not None:
            out.error, out.done = text, now
        self._reconnect(conn)

    def run(self, schedule, body_for, on_done=None, should_stop=None):
        """Send ``schedule`` (a list of ``(due, tag)``, due ascending).

        ``body_for(tag)`` returns the JSON request bytes; ``on_done(outcome)``
        sees each finished request.  ``should_stop()`` is polled after each
        completion: once it returns true, requests not yet sent are
        abandoned (returned with ``sent is None``) and in-flight ones are
        drained.  Returns every :class:`Outcome`, in schedule order.
        """
        outcomes = [Outcome(tag, due) for due, tag in schedule]
        pending = deque(outcomes)
        ready: deque = deque()
        inflight = 0
        stopped = False
        while pending or ready or inflight:
            now = time.perf_counter()
            if not stopped:
                while pending and pending[0].due <= now:
                    out = pending.popleft()
                    out.queued = now
                    ready.append(out)
                for conn in self.conns:
                    if conn.current is None and ready:
                        out = ready.popleft()
                        out.sent = time.perf_counter()
                        out.conn = conn.index
                        conn.current = out
                        conn.out = _frame(self.host, self.port, body_for(out.tag))
                        inflight += 1
            for conn in self.conns:
                if not conn.out:
                    continue
                try:
                    sent = conn.sock.send(conn.out)
                    conn.out = conn.out[sent:]
                except BlockingIOError:
                    pass
                except OSError as exc:
                    out = conn.current
                    inflight -= 1
                    self._fail(conn, f"send: {exc}", time.perf_counter())
                    if on_done is not None:
                        on_done(out)
            if stopped and not inflight:
                break
            timeout = 0.05
            if pending and not stopped and not ready:
                timeout = min(timeout, max(pending[0].due - time.perf_counter(), 0.0))
            for key, _ in self.sel.select(timeout):
                conn = key.data
                try:
                    chunk = conn.sock.recv(1 << 16)
                except BlockingIOError:
                    continue
                except OSError as exc:
                    chunk = None
                    err = f"recv: {exc}"
                else:
                    err = "connection closed by server"
                now = time.perf_counter()
                if not chunk:
                    if conn.current is not None:
                        inflight -= 1
                        out = conn.current
                        self._fail(conn, err, now)
                        if on_done is not None:
                            on_done(out)
                    else:
                        self._reconnect(conn)
                    continue
                conn.buf += chunk
                parsed = _parse_response(conn.buf)
                if parsed is None or conn.current is None:
                    continue
                out, conn.current = conn.current, None
                inflight -= 1
                out.done = now
                out.status = parsed[0]
                try:
                    out.body = json.loads(parsed[1])
                except ValueError:
                    out.error = "undecodable response body"
                if on_done is not None:
                    on_done(out)
                if not stopped and should_stop is not None and should_stop():
                    stopped = True
                    pending.clear()
                    ready.clear()
            now = time.perf_counter()
            for conn in self.conns:
                out = conn.current
                if out is not None and now - out.sent > REQUEST_TIMEOUT_S:
                    inflight -= 1
                    self._fail(conn, "timed out", now)
                    if on_done is not None:
                        on_done(out)
        return outcomes


def request_once(host: str, port: int, payload: dict, timeout: float = 5.0) -> dict:
    """One blocking request on a fresh connection (setup and stats only)."""
    body = json.dumps(payload).encode("utf-8")
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(_frame(host, port, body))
        buf = bytearray()
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the connection mid-response")
            buf += chunk
            parsed = _parse_response(buf)
            if parsed is not None:
                return json.loads(parsed[1])


def wait_ready(host: str, port: int, deadline_s: float = 60.0) -> None:
    """Ping until the server answers (raises ``TimeoutError`` at the deadline)."""
    stop = time.perf_counter() + deadline_s
    while True:
        try:
            if request_once(host, port, {"op": "ping"}, timeout=2.0).get("ok"):
                return
        except OSError:
            pass
        if time.perf_counter() > stop:
            raise TimeoutError(f"server on port {port} never answered a ping")
        time.sleep(0.02)
