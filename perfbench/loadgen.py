"""Single-threaded open-loop HTTP load generator for ``uspec serve``.

Requests arrive on a precomputed schedule (Poisson arrivals), whether or
not earlier ones have been answered.  The generator runs in the calling
thread and multiplexes at most ``connections`` keep-alive sockets with
``selectors``; a request that comes due while every connection is busy
waits in a FIFO, and that wait is part of its latency, because every
latency is timed from the moment the request was *due*.

Per request it records three instants: ``due`` (schedule), ``sent``
(written to a socket) and ``done`` (last reply byte read).  From them:

* latency   = done - due
* late      = noticed - due, how far behind schedule the generator loop
              itself ran (its own validity, not the server's)
* conn_wait = sent - noticed, time spent waiting for a free connection
"""

from __future__ import annotations

import json
import random
import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from common import percentile


@dataclass
class Request:
    """One scheduled request and what happened to it."""

    due: float  # seconds after the phase start
    body: bytes
    snippet: int  # index into the caller's snippet table
    noticed: Optional[float] = None
    sent: Optional[float] = None
    done: Optional[float] = None
    status: int = 0
    reply: bytes = b""

    @property
    def answered(self) -> bool:
        return self.done is not None

    @property
    def latency(self) -> float:
        return self.done - self.due

    def json(self) -> object:
        try:
            return json.loads(self.reply.decode("utf-8"))
        except ValueError:
            return None


def poisson_schedule(rate: float, count: int,
                     rng: random.Random) -> List[float]:
    """The first ``count`` arrival offsets of a Poisson process of
    ``rate`` per second."""
    times: List[float] = []
    t = 0.0
    for _ in range(count):
        t += rng.expovariate(rate)
        times.append(t)
    return times


@dataclass
class _Conn:
    sock: Optional[socket.socket] = None
    request: Optional[Request] = None
    buf: bytearray = field(default_factory=bytearray)


class OpenLoopClient:
    """Drives one phase of scheduled requests at ``host:port``."""

    def __init__(self, host: str, port: int, connections: int,
                 path: str = "/v1/alias") -> None:
        self.host = host
        self.port = port
        self.path = path
        self.connections = max(1, connections)
        self._selector = selectors.DefaultSelector()
        self._conns = [_Conn() for _ in range(self.connections)]

    # -- connection plumbing ------------------------------------------

    def _open(self, conn: _Conn) -> None:
        sock = socket.create_connection((self.host, self.port), timeout=10.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn.sock = sock

    def _drop(self, conn: _Conn) -> None:
        if conn.sock is not None:
            if conn.request is not None:
                self._selector.unregister(conn.sock)
            conn.sock.close()
        conn.sock = None
        conn.request = None
        conn.buf.clear()

    def close(self) -> None:
        for conn in self._conns:
            self._drop(conn)
        self._selector.close()

    def head(self, length: int) -> bytes:
        return (
            f"POST {self.path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Length: {length}\r\n"
            f"\r\n"
        ).encode("ascii")

    def _send(self, conn: _Conn, request: Request, now: float) -> None:
        for attempt in (0, 1):
            try:
                if conn.sock is None:
                    self._open(conn)
                conn.sock.sendall(self.head(len(request.body)) + request.body)
                break
            except OSError:
                # a keep-alive socket the server closed while idle: one
                # fresh connection, then the request counts as failed
                self._drop(conn)
                if attempt:
                    request.done = None
                    request.status = -1
                    return
        request.sent = now
        conn.request = request
        self._selector.register(conn.sock, selectors.EVENT_READ, conn)

    def _read(self, conn: _Conn, clock0: float) -> Optional[Request]:
        try:
            chunk = conn.sock.recv(65536)
        except OSError:
            chunk = b""
        request = conn.request
        if not chunk:
            request.status = -1
            self._drop(conn)
            return request
        conn.buf += chunk
        head_end = conn.buf.find(b"\r\n\r\n")
        if head_end < 0:
            return None
        head = bytes(conn.buf[:head_end]).lower()
        marker = head.find(b"content-length:")
        length = 0
        if marker >= 0:
            line_end = head.find(b"\r\n", marker)
            line_end = len(head) if line_end < 0 else line_end
            length = int(head[marker + len(b"content-length:"):line_end])
        if len(conn.buf) < head_end + 4 + length:
            return None
        request.done = time.perf_counter() - clock0
        request.status = int(bytes(conn.buf[:head_end]).split(b" ", 2)[1])
        request.reply = bytes(conn.buf[head_end + 4:head_end + 4 + length])
        keep_alive = b"connection: close" not in head
        self._selector.unregister(conn.sock)
        conn.request = None
        conn.buf.clear()
        if not keep_alive:
            self._drop(conn)
        return request

    # -- the phase loop ------------------------------------------------

    def run(self, requests: Sequence[Request], grace: float) -> float:
        """Send ``requests`` on schedule; wait at most ``grace`` seconds
        after the last due time for stragglers.  Returns the phase's
        wall-clock length.  Unanswered requests keep ``done = None``."""
        # fresh sockets per phase: the daemon closes keep-alive
        # connections idle longer than its header timeout
        for conn in self._conns:
            self._drop(conn)
            self._open(conn)
        order = sorted(requests, key=lambda r: r.due)
        horizon = (order[-1].due if order else 0.0) + grace
        waiting: List[Request] = []
        nxt = 0
        outstanding = len(order)
        clock0 = time.perf_counter()
        while outstanding:
            now = time.perf_counter() - clock0
            if now > horizon:
                break
            while nxt < len(order) and order[nxt].due <= now:
                order[nxt].noticed = now
                waiting.append(order[nxt])
                nxt += 1
            for conn in self._conns:
                if not waiting:
                    break
                if conn.request is None:
                    request = waiting.pop(0)
                    self._send(conn, request, time.perf_counter() - clock0)
                    if request.status == -1:
                        outstanding -= 1
            timeout = horizon - now
            if nxt < len(order):
                timeout = min(timeout, order[nxt].due - now)
            if all(c.request is None for c in self._conns):
                # nothing in flight: sleep until the next arrival
                if timeout > 0:
                    time.sleep(timeout)
                continue
            for key, _ in self._selector.select(max(0.0, timeout)):
                if self._read(key.data, clock0) is not None:
                    outstanding -= 1
        # stragglers past the grace window: their sockets are closed so
        # the next phase starts with clean connections
        for conn in self._conns:
            if conn.request is not None:
                self._drop(conn)
        return time.perf_counter() - clock0


def summarize(requests: Sequence[Request]) -> Tuple[List[float], float,
                                                    float]:
    """(latencies of answered requests, p99 late seconds, mean
    connection wait seconds)."""
    latencies = [r.latency for r in requests if r.answered]
    late = [r.noticed - r.due for r in requests if r.noticed is not None]
    waits = [r.sent - r.noticed for r in requests
             if r.sent is not None and r.noticed is not None]
    return (
        latencies,
        percentile(late, 99) if late else 0.0,
        sum(waits) / len(waits) if waits else 0.0,
    )
