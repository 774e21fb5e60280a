"""Open-loop HTTP/1.1 load generator, run outside the server's process.

Each planned request has a *due* time on a fixed arrival schedule. The
generator writes it at that time whatever the server is doing: on an
idle keep-alive connection when there is one, otherwise pipelined
behind the connection with the fewest outstanding requests. Latency
is taken from the due time, not from the write, so a server stall is
charged to every request that fell due during it (no coordinated
omission). How late the generator itself wrote each request is
recorded separately, so a run whose generator fell behind shows it.

One thread drives every connection through ``select``; sleeps end a
little early and the remainder is spun, so the send time tracks the
schedule to tens of microseconds. A connection reset, a response
timeout or a non-2xx status marks the request failed; a broken
connection fails everything outstanding on it and is reopened.
"""

from __future__ import annotations

import json
import select
import socket
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

#: Remaining wait below which the loop spins instead of sleeping.
SPIN_SECONDS = 0.0002

#: A request with no response after this long is failed.
DEFAULT_TIMEOUT = 5.0


def get_request(path: str) -> bytes:
    """Keep-alive GET for ``path`` (already URL-encoded)."""
    return f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode()


def post_json(path: str, payload: object) -> bytes:
    """Keep-alive POST of a JSON body."""
    body = json.dumps(payload).encode()
    head = (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode()
    return head + body


@dataclass(frozen=True, slots=True)
class Planned:
    """One request on the arrival schedule."""

    due: float
    payload: bytes
    label: str = "query"
    #: Pin to this connection index; ``None`` lets the generator pick.
    conn: int | None = None
    #: Keep the response body (for checks); off for the bulk of a run.
    keep_body: bool = False


@dataclass
class Outcome:
    """What happened to one request (times are ``perf_counter``)."""

    plan: Planned
    due: float
    sent: float = float("nan")
    done: float = float("nan")
    status: int = 0
    body: bytes | None = None
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None or not 200 <= self.status < 300

    @property
    def latency(self) -> float:
        """Seconds from due time to response; ``inf`` if failed."""
        if self.failed:
            return float("inf")
        return self.done - self.due

    @property
    def late(self) -> float:
        """Seconds the generator wrote the request after its due time."""
        return self.sent - self.due


@dataclass
class RunResult:
    """Outcomes of one schedule, in plan order, then follow-ups."""

    start: float
    outcomes: list[Outcome]
    reconnects: int = 0

    def of(self, label: str) -> list[Outcome]:
        return [o for o in self.outcomes if o.plan.label == label]

    def backlog_at(self, t: float, label: str | None = None) -> int:
        """Requests due by ``t`` (absolute) with no response by ``t``."""
        count = 0
        for outcome in self.outcomes:
            if label is not None and outcome.plan.label != label:
                continue
            if outcome.due <= t and not outcome.done <= t:
                count += 1
        return count


@dataclass
class _Conn:
    sock: socket.socket
    pending: deque = field(default_factory=deque)
    rbuf: bytearray = field(default_factory=bytearray)
    wbuf: bytearray = field(default_factory=bytearray)


class OpenLoopClient:
    """Keep-alive connections to one server, driven open loop."""

    def __init__(
        self,
        host: str,
        port: int,
        connections: int = 2,
        *,
        timeout: float = DEFAULT_TIMEOUT,
    ) -> None:
        if connections < 1:
            raise ValueError("need at least one connection")
        self.address = (host, port)
        self.timeout = timeout
        self._conns = [self._connect() for _ in range(connections)]
        self.reconnects = 0

    def _connect(self) -> _Conn:
        sock = socket.create_connection(self.address, timeout=5.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        return _Conn(sock)

    def close(self) -> None:
        for conn in self._conns:
            conn.sock.close()

    def __enter__(self) -> "OpenLoopClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def run(
        self,
        plans: Sequence[Planned],
        *,
        start_delay: float = 0.02,
        followup: Callable[[Outcome], Planned | None] | None = None,
        on_tick: Callable[[], None] | None = None,
    ) -> RunResult:
        """Send ``plans`` (sorted by ``due``) on schedule; wait for all
        responses. ``followup`` may return a request to write at once,
        on the same connection, when a response arrives. ``on_tick``
        runs once per loop iteration (tests use it to stall the loop).
        """
        start = time.perf_counter() + start_delay
        outcomes = [Outcome(plan, start + plan.due) for plan in plans]
        n = len(plans)
        nxt = 0
        reconnects_before = self.reconnects
        last_sweep = start
        while nxt < n or any(c.pending for c in self._conns):
            now = time.perf_counter()
            while nxt < n and outcomes[nxt].due <= now:
                outcome = outcomes[nxt]
                index = self._pick(outcome.plan)
                self._write(index, outcome, now)
                nxt += 1
                now = time.perf_counter()
            if on_tick is not None:
                on_tick()
            wait = (
                outcomes[nxt].due - time.perf_counter()
                if nxt < n
                else 0.01
            )
            conns = self._conns
            readers = [c.sock for c in conns if c.pending]
            writers = [c.sock for c in conns if c.wbuf]
            if readers or writers:
                ready_r, ready_w, _ = select.select(
                    readers, writers, [],
                    max(0.0, wait - SPIN_SECONDS),
                )
            else:
                ready_r = ready_w = []
                if wait > SPIN_SECONDS:
                    time.sleep(wait - SPIN_SECONDS)
            for index, conn in enumerate(conns):
                if conn.sock in ready_w:
                    self._flush(index)
                if conn.sock in ready_r:
                    self._read(index, followup, outcomes)
            now = time.perf_counter()
            if now - last_sweep > 0.01:
                last_sweep = now
                self._expire(now)
        return RunResult(
            start=start,
            outcomes=outcomes,
            reconnects=self.reconnects - reconnects_before,
        )

    # ------------------------------------------------------------------
    def _pick(self, plan: Planned) -> int:
        if plan.conn is not None:
            return plan.conn % len(self._conns)
        best = 0
        for index, conn in enumerate(self._conns):
            if not conn.pending:
                return index
            if len(conn.pending) < len(self._conns[best].pending):
                best = index
        return best

    def _write(self, index: int, outcome: Outcome, now: float) -> None:
        conn = self._conns[index]
        outcome.sent = now
        conn.pending.append(outcome)
        if conn.wbuf:
            conn.wbuf += outcome.plan.payload
            return
        payload = outcome.plan.payload
        try:
            sent = conn.sock.send(payload)
        except BlockingIOError:
            sent = 0
        except OSError as error:
            self._fail_conn(index, f"send: {error}")
            return
        if sent < len(payload):
            conn.wbuf += payload[sent:]

    def _flush(self, index: int) -> None:
        conn = self._conns[index]
        try:
            sent = conn.sock.send(conn.wbuf)
        except BlockingIOError:
            return
        except OSError as error:
            self._fail_conn(index, f"send: {error}")
            return
        del conn.wbuf[:sent]

    def _read(self, index, followup, outcomes) -> None:
        conn = self._conns[index]
        try:
            data = conn.sock.recv(262144)
        except BlockingIOError:
            return
        except OSError as error:
            self._fail_conn(index, f"recv: {error}")
            return
        now = time.perf_counter()
        if not data:
            self._fail_conn(index, "connection closed")
            return
        buf = conn.rbuf
        buf += data
        while conn.pending:
            end = buf.find(b"\r\n\r\n")
            if end < 0:
                break
            head = bytes(buf[:end])
            try:
                status = int(head[9:12])
                at = head.lower().find(b"content-length:")
                length = 0
                if at >= 0:
                    stop = head.find(b"\r\n", at)
                    length = int(head[at + 15:stop if stop >= 0 else None])
            except ValueError:
                self._fail_conn(index, "malformed response")
                return
            total = end + 4 + length
            if len(buf) < total:
                break
            outcome = conn.pending.popleft()
            outcome.done = now
            outcome.status = status
            if outcome.plan.keep_body or not 200 <= status < 300:
                outcome.body = bytes(buf[end + 4:total])
            del buf[:total]
            if followup is not None:
                extra = followup(outcome)
                if extra is not None:
                    follow = Outcome(extra, now)
                    outcomes.append(follow)
                    self._write(index, follow, time.perf_counter())
                    conn = self._conns[index]
                    buf = conn.rbuf

    def _expire(self, now: float) -> None:
        for index, conn in enumerate(self._conns):
            if conn.pending and now - conn.pending[0].sent > self.timeout:
                self._fail_conn(index, "timeout")

    def _fail_conn(self, index: int, reason: str) -> None:
        """Fail everything outstanding on a connection and reopen it."""
        conn = self._conns[index]
        while conn.pending:
            outcome = conn.pending.popleft()
            outcome.error = reason
            outcome.done = time.perf_counter()
        conn.sock.close()
        self.reconnects += 1
        self._conns[index] = self._connect()
