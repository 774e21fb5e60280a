import socket
import threading
import time

import pytest

from loadgen import OpenLoopClient, Planned, get_request

OK = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
FAIL = b"HTTP/1.1 500 Internal Server Error\r\nContent-Length: 0\r\n\r\n"


class FakeServer:
    """Answers GETs in order on each connection; ``stall`` delays the
    first answer, ``replies`` overrides the reply per request number,
    ``None`` meaning close the connection instead."""

    def __init__(self, stall=0.0, replies=None):
        self.stall = stall
        self.replies = replies or {}
        self.count = 0
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self._accept, daemon=True)
        self.thread.start()

    def _accept(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            threading.Thread(
                target=self._serve, args=(conn,), daemon=True
            ).start()

    def _serve(self, conn):
        buf = b""
        with conn:
            while True:
                while b"\r\n\r\n" not in buf:
                    data = conn.recv(65536)
                    if not data:
                        return
                    buf += data
                _, buf = buf.split(b"\r\n\r\n", 1)
                self.count += 1
                if self.count == 1 and self.stall:
                    time.sleep(self.stall)
                reply = self.replies.get(self.count, OK)
                if reply is None:
                    return
                conn.sendall(reply)

    def close(self):
        self.listener.close()


@pytest.fixture
def server(request):
    fake = FakeServer(**getattr(request, "param", {}))
    yield fake
    fake.close()


def plans(n, gap):
    return [Planned(due=i * gap, payload=get_request(f"/q{i}"))
            for i in range(n)]


def test_all_requests_answered(server):
    with OpenLoopClient("127.0.0.1", server.port, 2) as client:
        result = client.run(plans(50, 0.002))
    assert len(result.outcomes) == 50
    assert not any(o.failed for o in result.outcomes)
    assert all(o.latency < 1.0 for o in result.outcomes)


@pytest.mark.parametrize("server", [{"stall": 0.2}], indirect=True)
def test_stall_is_charged_from_due_time(server):
    with OpenLoopClient("127.0.0.1", server.port, 1) as client:
        result = client.run(plans(10, 0.01))
    for outcome in result.outcomes:
        # Written on schedule (pipelined behind the stalled request),
        # yet each waits for the stall to end.
        assert outcome.late < 0.05
        assert outcome.latency >= 0.2 - outcome.plan.due - 0.01
    stalled = result.outcomes[-1]
    assert stalled.done - stalled.sent > 0.05


def test_generator_lateness_is_recorded(server):
    stalled = []

    def stall_once():
        if not stalled:
            stalled.append(True)
            time.sleep(0.1)

    with OpenLoopClient("127.0.0.1", server.port, 1) as client:
        result = client.run(plans(20, 0.01), on_tick=stall_once)
    late = [o for o in result.outcomes if o.plan.due < 0.08]
    assert max(o.late for o in late) > 0.05
    assert all(o.latency >= o.late for o in result.outcomes)


@pytest.mark.parametrize(
    "server", [{"replies": {3: FAIL, 5: None}}], indirect=True
)
def test_errors_and_resets_fail_requests(server):
    with OpenLoopClient("127.0.0.1", server.port, 1) as client:
        result = client.run(plans(8, 0.02))
        assert result.reconnects == 1
    failed = [o for o in result.outcomes if o.failed]
    assert result.outcomes[2].status == 500
    assert result.outcomes[4].error == "connection closed"
    assert result.outcomes[2] in failed and result.outcomes[4] in failed
    assert all(not o.failed for o in result.outcomes[5:])


def test_backlog_counts_due_unanswered(server):
    with OpenLoopClient("127.0.0.1", server.port, 1) as client:
        result = client.run(plans(5, 0.01))
    first = result.outcomes[0]
    assert result.backlog_at(first.due - 1.0) == 0
    assert result.backlog_at(result.outcomes[-1].done + 1.0) == 0
