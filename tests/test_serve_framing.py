"""Framing of the async core's byte stream.

The framer accepts a body only behind a strict ``Content-Length``
(ASCII digits; a repeated header must agree) and refuses
``Transfer-Encoding`` outright, so a hostile head gets exactly one
error envelope and the connection closes before any of its bytes can
be read as a second request. The regression tests drive a real
server over a socket; the property test feeds
:meth:`HttpProtocol.data_received` random segmentations of pipelined
requests over a fake transport.
"""

from __future__ import annotations

import asyncio
import json
import socket

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.serve import AsyncReproServer
from repro.serve.aio import HttpProtocol

from .test_serve_async import AsyncHarness, _demo_service


def parse_responses(data: bytes) -> list[tuple[int, dict, bytes]]:
    """Split a byte stream into ``(status, headers, body)`` responses."""
    responses = []
    while data:
        head, sep, rest = data.partition(b"\r\n\r\n")
        assert sep, f"truncated response head: {data!r}"
        lines = head.split(b"\r\n")
        status = int(lines[0].split()[1])
        headers = {}
        for line in lines[1:]:
            key, _, value = line.partition(b": ")
            headers[key.decode().lower()] = value.decode()
        length = int(headers["content-length"])
        assert len(rest) >= length, "truncated response body"
        responses.append((status, headers, rest[:length]))
        data = rest[length:]
    return responses


def exchange(port: int, raw: bytes) -> list[tuple[int, dict, bytes]]:
    """Send raw bytes, read until the server closes, parse."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=5)
    try:
        sock.sendall(raw)
        received = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            received += chunk
    finally:
        sock.close()
    return parse_responses(received)


@pytest.fixture(scope="module")
def server():
    harness = AsyncHarness(_demo_service())
    try:
        yield harness
    finally:
        harness.close()


def _post_batch_head(*header_lines: str) -> bytes:
    lines = ["POST /batch HTTP/1.1", "Host: test", *header_lines]
    return ("\r\n".join(lines) + "\r\n\r\n").encode()


_BATCH_BODY = b'{"queries":["cute animals"]}'


class TestStrictContentLength:
    @pytest.mark.parametrize("value", ["-20", "+5", "1_7", " ", "5 5"])
    def test_malformed_value_gets_one_400(self, server, value):
        # The body (and then some) follows the head, as a client that
        # meant the value would send it; none of it may be framed.
        raw = _post_batch_head(f"Content-Length: {value}") + (
            _BATCH_BODY * 2
        )
        responses = exchange(server.port, raw)
        assert len(responses) == 1
        status, _, body = responses[0]
        assert status == 400
        payload = json.loads(body)
        assert payload["format"] == "serve_error"
        assert payload["error"] == "malformed Content-Length"

    def test_non_ascii_digits_get_one_400(self, server):
        raw = (
            b"POST /batch HTTP/1.1\r\nHost: test\r\n"
            + "Content-Length: ١٢".encode()
            + b"\r\n\r\n"
            + _BATCH_BODY
        )
        responses = exchange(server.port, raw)
        assert [status for status, _, _ in responses] == [400]

    def test_disagreeing_repeat_gets_one_400(self, server):
        raw = _post_batch_head(
            f"Content-Length: {len(_BATCH_BODY)}",
            "Content-Length: 3",
        ) + _BATCH_BODY
        responses = exchange(server.port, raw)
        assert len(responses) == 1
        assert responses[0][0] == 400
        assert (
            json.loads(responses[0][2])["error"]
            == "malformed Content-Length"
        )

    def test_agreeing_repeat_is_served(self, server):
        raw = _post_batch_head(
            f"Content-Length: {len(_BATCH_BODY)}",
            f"content-length: {len(_BATCH_BODY)}",
            "Connection: close",
        ) + _BATCH_BODY
        responses = exchange(server.port, raw)
        assert [status for status, _, _ in responses] == [200]


class TestTransferEncoding:
    def test_chunked_post_gets_one_501(self, server):
        raw = _post_batch_head("Transfer-Encoding: chunked") + (
            b"%x\r\n" % len(_BATCH_BODY) + _BATCH_BODY + b"\r\n0\r\n\r\n"
        )
        responses = exchange(server.port, raw)
        assert len(responses) == 1
        status, headers, body = responses[0]
        assert status == 501
        assert headers["connection"] == "close"
        payload = json.loads(body)
        assert payload["format"] == "serve_error"
        assert payload["code"] == "not_implemented"
        assert "Transfer-Encoding" in payload["error"]

    def test_transfer_encoding_wins_over_content_length(self, server):
        raw = _post_batch_head(
            f"Content-Length: {len(_BATCH_BODY)}",
            "Transfer-Encoding: identity",
        ) + _BATCH_BODY
        responses = exchange(server.port, raw)
        assert [status for status, _, _ in responses] == [501]


# ---------------------------------------------------------------------------
# Property: random segmentations of pipelined requests
# ---------------------------------------------------------------------------

class FakeTransport:
    """The slice of ``asyncio.Transport`` the protocol touches."""

    def __init__(self) -> None:
        self.data = b""
        self.closing = False

    def write(self, data: bytes) -> None:
        assert not self.closing, "write after close"
        self.data += data

    def close(self) -> None:
        self.closing = True

    def is_closing(self) -> bool:
        return self.closing

    def get_extra_info(self, name, default=None):
        return default

    def pause_reading(self) -> None:
        pass

    def resume_reading(self) -> None:
        pass


def _valid_request(index: int, kind: int) -> bytes:
    """One well-formed request tagged ``X-Request-Id: req-<index>``."""
    request_id = f"X-Request-Id: req-{index}"
    if kind == 0:
        return (
            "GET /query?q=cute+animals HTTP/1.1\r\nHost: t\r\n"
            f"{request_id}\r\n\r\n"
        ).encode()
    if kind == 1:
        return (
            "GET /healthz HTTP/1.1\r\nHost: t\r\n"
            f"{request_id}\r\n\r\n"
        ).encode()
    body = json.dumps({"queries": ["calm cities"] * (index % 3)})
    lengths = f"Content-Length: {len(body)}\r\n"
    if kind == 3:
        lengths *= 2  # a repeated header that agrees is fine
    return (
        f"POST /batch HTTP/1.1\r\nHost: t\r\n{request_id}\r\n"
        f"{lengths}\r\n{body}"
    ).encode()


#: Heads no request can be framed from, each followed by bytes a
#: desynchronised framer would read as a request of their own.
_SMUGGLED = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
HOSTILE = [
    _post_batch_head("Content-Length: -20") + _SMUGGLED,
    _post_batch_head("Content-Length: +5") + _SMUGGLED,
    _post_batch_head("Content-Length: 1_7") + _SMUGGLED,
    _post_batch_head("Content-Length: 2", "Content-Length: 3")
    + _SMUGGLED,
    _post_batch_head("Transfer-Encoding: chunked")
    + b"2\r\n{}\r\n0\r\n\r\n"
    + _SMUGGLED,
    _post_batch_head("Content-Length: 99999999") + _SMUGGLED,
    b"NOT-HTTP\r\n\r\n" + _SMUGGLED,
]


def feed(segments: list[bytes]) -> FakeTransport:
    """Deliver segments to one protocol as the event loop would."""

    async def main() -> FakeTransport:
        server = AsyncReproServer(_demo_service())
        server.loop = asyncio.get_running_loop()
        protocol = HttpProtocol(server)
        transport = FakeTransport()
        protocol.connection_made(transport)
        for segment in segments:
            if transport.closing:
                break  # a closed transport delivers nothing more
            protocol.data_received(segment)
            await asyncio.sleep(0)
        for _ in range(1000):
            if protocol.task is None or protocol.task.done():
                break
            await asyncio.sleep(0.001)
        return transport

    return asyncio.run(main())


@seed(20151013)
@settings(
    max_examples=60,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    kinds=st.lists(st.integers(0, 3), max_size=6),
    hostile=st.none() | st.sampled_from(range(len(HOSTILE))),
    cuts=st.lists(st.integers(0, 10_000), max_size=12),
)
def test_one_response_per_framed_request(kinds, hostile, cuts):
    stream = b"".join(
        _valid_request(index, kind) for index, kind in enumerate(kinds)
    )
    if hostile is not None:
        stream += HOSTILE[hostile]
    points = sorted({cut % (len(stream) + 1) for cut in cuts})
    bounds = [0, *points, len(stream)]
    segments = [
        stream[start:end]
        for start, end in zip(bounds, bounds[1:])
        if end > start
    ]

    transport = feed(segments)
    responses = parse_responses(transport.data)

    expected = len(kinds) + (hostile is not None)
    assert len(responses) == expected
    for index, (status, headers, _) in enumerate(responses[: len(kinds)]):
        assert status == 200
        assert headers["x-request-id"] == f"req-{index}"
    errors = [status for status, _, _ in responses if status >= 400]
    if hostile is None:
        assert errors == []
        assert not transport.closing
    else:
        assert len(errors) == 1
        assert transport.closing
        assert json.loads(responses[-1][2])["format"] == "serve_error"
