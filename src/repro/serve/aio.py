"""Asyncio serving core: the event-loop front end of ``repro serve``.

The threaded :class:`~repro.serve.server.ReproServer` spends most of
each request on thread handoff, socket teardown, and lock traffic —
``bench_serving`` measured ~1.16k req/s against an index that answers
~9k q/s. This module replaces thread-per-connection with one
:class:`asyncio.Protocol` per *connection*, keep-alive reuse, and an
inline fast path that answers a cached query without ever creating a
task, so the hot path is: parse bytes → lock-free admission
(:class:`~repro.serve.admission.AsyncAdmissionController`) → service
lookup → one ``transport.write``.

Contracts are inherited, not reimplemented: requests are routed into
the same :class:`~repro.serve.server.OpinionService` engine the
threaded server uses, so the v2 JSON schema, snapshot-swap
reload/rollback with validation, degraded-mode stamping, per-request
deadlines, chaos fault hooks, access-log lines, exemplar histograms,
and SLO burn gauges are byte-identical across both cores. The only
new moving parts are:

* **Serialized-body cache** — ``json.dumps`` dominates a cached hit
  (~30µs vs ~2µs for the lookup), so rendered response *bytes* are
  LRU-cached keyed by the identity of the service's cached response
  dict. The service cache already owns correctness (generation
  purges, degraded stamping happens on copies), so byte reuse is safe
  exactly when the service returned its shared cached object.
* **Awaiting without blocking** — requests that must wait (a full
  admission queue) or that run blocking work (``/admin/reload``,
  ``/admin/ingest`` file IO) move to a task with ``pause_reading`` on
  the transport; everything else completes inline.
* **Multi-worker hooks** — with a :class:`~repro.serve.workers.WorkerRuntime`
  attached, ``/metrics`` merges every worker's pickled registry
  snapshot, and successful reload/ingest swaps bump the shared epoch
  and nudge the supervisor to SIGHUP the sibling workers (see
  :mod:`repro.serve.workers`).

``repro serve`` runs this core by default; ``--legacy-threaded``
keeps the old server until the migration completes.
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import socket
import sys
import time
from collections import OrderedDict
from typing import Any, Callable
from urllib.parse import parse_qs

from .admission import (
    AdmissionController,
    AdmissionDecision,
    AsyncAdmissionController,
    Deadline,
    DeadlineExceeded,
)
from .schema import error_response
from .server import (
    DEFAULT_TOP,
    MAX_BODY_BYTES,
    OpinionService,
    ServeError,
    ServeHandler,
    _REQUEST_ID_RE,
    documents_from_payload,
    new_request_id,
)

#: Paths that bypass admission control — same tuple as the threaded
#: handler, so saturation can never gate health, telemetry, or the
#: operator's way out of an incident.
UNGATED = ServeHandler.UNGATED

#: Admin routes whose handlers do blocking file IO; they run in a
#: worker thread so the event loop keeps answering queries during a
#: reload or an ingest refit.
_THREAD_ROUTES = ("/admin/reload", "/admin/ingest")

#: Request heads larger than this are rejected outright (no
#: legitimate client sends kilobytes of headers to this API).
MAX_HEADER_BYTES = 64 * 1024

#: Rendered-body LRU entries (each pins its response dict alive, so
#: ids can never collide while an entry is live).
DEFAULT_BODY_CACHE = 4096

_CRLF = b"\r\n"
_HEAD_END = b"\r\n\r\n"
_SERVER_HDR = b"Server: repro-serve/2"
_CT_JSON = b"Content-Type: application/json"
_CT_TEXT = b"Content-Type: text/plain; version=0.0.4"

_REASONS = {
    200: b"OK",
    400: b"Bad Request",
    404: b"Not Found",
    409: b"Conflict",
    413: b"Request Entity Too Large",
    429: b"Too Many Requests",
    500: b"Internal Server Error",
    501: b"Not Implemented",
    503: b"Service Unavailable",
}
_STATUS_LINES = {
    status: b"HTTP/1.1 %d %s" % (status, reason)
    for status, reason in _REASONS.items()
}


def _status_line(status: int) -> bytes:
    line = _STATUS_LINES.get(status)
    if line is None:
        line = b"HTTP/1.1 %d Status" % status
        _STATUS_LINES[status] = line
    return line


def async_admission_from(
    sync: AdmissionController,
) -> AsyncAdmissionController:
    """An event-loop controller with a sync controller's config."""
    return AsyncAdmissionController(
        sync.max_inflight,
        queue_depth=sync.queue_depth,
        queue_timeout=sync.queue_timeout,
        client_rate=sync.client_rate,
        client_burst=sync.client_burst,
        max_clients=sync.max_clients,
    )


class _Request:
    """One parsed request in flight (cheap per-request state)."""

    __slots__ = (
        "method",
        "path",
        "query",
        "body",
        "request_id",
        "client",
        "started",
        "batch_items",
        "close_after",
    )

    def __init__(
        self,
        method: str,
        path: str,
        query: str,
        body: bytes,
        request_id: str,
        client: str,
        started: float,
        close_after: bool,
    ) -> None:
        self.method = method
        self.path = path
        self.query = query
        self.body = body
        self.request_id = request_id
        self.client = client
        self.started = started
        self.batch_items: int | None = None
        self.close_after = close_after


class HttpProtocol(asyncio.Protocol):
    """One keep-alive HTTP/1.1 connection on the event loop.

    Parsing is hand-rolled over a bytes buffer: requests this API
    receives are a few hundred bytes with a handful of headers, and
    ``http.server``'s file-object machinery is most of what made the
    threaded core slow. A request whose handling never awaits is
    answered inline from ``data_received`` — no task, no scheduling
    round-trip; requests that must wait (admission queue, admin file
    IO) move to a task while the transport's reading is paused, so
    pipelined bytes sit in the kernel until the connection is free.
    """

    __slots__ = (
        "server",
        "service",
        "transport",
        "buf",
        "peer_host",
        "closed",
        "busy",
        "task",
    )

    def __init__(self, server: "AsyncReproServer") -> None:
        self.server = server
        self.service = server.service
        self.transport: asyncio.Transport | None = None
        self.buf = b""
        self.peer_host = ""
        self.closed = False
        self.busy = False
        self.task: asyncio.Task | None = None

    # -- connection lifecycle ------------------------------------------
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        sock = transport.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                )
            except OSError:  # pragma: no cover - platform quirk
                pass
        peer = transport.get_extra_info("peername")
        self.peer_host = (
            peer[0] if isinstance(peer, tuple) else "unknown"
        )
        self.server.connections.add(self)

    def connection_lost(self, exc: Exception | None) -> None:
        self.closed = True
        self.server.connections.discard(self)
        if self.task is not None and not self.task.done():
            self.task.cancel()

    # -- byte stream ----------------------------------------------------
    def data_received(self, data: bytes) -> None:
        self.buf = self.buf + data if self.buf else data
        if not self.busy:
            self._pump()

    def _pump(self) -> None:
        try:
            self._pump_inner()
        except (BrokenPipeError, ConnectionResetError):
            self._abort()
        except Exception:  # pragma: no cover - defensive
            self._abort()
            raise

    def _pump_inner(self) -> None:
        """Parse and dispatch framed requests until the buffer runs
        dry or a request moves to a task (which resumes the pump)."""
        while not self.closed:
            head_end = self.buf.find(_HEAD_END)
            if head_end < 0:
                if len(self.buf) > MAX_HEADER_BYTES:
                    self._protocol_error(
                        400, "request head too large"
                    )
                return
            head = self.buf[:head_end]
            line_end = head.find(_CRLF)
            request_line = head if line_end < 0 else head[:line_end]
            parts = request_line.split()
            if len(parts) != 3:
                self._protocol_error(400, "malformed request line")
                return
            headers: dict[bytes, bytes] = {}
            conflicting = False
            if line_end >= 0:
                for raw in head[line_end + 2:].split(_CRLF):
                    key, sep, value = raw.partition(b":")
                    if sep:
                        name = key.strip().lower()
                        value = value.strip()
                        if (
                            name == b"content-length"
                            and headers.get(name, value) != value
                        ):
                            conflicting = True
                        headers[name] = value
            if b"transfer-encoding" in headers:
                # Only Content-Length framing is implemented; a
                # chunked body would be read as the next request.
                self._refuse_framing(
                    parts, headers, 501, "not_implemented",
                    "Transfer-Encoding is not supported; "
                    "send a Content-Length body",
                )
                return
            length = 0
            raw_length = headers.get(b"content-length")
            if raw_length is not None:
                # ASCII digits only: int() would also take a sign
                # and underscores, and a negative length would rewind
                # the buffer into the head. int() still refuses more
                # digits than its conversion limit.
                try:
                    if conflicting or not raw_length.isdigit():
                        raise ValueError(raw_length)
                    length = int(raw_length)
                except ValueError:
                    self._protocol_error(
                        400, "malformed Content-Length"
                    )
                    return
            if length > MAX_BODY_BYTES:
                # Mirror the threaded 413 envelope; the unread body
                # cannot be skipped safely, so the connection closes.
                self._refuse_framing(
                    parts, headers, 413, "bad_request",
                    f"body of {length} bytes exceeds "
                    f"{MAX_BODY_BYTES}",
                )
                return
            body_start = head_end + 4
            if len(self.buf) - body_start < length:
                return  # body still in flight
            body = self.buf[body_start:body_start + length]
            self.buf = self.buf[body_start + length:]
            if not self._dispatch(parts, headers, body):
                return  # a task owns the connection now

    # -- request dispatch ----------------------------------------------
    def _dispatch(
        self,
        parts: list[bytes],
        headers: dict[bytes, bytes],
        body: bytes,
    ) -> bool:
        """Handle one framed request; False when a task continues it."""
        started = time.perf_counter()
        try:
            method = parts[0].decode("ascii")
            target = parts[1].decode("ascii")
        except UnicodeDecodeError:
            self._protocol_error(400, "malformed request line")
            return False
        q = target.find("?")
        if q < 0:
            path, query = target, ""
        else:
            path, query = target[:q], target[q + 1:]
        raw_id = headers.get(b"x-request-id")
        request_id = ""
        if raw_id:
            supplied = raw_id.decode("latin-1")
            if _REQUEST_ID_RE.match(supplied):
                request_id = supplied
        if not request_id:
            request_id = new_request_id()
        raw_client = headers.get(b"x-client-id")
        client = (
            raw_client.decode("latin-1")
            if raw_client
            else self.peer_host
        )
        close_after = (
            headers.get(b"connection", b"").lower() == b"close"
            or parts[2] == b"HTTP/1.0"
        )
        ctx = _Request(
            method, path, query, body, request_id, client,
            started, close_after,
        )
        if method not in ("GET", "POST"):
            # The threaded stdlib core answers 501 for unknown verbs;
            # here it is the standard envelope.
            self._send_error(
                ctx, 501, "not_implemented",
                f"unsupported method {method!r}",
            )
            self._observe(ctx, 501, None, "not_implemented")
            return True
        service = self.service
        gated = path not in UNGATED
        if gated:
            decision = self.server.admission.poll(client)
            if decision is None:
                self._start_task(self._queued(ctx))
                return False
            if not decision.admitted:
                self._reject(ctx, decision)
                return True
        elif ctx.method == "POST" and path in _THREAD_ROUTES:
            self._start_task(self._admin(ctx))
            return False
        if gated and service.faults is not None:
            # Chaos mode: injected sleeps/disconnects must not stall
            # the event loop (they would serialise every connection
            # and defer signal delivery), so admitted requests run on
            # worker threads, as the threaded core did.
            self._start_task(self._offloaded(ctx))
            return False
        self._finish(ctx, gated)
        return True

    async def _offloaded(self, ctx: _Request) -> None:
        """Continuation for an admitted request under fault injection:
        the whole state machine runs on a worker thread."""
        try:
            await asyncio.to_thread(self._finish, ctx, True)
        finally:
            if not self.closed:
                self._resume()

    def _start_task(self, coro) -> None:
        self.busy = True
        if self.transport is not None:
            self.transport.pause_reading()
        self.task = self.server.loop.create_task(coro)

    def _resume(self) -> None:
        self.busy = False
        self.task = None
        if not self.closed and self.transport is not None:
            self.transport.resume_reading()
            self._pump()

    def _reject(
        self, ctx: _Request, decision: AdmissionDecision
    ) -> None:
        """Answer and account an admission rejection."""
        if decision.status == 429:
            self.service.registry.inc(
                "repro_serve_rate_limited_total"
            )
        status: int = decision.status
        code: str | None = decision.code
        try:
            self._send_decision(ctx, decision)
        except (BrokenPipeError, ConnectionResetError):
            status, code = 499, "client_disconnect"
            self._abort()
        self._observe(ctx, status, None, code)

    async def _queued(self, ctx: _Request) -> None:
        """Continuation for a request parked in the admission queue."""
        try:
            decision = await self.server.admission.wait_for_slot()
            if not decision.admitted:
                self._reject(ctx, decision)
                return
            if self.service.faults is not None:
                await asyncio.to_thread(self._finish, ctx, True)
            else:
                self._finish(ctx, gated=True)
        except asyncio.CancelledError:
            # Connection lost while queued; nothing to answer.
            raise
        finally:
            if not self.closed:
                self._resume()

    async def _admin(self, ctx: _Request) -> None:
        """Continuation for /admin/reload and /admin/ingest: blocking
        artefact IO runs in a thread so queries keep flowing."""
        service = self.service
        status = 500
        code: str | None = None
        try:
            payload = self._json_body(ctx)
            if ctx.path == "/admin/reload":
                path = payload.get("path")
                if path is not None and not isinstance(path, str):
                    raise ServeError("reload path must be a string")
                summary = await asyncio.to_thread(
                    self.server.run_reload, path
                )
            else:
                documents = documents_from_payload(payload)
                ctx.batch_items = len(documents)
                summary = await asyncio.to_thread(
                    self.server.run_ingest,
                    documents,
                    ctx.request_id or None,
                )
            status = 200
            self._send_json(ctx, 200, summary)
        except asyncio.CancelledError:
            raise
        except ServeError as error:
            status = error.status
            code = error.code
            self._send_error(
                ctx, status, error.code, str(error),
                retry_after=error.retry_after,
            )
        except (BrokenPipeError, ConnectionResetError):
            status = 499
            code = "client_disconnect"
            self._abort()
        except Exception as error:  # pragma: no cover - defensive
            status = 500
            code = "internal"
            try:
                self._send_error(
                    ctx, 500, "internal",
                    f"{type(error).__name__}: {error}",
                )
            except OSError:
                pass
        finally:
            self._observe(ctx, status, None, code)
            if not self.closed:
                self._resume()

    def _finish(self, ctx: _Request, gated: bool) -> None:
        """The request state machine — a faithful port of the threaded
        handler's ``_handle`` body (statuses, codes, metrics, and the
        observe-in-finally ordering are contract)."""
        service = self.service
        status = 500
        cached: bool | None = None
        code: str | None = None
        deadline = (
            Deadline(service.request_deadline) if gated else None
        )
        try:
            status, cached = self._route(ctx, deadline)
        except DeadlineExceeded as error:
            status = 503
            code = "deadline_exceeded"
            service.registry.inc(
                "repro_serve_deadline_exceeded_total"
            )
            self._send_error(
                ctx, status, code, str(error), retry_after=1.0
            )
        except ServeError as error:
            status = error.status
            code = error.code
            self._send_error(
                ctx, status, error.code, str(error),
                retry_after=error.retry_after,
            )
        except (BrokenPipeError, ConnectionResetError):
            status = 499  # client went away (or chaos said it did)
            code = "client_disconnect"
            self._abort()
        except Exception as error:  # pragma: no cover - defensive
            status = 500
            code = "internal"
            try:
                self._send_error(
                    ctx, 500, "internal",
                    f"{type(error).__name__}: {error}",
                )
            except OSError:
                pass
        finally:
            if gated:
                self.server.admission.release()
            self._observe(ctx, status, cached, code)

    # -- routing --------------------------------------------------------
    def _route(
        self, ctx: _Request, deadline: Deadline | None
    ) -> tuple[int, bool | None]:
        method, path = ctx.method, ctx.path
        service = self.service
        if method == "GET" and path == "/query":
            return self._get_query(ctx, deadline)
        if method == "GET" and path == "/explain":
            return self._get_explain(ctx, deadline)
        if method == "GET" and path == "/healthz":
            self._send_json(ctx, 200, service.healthz())
            return 200, None
        if method == "GET" and path == "/metrics":
            self._send_text(200, ctx, self.server.render_metrics())
            return 200, None
        if method == "POST" and path == "/batch":
            return self._post_batch(ctx, deadline)
        if method == "POST" and path == "/admin/rollback":
            self._send_json(ctx, 200, service.rollback())
            return 200, None
        raise ServeError(
            f"no route for {method} {path}", status=404,
            code="not_found",
        )

    def _params(self, ctx: _Request) -> dict[str, str]:
        if not ctx.query:
            return {}
        return {
            key: values[-1]
            for key, values in parse_qs(ctx.query).items()
        }

    def _get_query(
        self, ctx: _Request, deadline: Deadline | None
    ) -> tuple[int, bool]:
        params = self._params(ctx)
        top = params.get("top", DEFAULT_TOP)
        service = self.service
        if "q" in params:
            response, cached = service.ask(
                params["q"], top=top, deadline=deadline
            )
        elif "property" in params and "type" in params:
            try:
                min_probability = float(
                    params.get("min_probability", 0.0)
                )
            except ValueError:
                raise ServeError(
                    "min_probability must be a number"
                )
            response, cached = service.listing(
                params["property"],
                params["type"],
                negative=params.get("negative", "")
                in ("1", "true", "yes"),
                min_probability=min_probability,
                top=top,
                deadline=deadline,
            )
        else:
            raise ServeError(
                "need either ?q=<free text> or "
                "?property=<adj>&type=<entity type>"
            )
        service.fault_response("/query")
        self._send_response(ctx, response, cached)
        return 200, cached

    def _get_explain(
        self, ctx: _Request, deadline: Deadline | None
    ) -> tuple[int, bool]:
        params = self._params(ctx)
        entity = params.get("entity")
        prop = params.get("property")
        if not entity or not prop:
            raise ServeError(
                "need entity=<id> and property=<adjective> "
                "(optional type=<entity type>)"
            )
        response, cached = self.service.explain(
            entity,
            prop,
            entity_type=params.get("type"),
            deadline=deadline,
        )
        self.service.fault_response("/explain")
        self._send_response(ctx, response, cached)
        return 200, cached

    def _post_batch(
        self, ctx: _Request, deadline: Deadline | None
    ) -> tuple[int, None]:
        payload = self._json_body(ctx)
        queries = payload.get("queries")
        if not isinstance(queries, list) or not all(
            isinstance(q, str) for q in queries
        ):
            raise ServeError(
                "body must be {\"queries\": [<string>, ...]}"
            )
        ctx.batch_items = len(queries)
        response = self.service.batch(
            queries,
            top=payload.get("top", DEFAULT_TOP),
            deadline=deadline,
            request_id=ctx.request_id or None,
        )
        self.service.fault_response("/batch")
        self._send_json(ctx, 200, response)
        return 200, None

    def _json_body(self, ctx: _Request) -> dict[str, Any]:
        if not ctx.body:
            return {}
        try:
            payload = json.loads(ctx.body)
        except json.JSONDecodeError as error:
            raise ServeError(f"malformed JSON body: {error}")
        if not isinstance(payload, dict):
            raise ServeError("JSON body must be an object")
        return payload

    # -- responses ------------------------------------------------------
    def _send_response(
        self, ctx: _Request, response: dict[str, Any], cached: bool
    ) -> None:
        """Send a query/listing/explain 200, reusing rendered bytes.

        The service returns its *shared* cached dict on a healthy hit
        (degraded stamping copies, so a degraded response is never the
        shared object); bytes keyed by that object's identity are
        exact for as long as the entry pins the dict alive."""
        body: bytes | None = None
        cache = self.server.body_cache
        if not self.service.degraded and self._on_loop():
            key = id(response)
            entry = cache.get(key)
            if entry is not None and entry[0] is response:
                cache.move_to_end(key)
                body = entry[1]
            else:
                body = json.dumps(
                    response, sort_keys=True
                ).encode()
                cache[key] = (response, body)
                if len(cache) > self.server.body_cache_size:
                    cache.popitem(last=False)
        if body is None:
            body = json.dumps(response, sort_keys=True).encode()
        self._write(ctx, 200, _CT_JSON, body, cached=cached)

    def _send_json(
        self,
        ctx: _Request,
        status: int,
        payload: dict[str, Any],
        *,
        cached: bool | None = None,
        retry_after: float | None = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self._write(
            ctx, status, _CT_JSON, body,
            cached=cached, retry_after=retry_after,
        )

    def _send_text(
        self, status: int, ctx: _Request, text: str
    ) -> None:
        self._write(ctx, status, _CT_TEXT, text.encode())

    def _send_error(
        self,
        ctx: _Request,
        status: int,
        code: str,
        message: str,
        *,
        retry_after: float | None = None,
    ) -> None:
        self._send_json(
            ctx,
            status,
            error_response(
                code,
                message,
                retry_after=retry_after,
                degraded=self.service.degraded,
                request_id=ctx.request_id or None,
            ),
            retry_after=retry_after,
        )

    def _send_decision(
        self, ctx: _Request, decision: AdmissionDecision
    ) -> None:
        self._send_error(
            ctx,
            decision.status,
            decision.code,
            decision.message,
            retry_after=decision.retry_after,
        )

    def _write(
        self,
        ctx: _Request,
        status: int,
        content_type: bytes,
        body: bytes,
        *,
        cached: bool | None = None,
        retry_after: float | None = None,
    ) -> None:
        transport = self.transport
        if (
            self.closed
            or transport is None
            or transport.is_closing()
        ):
            raise BrokenPipeError("connection already closed")
        parts = [
            _status_line(status),
            _SERVER_HDR,
            content_type,
            b"Content-Length: %d" % len(body),
        ]
        if ctx.request_id:
            parts.append(
                b"X-Request-Id: " + ctx.request_id.encode("ascii")
            )
        if cached is not None:
            parts.append(
                b"X-Cache: hit" if cached else b"X-Cache: miss"
            )
        if retry_after is None and status in (429, 503):
            retry_after = 1.0
        if retry_after is not None:
            parts.append(
                b"Retry-After: %d" % max(1, math.ceil(retry_after))
            )
        if ctx.close_after:
            parts.append(b"Connection: close")
        data = _CRLF.join(parts) + _HEAD_END + body
        if self._on_loop():
            transport.write(data)
            if ctx.close_after:
                self.closed = True
                transport.close()
        else:
            # Offloaded (chaos-mode) handlers run on worker threads;
            # asyncio transports are loop-affine, so hand the fully
            # rendered response to the loop. The connection is paused
            # while its task runs, so ordering is preserved.
            if ctx.close_after:
                self.closed = True
            self.server.loop.call_soon_threadsafe(
                self._write_from_thread, transport, data,
                ctx.close_after,
            )

    def _on_loop(self) -> bool:
        try:
            return asyncio.get_running_loop() is self.server.loop
        except RuntimeError:
            return False

    @staticmethod
    def _write_from_thread(
        transport: asyncio.Transport, data: bytes, close: bool
    ) -> None:
        if transport.is_closing():
            return
        transport.write(data)
        if close:
            transport.close()

    def _abort(self) -> None:
        """Close after a mid-response disconnect (499): a FIN, not an
        RST, so earlier pipelined responses still flush."""
        self.closed = True
        transport = self.transport
        if transport is None:
            return
        if self._on_loop():
            transport.close()
        else:
            self.server.loop.call_soon_threadsafe(transport.close)

    def _protocol_error(self, status: int, message: str) -> None:
        """Unparseable framing: answer an envelope and close (the
        byte stream cannot be trusted for another request)."""
        ctx = _Request(
            "", "", "", b"", new_request_id(), self.peer_host,
            time.perf_counter(), True,
        )
        try:
            self._send_error(ctx, status, "bad_request", message)
        except (BrokenPipeError, OSError):
            pass
        self.closed = True
        if self.transport is not None:
            self.transport.close()

    def _refuse_framing(
        self,
        parts: list[bytes],
        headers: dict[bytes, bytes],
        status: int,
        code: str,
        message: str,
    ) -> None:
        """Answer a request whose body cannot be framed, then close:
        the unread body cannot be skipped safely. The 413 for an
        oversized body keeps the threaded ``_read_json_body`` message.
        """
        raw_id = headers.get(b"x-request-id", b"")
        supplied = raw_id.decode("latin-1") if raw_id else ""
        request_id = (
            supplied
            if supplied and _REQUEST_ID_RE.match(supplied)
            else new_request_id()
        )
        ctx = _Request(
            parts[0].decode("ascii", "replace"),
            "", "", b"", request_id, self.peer_host,
            time.perf_counter(), True,
        )
        try:
            self._send_error(ctx, status, code, message)
        except (BrokenPipeError, OSError):
            pass
        self.closed = True
        if self.transport is not None:
            self.transport.close()

    # -- accounting -----------------------------------------------------
    def _observe(
        self,
        ctx: _Request,
        status: int,
        cached: bool | None,
        code: str | None,
    ) -> None:
        self.service.observe_request(
            method=ctx.method,
            path=ctx.path,
            status=status,
            seconds=time.perf_counter() - ctx.started,
            cached=cached,
            request_id=ctx.request_id,
            client=ctx.client,
            code=code,
            items=ctx.batch_items,
        )


class AsyncReproServer:
    """The asyncio server: one listener, one service, N connections.

    Owns the loop-side plumbing the protocol instances share: the
    lock-free admission controller, the rendered-body cache, the
    reload/ingest bridges (with multi-worker epoch hooks), and the
    merged ``/metrics`` view. Start with :meth:`start`; stop with
    :meth:`close_listener` + :meth:`wait_connections_closed`.
    """

    def __init__(
        self,
        service: OpinionService,
        *,
        runtime: Any | None = None,
        ingest_factory: Callable[[], Any] | None = None,
        body_cache_size: int = DEFAULT_BODY_CACHE,
    ) -> None:
        self.service = service
        if isinstance(service.admission, AsyncAdmissionController):
            self.admission = service.admission
        else:
            # Adopt the configured limits; the service delegates
            # admit/stats/drain to this controller from now on.
            self.admission = async_admission_from(service.admission)
            service.admission = self.admission
        self.runtime = runtime
        self.ingest_factory = ingest_factory
        self.body_cache: OrderedDict[int, tuple[dict, bytes]] = (
            OrderedDict()
        )
        self.body_cache_size = int(body_cache_size)
        self.connections: set[HttpProtocol] = set()
        self.loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self.port = 0

    # -- lifecycle ------------------------------------------------------
    async def start(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        sock: socket.socket | None = None,
    ) -> None:
        self.loop = asyncio.get_running_loop()
        if sock is not None:
            self._server = await self.loop.create_server(
                lambda: HttpProtocol(self), sock=sock
            )
        else:
            self._server = await self.loop.create_server(
                lambda: HttpProtocol(self), host, port
            )
        self.port = self._server.sockets[0].getsockname()[1]

    def close_listener(self) -> None:
        if self._server is not None:
            self._server.close()

    async def wait_closed(self) -> None:
        if self._server is not None:
            await self._server.wait_closed()

    def close_connections(self) -> None:
        """Drop every open connection (after the drain finished)."""
        for protocol in list(self.connections):
            protocol.closed = True
            if protocol.transport is not None:
                protocol.transport.close()

    # -- admin bridges (run inside worker threads) ---------------------
    def run_reload(self, path: str | None) -> dict[str, Any]:
        """``/admin/reload`` body: the threaded route's defensive
        wrapper plus the multi-worker epoch bump on success."""
        try:
            summary = self.service.reload(path)
        except ServeError:
            raise
        except Exception as error:  # pragma: no cover - defensive
            raise ServeError(
                f"reload failed, previous table still live: {error}",
                status=500,
                code="reload_failed",
            ) from None
        self._after_swap("reload", path)
        return summary

    def run_ingest(
        self, documents: list, request_id: str | None
    ) -> dict[str, Any]:
        """``/admin/ingest`` body. In multi-worker mode the whole
        cycle serialises on a cross-process journal lock, and a
        pipeline whose persisted state moved underneath (a sibling
        ingested first) is rebuilt from disk before appending — the
        journal's ``DuplicateOffsetError`` guard means a stale writer
        would otherwise corrupt nothing but fail loudly."""
        service = self.service
        if self.runtime is None or service.ingest_pipeline is None:
            summary = service.ingest(documents, request_id)
            self._after_swap("ingest", None)
            return summary
        with self.runtime.ingest_lock():
            self._resync_pipeline()
            summary = service.ingest(documents, request_id)
        self._after_swap("ingest", None)
        return summary

    def _resync_pipeline(self) -> None:
        from ..ingest.state import load_state

        pipeline = self.service.ingest_pipeline
        disk = load_state(pipeline.journal.directory)
        if (
            disk.applied_offset != pipeline.state.applied_offset
            or disk.generation != pipeline.state.generation
        ):
            if self.ingest_factory is None:  # pragma: no cover
                raise ServeError(
                    "ingest state changed on disk and no factory "
                    "is attached to rebuild the pipeline",
                    status=500,
                    code="ingest_failed",
                )
            self.service.ingest_pipeline = self.ingest_factory()

    def _after_swap(self, kind: str, path: str | None) -> None:
        """A successful local swap in multi-worker mode: publish the
        new epoch and ask the supervisor to SIGHUP the siblings."""
        if self.runtime is None:
            return
        self.runtime.publish_epoch(kind, path)
        self.runtime.notify_parent()

    # -- metrics --------------------------------------------------------
    def render_metrics(self) -> str:
        """The ``/metrics`` exposition; with a worker runtime, the
        merged view across every live worker's latest snapshot."""
        service = self.service
        service.publish_slo_gauges()
        if self.runtime is None:
            return service.registry.exposition()
        from ..obs.metrics import MetricsRegistry

        self.runtime.dump_registry(service.registry)
        merged = MetricsRegistry()
        for registry in self.runtime.peer_registries():
            merged.merge(registry)
        merged.merge(service.registry)
        merged.set_gauge(
            "repro_serve_workers", self.runtime.worker_count
        )
        return merged.exposition()


async def serve_async(
    service: OpinionService,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    sock: socket.socket | None = None,
    drain_timeout: float = 5.0,
    runtime: Any | None = None,
    ingest_factory: Callable[[], Any] | None = None,
    quiet: bool = False,
    on_started: Callable[[int], None] | None = None,
) -> int:
    """Run the async core until SIGTERM/SIGINT, with graceful drain.

    The event-loop twin of ``build_server`` +
    ``install_signal_handlers`` + ``serve_forever``: SIGHUP hot-swaps
    (via the shared epoch file when a worker ``runtime`` is attached,
    so sibling workers converge on the same generation), SIGTERM
    flips the service to draining, stops the listener, and waits up
    to ``drain_timeout`` for in-flight requests. ``on_started``
    receives the bound port (authoritative for ``--port 0``).
    """
    server = AsyncReproServer(
        service,
        runtime=runtime,
        ingest_factory=ingest_factory,
    )
    await server.start(host, port, sock=sock)
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    service.registry.set_gauge(
        "repro_serve_workers",
        runtime.worker_count if runtime is not None else 1,
    )

    def _terminate() -> None:
        if not service.admission.draining:
            service.begin_drain()
            if not quiet:
                print(
                    "repro serve: draining (finishing in-flight "
                    "requests)",
                    file=sys.stderr,
                    flush=True,
                )
        stop.set()

    async def _reload_from_signal() -> None:
        path: str | None = None
        if runtime is not None:
            info = runtime.read_epoch()
            if info is None or info.get(
                "epoch", 0
            ) <= runtime.last_epoch:
                # Our own broadcast coming back (this worker already
                # swapped before notifying the supervisor).
                return
            runtime.last_epoch = info["epoch"]
            path = info.get("path")
        try:
            summary = await asyncio.to_thread(service.reload, path)
            print(
                f"repro serve: reloaded {summary['source']} "
                f"(generation {summary['generation']}, "
                f"{summary['opinions']} opinions)",
                file=sys.stderr,
                flush=True,
            )
        except Exception as error:
            print(
                "repro serve: reload failed, previous table "
                f"still live: {error}",
                file=sys.stderr,
                flush=True,
            )

    def _hup() -> None:
        loop.create_task(_reload_from_signal())

    try:
        loop.add_signal_handler(signal.SIGTERM, _terminate)
        loop.add_signal_handler(signal.SIGINT, _terminate)
        if hasattr(signal, "SIGHUP"):
            loop.add_signal_handler(signal.SIGHUP, _hup)
    except (NotImplementedError, RuntimeError, ValueError):
        # No signal support here (e.g. the loop runs off the main
        # thread under test); the caller stops us via the event.
        pass

    dump_task: asyncio.Task | None = None
    if runtime is not None:
        async def _dump_periodically() -> None:
            while True:
                await asyncio.sleep(runtime.dump_interval)
                service.publish_slo_gauges()
                runtime.dump_registry(service.registry)

        dump_task = loop.create_task(_dump_periodically())

    if on_started is not None:
        on_started(server.port)
    await stop.wait()

    server.close_listener()
    admission = server.admission
    drained = await admission.wait_idle_async(drain_timeout)
    if not drained and not quiet:
        print(
            "repro serve: drain timeout reached with "
            f"{admission.inflight} request(s) still "
            "in flight",
            file=sys.stderr,
            flush=True,
        )
    if dump_task is not None:
        dump_task.cancel()
    if runtime is not None:
        service.publish_slo_gauges()
        runtime.dump_registry(service.registry)
    server.close_connections()
    await server.wait_closed()
    return 0
