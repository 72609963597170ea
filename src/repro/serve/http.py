"""The HTTP front end the worker and the shard router share.

:class:`HttpFrontEnd` owns the listener, the connection loop, the routes
(``POST /v1/evaluate``, ``GET /healthz``, ``GET /metrics``, 404, 405),
trace-id minting and graceful shutdown. :class:`LoopThread` runs one on
a background thread; :func:`run_until_signal` is ``repro serve``'s body.
A request that cannot be read, or does not arrive within
:data:`READ_TIMEOUT_S` of its connection falling idle (408), is
answered, counted under ``serve.protocol_errors.<status>`` and logged
as ``request.failed``. A connection stays open for another request only
when the request asked for it (``Connection: keep-alive``); one that
sends no request line within :data:`READ_TIMEOUT_S` is closed without
an answer.
"""

from __future__ import annotations

import asyncio
import functools
import os
import signal
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

from ..obs import log as obs_log
from ..obs import prometheus
from ..obs.log import NULL_LOG, EventLog
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NULL_TRACER, Tracer, new_trace_id, valid_trace_id
from . import wire

__all__ = [
    "READ_TIMEOUT_S", "DISCARD_LIMIT_BYTES", "HttpFrontEnd", "LoopThread",
    "run_until_signal",
]

#: Seconds a client has, from the accept or from its previous answer on
#: a kept-alive connection, to deliver its whole request. A spec is
#: ~1 KiB, so this only ever cuts off a stalled or idle peer.
READ_TIMEOUT_S = 10.0

#: Bytes of an early-rejected request read (into memory) and thrown away
#: before the close: more than a header flood sent in one go, yet a bound
#: on a peer that streams without end.
DISCARD_LIMIT_BYTES = 1 << 20


class HttpFrontEnd:
    """The listener, connection loop and shared routes of one server.

    A subclass supplies ``async _evaluate(request) -> bytes``,
    ``health()``, ``async metrics_payload()``, ``async
    metrics_prometheus()``, ``async _open()`` (before the listener binds)
    and ``async _drain()`` (once every accepted request is answered, or
    after a failed start). The listener binds ``config.host`` and
    ``config.port``; ``port`` is the bound one. ``log`` and ``runtime``
    default to ``NULL_LOG`` and ``NULL_TRACER``.
    """

    def __init__(
        self,
        config: Any,
        metrics: MetricsRegistry | None = None,
        log: EventLog | None = None,
        runtime: Tracer | None = None,
    ) -> None:
        self.config = config
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.log = log if log is not None else NULL_LOG
        self.runtime = runtime if runtime is not None else NULL_TRACER
        self.port: int | None = None
        self._server: asyncio.Server | None = None
        self._handlers: set[asyncio.Task] = set()
        # Connections that owe nothing (no request line yet, kept alive
        # between requests, or answered and only being drained): a
        # shutdown closes them.
        self._idle: set[asyncio.StreamWriter] = set()

    async def start(self) -> None:
        """Open what the front end serves from, then bind the listener;
        a failed start drains what it opened."""
        try:
            await self._open()
            self._server = await asyncio.start_server(
                self._serve_connection, host=self.config.host, port=self.config.port
            )
        except BaseException:
            await self._drain()
            raise
        self.port = self._server.sockets[0].getsockname()[1]

    async def shutdown(self) -> None:
        """Graceful stop: close the listener and the idle connections,
        answer every request already arriving, then drain."""
        if self._server is not None:
            self._server.close()
            for writer in list(self._idle):
                writer.close()
            await self._server.wait_closed()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        await self._drain()

    async def serve_until(self, stop: asyncio.Event) -> None:
        """Run until ``stop`` is set, then shut down gracefully."""
        await self.start()
        await stop.wait()
        await self.shutdown()

    # -- connection handling -----------------------------------------------------

    def _serving(self) -> bool:
        return self._server is None or self._server.is_serving()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """The accept callback: one :meth:`_handle_connection` call per
        request, for as long as the peer keeps the connection alive and
        the listener is open."""
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        try:
            # A connection accepted as the listener closed is idle: closed.
            while self._serving() and await self._handle_connection(reader, writer):
                pass
        except ConnectionError:
            pass  # peer went away mid-request; nothing to answer
        finally:
            self._idle.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Read one request and answer it; whether to read another.

        The connection counts as idle until the request line arrives. If
        none arrives within :data:`READ_TIMEOUT_S`, it is closed without
        an answer: on a kept-alive connection the peer would read a 408
        as the answer to the request it sends next. A request that
        stalls after its request line (408) or cannot be read gets its
        error answer, and then the connection closes.
        """
        deadline = asyncio.get_running_loop().time() + READ_TIMEOUT_S
        self._idle.add(writer)
        try:
            request = await asyncio.wait_for(
                wire.read_request(
                    reader, on_request_line=functools.partial(self._idle.discard, writer)
                ),
                READ_TIMEOUT_S,
            )
        except asyncio.TimeoutError:
            if writer in self._idle:
                return False
            error = wire.ProtocolError(
                408, f"request not received within {READ_TIMEOUT_S:g} s"
            )
        except wire.ProtocolError as exc:
            error = exc
        else:
            if request is None:
                return False
            response = await self._route(request)
            keep_alive = request.keep_alive and self._serving()
            writer.write(wire.kept_alive(response) if keep_alive else response)
            await writer.drain()
            return keep_alive
        await self._reject(reader, writer, error, deadline)
        return False

    async def _reject(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
        error: wire.ProtocolError, deadline: float,
    ) -> None:
        """Answer an unreadable request, then read and drop its rest (up to
        :data:`DISCARD_LIMIT_BYTES` or the deadline): closing with input
        pending makes the kernel send a reset, which can destroy the
        answer before the client reads it."""
        writer.write(wire.error_response(error.status, "protocol_error", str(error)))
        self.metrics.counter(f"serve.protocol_errors.{error.status}").inc()
        if self.log.enabled_for(obs_log.WARNING):
            self.log.warning(
                "request.failed", status=error.status, code="protocol_error",
                message=str(error),
            )
        await writer.drain()
        self._idle.add(writer)
        remaining = deadline - asyncio.get_running_loop().time()
        if remaining > 0:
            try:
                await asyncio.wait_for(reader.readexactly(DISCARD_LIMIT_BYTES), remaining)
            except (asyncio.IncompleteReadError, asyncio.TimeoutError):
                pass  # the peer finished sending, or ran out of time

    async def _route(self, request: wire.Request) -> bytes:
        route = request.route
        if route == "/v1/evaluate":
            if request.method != "POST":
                return self._method_not_allowed("POST")
            return await self._evaluate(request)
        if route == "/healthz":
            if request.method != "GET":
                return self._method_not_allowed("GET")
            return wire.json_response(200, self.health())
        if route == "/metrics":
            if request.method != "GET":
                return self._method_not_allowed("GET")
            fmt = request.query_params().get("format", "json")
            if fmt == "prometheus":
                return wire.response_bytes(
                    200,
                    (await self.metrics_prometheus()).encode("utf-8"),
                    content_type=prometheus.CONTENT_TYPE,
                )
            if fmt != "json":
                return wire.error_response(
                    400,
                    "bad_format",
                    f"unknown metrics format {fmt!r}; expected 'json' or "
                    f"'prometheus'",
                )
            return wire.json_response(200, await self.metrics_payload())
        return wire.error_response(
            404, "not_found", f"no route for {request.path!r}"
        )

    @staticmethod
    def _method_not_allowed(allowed: str) -> bytes:
        return wire.error_response(
            405,
            "method_not_allowed",
            f"only {allowed} is supported on this route",
            extra_headers=(("Allow", allowed),),
        )

    # -- shared by both _evaluate ------------------------------------------------

    def _trace(self, request: wire.Request) -> tuple[str | None, wire.Headers]:
        """The request's trace id and the response headers echoing it.

        A client's id is kept when valid and replaced by a minted one when
        not, so a hostile header cannot inject bytes into traces or logs;
        without one, an id is minted only while runtime tracing is on.
        """
        trace_id = request.headers.get(wire.TRACE_HEADER.lower())
        if trace_id is not None and not valid_trace_id(trace_id):
            trace_id = new_trace_id()
        if trace_id is None and self.runtime.enabled:
            trace_id = new_trace_id()
        return trace_id, (((wire.TRACE_HEADER, trace_id),) if trace_id else ())

    def _timed_out(self, deadline_s: float, trace_headers: wire.Headers) -> bytes:
        """Count and log an evaluation past its deadline; the 504 answer."""
        self.metrics.counter("serve.requests_timed_out").inc()
        if self.log.enabled_for(obs_log.WARNING):
            self.log.warning("request.timeout", deadline_s=deadline_s)
        return wire.error_response(
            504, "timeout", f"evaluation exceeded {deadline_s:g} s",
            extra_headers=trace_headers,
        )


class LoopThread:
    """A front end on a background thread with its own event loop.

    Exposes the bound port once ready, drains gracefully on :meth:`stop`,
    and works as a context manager.
    """

    def __init__(self, build: Callable[[], HttpFrontEnd], *, name: str, ready_timeout_s: float):
        self.front: HttpFrontEnd | None = None
        self.port: int | None = None
        self._build = build
        self._name = name
        self._ready_timeout_s = ready_timeout_s
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name=f"repro-{name}-loop", daemon=True
        )

    def start(self) -> "LoopThread":
        self._thread.start()
        if not self._ready.wait(timeout=self._ready_timeout_s):
            raise RuntimeError(
                f"{self._name} did not become ready in {self._ready_timeout_s:g} s"
            )
        if self._startup_error is not None:
            raise RuntimeError(f"{self._name} failed to start") from self._startup_error
        return self

    def stop(self) -> None:
        """Request a graceful drain and wait for the loop to finish."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and loop.is_running():
            loop.call_soon_threadsafe(stop.set)
        self._thread.join(timeout=120)

    def __enter__(self) -> "LoopThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - surfaced in start()
            self._startup_error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._stop = asyncio.Event()
        self._loop = asyncio.get_running_loop()
        self.front = self._build()
        await self.front.start()
        self.port = self.front.port
        self._ready.set()
        await self._stop.wait()
        await self.front.shutdown()


def run_until_signal(
    build: Callable[[EventLog, Tracer], HttpFrontEnd],
    *,
    name: str,
    log_level: str,
    trace_dir: str | Path | None,
    title: str,
    settings: str,
    exit_on_stdin_eof: bool = False,
) -> int:
    """Serve until SIGTERM/SIGINT, then drain; returns 0 after a clean drain.

    ``build`` gets the event log (stderr, source ``name``) and the runtime
    tracer, on only with a ``trace_dir`` to write it to. ``serve.listening``
    carries the ``http://host:port`` URL that readiness probes grep
    stderr for, and ``serve.drained`` the phrase ``drained cleanly``.
    With ``exit_on_stdin_eof``, end of file on stdin drains the same way:
    the shard router holds the only write end of each worker's stdin, so
    a worker goes down with its router however the router dies.
    """
    log = EventLog(sys.stderr, level=log_level, source=name)
    runtime = Tracer(name, clock=time.time) if trace_dir is not None else NULL_TRACER

    async def main() -> int:
        front = build(log, runtime)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        if exit_on_stdin_eof:
            stdin = sys.stdin.fileno()

            def on_stdin() -> None:
                if not os.read(stdin, 4096):
                    loop.remove_reader(stdin)
                    stop.set()

            loop.add_reader(stdin, on_stdin)
        await front.start()
        url = f"http://{front.config.host}:{front.port}"
        log.info(
            "serve.listening", url=url, message=f"{title} listening on {url} ({settings})"
        )
        await stop.wait()
        log.info("serve.draining")
        await front.shutdown()
        completed = int(front.metrics.counter("serve.requests_completed").value)
        log.info(
            "serve.drained", requests_completed=completed,
            message=f"{title} drained cleanly ({completed} requests completed)",
        )
        if trace_dir is not None:
            runtime.write(Path(trace_dir) / f"{name}-{runtime.pid}.trace.json")
        return 0

    return asyncio.run(main())
