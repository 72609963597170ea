"""Minimal HTTP/1.1 framing over asyncio streams.

The evaluation service speaks JSON-over-HTTP with exactly three routes,
so it does not need a web framework — just enough of RFC 9112 to read
one request from a stream and write one response back: a request line,
headers, an optional ``Content-Length`` body, and a ``Connection:
close`` response, or a ``Connection: keep-alive`` one to a request that
asked for it (the shard router's pooled hops). Keeping the framing in
its own module keeps the service logic (batching, admission, drain)
free of byte-level parsing and lets the tests exercise malformed input
directly.
"""

from __future__ import annotations

import asyncio
import json
import urllib.parse
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = [
    "MAX_BODY_BYTES",
    "MAX_HEADERS",
    "PRIORITIES",
    "DEFAULT_PRIORITY",
    "PRIORITY_HEADER",
    "CACHE_HEADER",
    "COALESCED_HEADER",
    "WORKER_HEADER",
    "TRACE_HEADER",
    "ProtocolError",
    "Request",
    "read_request",
    "read_response",
    "request_bytes",
    "response_bytes",
    "kept_alive",
    "json_response",
]

#: Largest request body the server will read (a ScenarioSpec is ~1 KiB;
#: anything near this limit is not a spec).
MAX_BODY_BYTES = 4 << 20

#: Most header lines one request (or worker response) may carry. Every
#: header this stack reads is among the first dozen; a peer sending more
#: than this is not speaking to us in good faith.
MAX_HEADERS = 100

#: Request-priority classes, most-protected first. ``interactive``
#: requests are admitted up to the full queue limit; ``batch`` requests
#: are shed earlier under overload (see ``ServerConfig.batch_shed_fraction``).
PRIORITIES = ("interactive", "batch")

#: Priority assumed when a request carries no priority header.
DEFAULT_PRIORITY = "interactive"

#: Request header naming the priority class (``interactive`` | ``batch``).
PRIORITY_HEADER = "X-Repro-Priority"

#: Response header: ``hit`` | ``miss`` cache provenance of the result.
CACHE_HEADER = "X-Repro-Cache"

#: Response header set by the shard router: ``leader`` for the request
#: that triggered the (single) evaluation of its spec key, ``follower``
#: for concurrent duplicates that coalesced onto it.
COALESCED_HEADER = "X-Repro-Coalesced"

#: Response header set by the shard router: the worker slot (``w0``,
#: ``w1``, ...) that produced the response body.
WORKER_HEADER = "X-Repro-Worker"

#: Request *and* response header carrying the request's trace id. A
#: client may send one (it is validated, echoed, and stamped on every
#: span the request leaves); otherwise the router mints one when
#: runtime tracing is enabled and forwards it to the worker, so router
#: and worker trace files merge into a single per-request timeline.
TRACE_HEADER = "X-Repro-Trace-Id"

#: Header fields to serialize, as ``(name, value)`` pairs in order.
Headers = tuple[tuple[str, str], ...]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class ProtocolError(Exception):
    """A request the server cannot parse.

    Attributes:
        status: the HTTP status the connection should answer with.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class Request:
    """One parsed HTTP request.

    Attributes:
        method: upper-cased request method.
        path: request target, query string included.
        headers: header fields, keys lower-cased (last value wins).
        body: raw request body (empty without ``Content-Length``).
    """

    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        """Whether the client asked to keep the connection open
        (``Connection: keep-alive``); without it, it is closed."""
        tokens = self.headers.get("connection", "").lower().split(",")
        return "keep-alive" in (token.strip() for token in tokens)

    @property
    def route(self) -> str:
        """The path with any query string stripped (``/metrics?x`` ->
        ``/metrics``)."""
        return self.path.partition("?")[0]

    def query_params(self) -> dict[str, str]:
        """Query-string parameters, first value per key."""
        query = self.path.partition("?")[2]
        if not query:
            return {}
        return {
            key: values[0]
            for key, values in urllib.parse.parse_qs(query).items()
        }

    def json(self) -> Any:
        """The body decoded as JSON.

        Raises:
            ProtocolError: with status 400 when the body is not valid
                UTF-8 JSON, holds an integer literal past Python's digit
                limit (``ValueError``, the base of the decode errors) or
                nests too deep to decode (``RecursionError``).
        """
        try:
            return json.loads(self.body.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise ProtocolError(400, f"request body is not JSON: {exc}") from exc


async def _read_headers_and_body(
    reader: asyncio.StreamReader,
    max_body: int,
    *,
    malformed: int,
    too_large: int,
    body_too_large: int,
    source: str,
) -> tuple[dict[str, str], bytes]:
    """Header fields up to the blank line (names lower-cased), then the
    ``Content-Length`` body: the part both readers share.

    ``StreamReader.readline`` raises ``ValueError`` for a line longer
    than the reader's buffer limit (64 KiB by default).

    Raises:
        ProtocolError: with ``malformed`` for a line without a colon, an
            invalid ``Content-Length``, or a message that ends before its
            blank line or its body does; with ``too_large`` for an
            over-long line or more than :data:`MAX_HEADERS` lines; with
            ``body_too_large`` for a body beyond ``max_body``.
    """
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        try:
            raw = await reader.readline()
        except ValueError as exc:
            raise ProtocolError(
                too_large, f"header line{source} too long: {exc}"
            ) from None
        if raw in (b"\r\n", b"\n"):
            break
        if not raw.endswith(b"\n"):
            raise ProtocolError(malformed, f"headers{source} cut short: {raw!r}")
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise ProtocolError(malformed, f"malformed header line{source}: {raw!r}")
        headers[name.strip().lower()] = value.strip()
    else:
        raise ProtocolError(too_large, f"more than {MAX_HEADERS} header lines{source}")
    # RFC 9112 §8.6: digits only. ``int()`` also takes ``+2`` and ``1_0``,
    # and raises past 4,300 digits.
    text = headers.get("content-length", "0")
    if not (text.isascii() and text.isdigit()):
        raise ProtocolError(malformed, f"invalid Content-Length{source}: {text!r}")
    digits = text.lstrip("0") or "0"
    if len(digits) > len(str(max_body)) or int(digits) > max_body:
        raise ProtocolError(
            body_too_large,
            f"body of {digits[:24]} bytes{source} exceeds the {max_body} limit",
        )
    length = int(digits)
    try:
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            malformed,
            f"body{source} cut short: {len(exc.partial)} of {length} bytes",
        ) from None
    return headers, body


async def read_request(
    reader: asyncio.StreamReader,
    max_body: int = MAX_BODY_BYTES,
    *,
    on_request_line: Callable[[], object] | None = None,
) -> Request | None:
    """Read one HTTP request from ``reader``.

    Args:
        on_request_line: called once the request line has arrived (the
            server stops counting the connection as idle).

    Returns:
        The parsed request, or ``None`` when the peer closed the
        connection before sending a request line.

    Raises:
        ProtocolError: on a malformed or over-long request line (400), a
            malformed header, an invalid ``Content-Length`` or a request
            cut short (400), an over-long header line or more than
            :data:`MAX_HEADERS` headers (431), or a body beyond
            ``max_body`` (413).
    """
    try:
        line = await reader.readline()
    except ValueError as exc:  # longer than the reader's buffer limit
        raise ProtocolError(400, f"request line too long: {exc}") from None
    if not line.strip():
        return None
    if on_request_line is not None:
        on_request_line()
    parts = line.decode("latin-1").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise ProtocolError(400, f"malformed request line: {line!r}")
    method, path, _version = parts
    headers, body = await _read_headers_and_body(
        reader, max_body, malformed=400, too_large=431, body_too_large=413,
        source="",
    )
    return Request(method=method.upper(), path=path, headers=headers, body=body)


async def read_response(
    reader: asyncio.StreamReader,
    max_body: int = MAX_BODY_BYTES,
    *,
    on_status_line: Callable[[], object] | None = None,
) -> tuple[int, dict[str, str], bytes]:
    """Read one HTTP response from ``reader`` (the router's proxy side).

    Args:
        on_status_line: called once a status line has arrived (the
            router retries a pooled connection that failed before it).

    Returns:
        ``(status, headers, body)`` with header names lower-cased. The
        body is read from ``Content-Length`` (every response this stack
        emits carries one — see :func:`response_bytes`).

    Raises:
        ProtocolError: on a malformed or over-long status line or header,
            more than :data:`MAX_HEADERS` headers, an invalid or
            implausible ``Content-Length``, or a response cut short
            (status 502 — the upstream worker misbehaved).
    """
    try:
        line = await reader.readline()
    except ValueError as exc:  # longer than the reader's buffer limit
        raise ProtocolError(
            502, f"status line from worker too long: {exc}"
        ) from None
    if line and on_status_line is not None:
        on_status_line()
    parts = line.decode("latin-1").split(maxsplit=2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise ProtocolError(502, f"malformed status line from worker: {line!r}")
    try:
        status = int(parts[1])
    except ValueError:
        raise ProtocolError(
            502, f"malformed status code from worker: {parts[1]!r}"
        ) from None
    headers, body = await _read_headers_and_body(
        reader, max_body, malformed=502, too_large=502, body_too_large=502,
        source=" from worker",
    )
    return status, headers, body


#: The last header line and blank line of every message :func:`_message`
#: frames, and of one that keeps its connection open.
_CLOSE = b"\r\nConnection: close\r\n\r\n"
_KEEP_ALIVE = b"\r\nConnection: keep-alive\r\n\r\n"


def _message(start_line: str, content_type: str, body: bytes, headers: Headers) -> bytes:
    """One complete ``Connection: close`` HTTP message."""
    head = [start_line, f"Content-Type: {content_type}", f"Content-Length: {len(body)}"]
    head.extend(f"{name}: {value}" for name, value in headers)
    return "\r\n".join(head).encode("latin-1") + _CLOSE + body


def request_bytes(
    method: str, path: str, body: bytes = b"", *, headers: Headers = ()
) -> bytes:
    """Serialize one complete HTTP request (the router forwarding side)."""
    return _message(f"{method} {path} HTTP/1.1", "application/json", body, headers)


def response_bytes(
    status: int,
    body: bytes,
    *,
    content_type: str = "application/json",
    extra_headers: Headers = (),
) -> bytes:
    """Serialize one complete ``Connection: close`` HTTP response."""
    reason = _REASONS.get(status, "Unknown")
    return _message(f"HTTP/1.1 {status} {reason}", content_type, body, extra_headers)


def kept_alive(message: bytes) -> bytes:
    """``message`` with ``Connection: keep-alive`` for its closing header:
    a request asking to keep the connection open, or the answer that
    keeps it.

    The first match is the end of the head: a head holds no blank line
    before its own, and the body comes after it.
    """
    return message.replace(_CLOSE, _KEEP_ALIVE, 1)


def json_response(
    status: int,
    payload: Any,
    *,
    extra_headers: Headers = (),
) -> bytes:
    """A JSON response with deterministic (sorted-key) serialization."""
    body = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    return response_bytes(status, body, extra_headers=extra_headers)


def error_response(
    status: int,
    code: str,
    message: str,
    *,
    extra_headers: Headers = (),
) -> bytes:
    """The service's uniform error envelope."""
    return json_response(
        status,
        {"error": {"code": code, "message": message, "status": status}},
        extra_headers=extra_headers,
    )
