"""The HTTP transport of the REST API: persistent connections, stdlib only.

Demonstrates the open-interface claim end to end: any HTTP/1.1 client can
drive a running Unity Catalog server. Examples and ``benchmarks/e2e``'s
``http_serving`` workload both go through this module, so it is the one
place where a request costs socket time as well as catalog time.

A connection is served by one thread for as long as the client keeps it
open (HTTP/1.1 keep-alive; requests on it may be pipelined). Its life is
bounded on every side:

* **One write per response.** Status line, headers and body leave in a
  single ``sendall`` on a ``TCP_NODELAY`` socket. Two writes would make
  the body wait, under Nagle, for the client's delayed ACK of the
  headers — some 40 ms per response on a connection that stays open.
* **Framed both ways.** Every response carries ``Content-Length``. A
  request whose own framing cannot be trusted (``Content-Length`` not a
  number, above :data:`MAX_BODY_BYTES`, or ``Transfer-Encoding``) is
  answered with ``Connection: close`` and the connection ends, because
  the unread body would otherwise be parsed as the next request.
* **A bounded request head, read here.** The request line and each
  header line are one ``readline`` of at most :data:`MAX_LINE_BYTES`,
  and the headers land in a dict of lower-cased names; no ``email``
  parser runs per request. A request line over the bound is a 414, a
  malformed one a 400, ``HTTP/2.0`` or later a 505 and a method the
  router does not serve a 501; a header line over the bound, or more
  than :data:`MAX_HEADERS` of them, is a 431. A folded header line,
  whitespace between a header name and its colon, and two
  ``Content-Length`` values that differ are each a 400: two readers
  could disagree on where such a request ends, which is how a second
  request is smuggled inside the first one's body (RFC 9112 §5, §6.3).
  Every refusal is JSON with ``Connection: close``.
* **Reaped when idle.** A read that waits :data:`IDLE_TIMEOUT_SECONDS`
  ends the connection, so a silent client cannot pin its thread.
* **Joined at shutdown.** The server knows every live connection;
  :meth:`UnityCatalogHttpServer.stop` ends them and waits for their
  threads.

* **Each entity encoded once per row version.** A body is
  :func:`encode_body` of the router's payload: ``json.dumps(payload)``
  byte for byte, but every entity rendering in it is spliced in as the
  JSON text its entity kept (:meth:`~repro.core.model.entity.Entity.
  json_text`), and the rest is encoded without ``json.dumps``'s
  per-container cycle check.

``RestApi`` and ``json`` are module-level names looked up on each use:
the wall-clock benchmark's traced pass replaces exactly those two, and
``json`` by a namespace of ``loads``, ``dumps`` and ``JSONDecodeError``
only, so a request uses no other name of it.
"""

from __future__ import annotations

import json
import re
import socket
import socketserver
import sys
import threading
import time
from email.utils import formatdate
from http import HTTPStatus
from http.client import HTTPConnection, HTTPException
from http.server import ThreadingHTTPServer
from typing import Any, Optional
from urllib.parse import parse_qsl, quote, unquote, urlencode, urlsplit

from repro.core.model.entity import Rendering
from repro.core.service.rest import RestApi, TextResponse
from repro.errors import UnityCatalogError
from repro.obs import MetricsRegistry

_PRINCIPAL_HEADER = "X-Unity-Principal"

#: Routes a metrics scraper may hit without a principal header.
_UNAUTHENTICATED_PREFIXES = ("metrics", "traces")

#: Seconds a connection may wait for request bytes before the server ends
#: it. Also bounds a stalled body read and a blocked write.
IDLE_TIMEOUT_SECONDS = 30.0

#: Largest request body read; a longer ``Content-Length`` is a 413.
MAX_BODY_BYTES = 1 << 20

#: Longest request line (414) or header line (431), line ending included.
MAX_LINE_BYTES = 1 << 16

#: Most header lines one request may carry; one more is a 431.
MAX_HEADERS = 100

#: The methods the router serves; any other is a 501.
_METHODS = frozenset({"GET", "POST", "PATCH", "DELETE"})

_REASONS = {status.value: status.phrase for status in HTTPStatus}

#: A whole header line: a token name, its colon right after it, and a
#: value without CR or LF. The value's outer blanks are stripped after the
#: match: two adjacent runs that both match a blank backtrack quadratically.
_HEADER_LINE = re.compile(rb"([!#$%&'*+.^_`|~0-9A-Za-z-]+):([^\r\n]*)\r?\n")

#: (wall-clock second, its ``Date`` value), replaced as one tuple
_date = (0, "")


#: ``json.dumps``'s encoder without the markers dict it keeps per
#: container to catch a cycle, a quarter of its time on a catalog
#: payload. A cyclic payload still fails (``RecursionError``), and the
#: handler answers it 500. Built once, at import: see the module docstring.
_ENCODE = json.JSONEncoder(check_circular=False).encode

#: How many containers below the top :func:`encode_body` looks through
#: for renderings: a list's items are two down, a resolution's assets three.
_SPLICE_DEPTH = 3


def encode_body(payload: Any) -> str:
    """``json.dumps(payload)``, byte for byte, built from pieces: each
    :class:`~repro.core.model.entity.Rendering` that is the payload or
    sits within :data:`_SPLICE_DEPTH` containers of it is its entity's
    kept text, and everything else is encoded by one call per run of
    values between two renderings."""
    return _splice(payload, _SPLICE_DEPTH)


def _leads(value: Any, depth: int) -> bool:
    """Whether ``value`` is a rendering, or a plain dict or list whose
    first value leads to one within ``depth`` containers: the payloads
    that hold renderings hold them in uniform lists and maps."""
    while type(value) is not Rendering:
        if not depth or not value:
            return False
        if type(value) is dict:
            value = next(iter(value.values()))
        elif type(value) is list:
            value = value[0]
        else:
            return False
        depth -= 1
    return True


def _splice(value: Any, depth: int) -> str:
    """``json.dumps(value)``: a rendering's kept text, or a dict or list
    walked for renderings ``depth`` containers down, or one encoder call."""
    kind = type(value)
    if kind is Rendering:
        text = value.kept_text()
        if text is not None:
            return text
    elif depth and kind is dict:
        depth -= 1
        pieces, run = [], {}
        for key, item in value.items():
            if not _leads(item, depth):
                run[key] = item
                continue
            if type(key) is not str:
                break  # json.dumps coerces the key: leave it to the encoder
            if run:
                pieces.append(_ENCODE(run)[1:-1])
                run = {}
            pieces.append(f"{_ENCODE(key)}: {_splice(item, depth)}")
        else:
            if pieces:
                if run:
                    pieces.append(_ENCODE(run)[1:-1])
                return "{" + ", ".join(pieces) + "}"
    elif depth and kind is list:
        depth -= 1
        pieces, run = [], []
        for item in value:
            if _leads(item, depth):
                if run:
                    pieces.append(_ENCODE(run)[1:-1])
                    run = []
                pieces.append(_splice(item, depth))
            else:
                run.append(item)
        if pieces:
            if run:
                pieces.append(_ENCODE(run)[1:-1])
            return "[" + ", ".join(pieces) + "]"
    return _ENCODE(value)


def _error(code: str, message: str) -> dict[str, str]:
    return {"error_code": code, "message": message}


def _http_date() -> str:
    """The ``Date`` header's value, formatted once per wall-clock second."""
    global _date
    now = int(time.time())
    second, text = _date
    if second != now:
        text = formatdate(now, usegmt=True)
        _date = (now, text)
    return text


def _http_version(word: str) -> Optional[tuple[int, int]]:
    """``HTTP/<major>.<minor>`` as two numbers, by the stdlib's rules
    (one dot, ASCII digits, at most ten of them each); ``None`` if not."""
    if word == "HTTP/1.1":
        return 1, 1
    numbers = word[5:].split(".") if word.startswith("HTTP/") else ()
    if len(numbers) != 2 or not all(
            n.isascii() and n.isdigit() and len(n) <= 10 for n in numbers):
        return None
    return int(numbers[0]), int(numbers[1])


def _bad_header_line(line: bytes) -> str:
    """Why a line that is neither a header field nor the blank line was refused."""
    if not line.endswith(b"\n"):
        return "connection ended inside the request head"
    if line[:1] in (b" ", b"\t"):
        return "obsolete line folding is not accepted"
    name, colon, _ = line.partition(b":")
    if colon and name != name.rstrip(b" \t"):
        return "whitespace between a header name and its colon"
    return f"malformed header line: {line[:80].decode('latin-1')!r}"


class _Handler(socketserver.StreamRequestHandler):
    """One connection: request after request, each read from its request
    line to its body and answered with one write."""

    api: RestApi  # set by server factory

    disable_nagle_algorithm = True

    def setup(self) -> None:
        # read per connection, not at import: tests shorten the constant
        self.timeout = IDLE_TIMEOUT_SECONDS
        super().setup()

    def handle(self) -> None:
        self.close_connection = False
        try:
            while not self.close_connection:
                self._serve_one()
        except TimeoutError:
            pass  # idle (or stalled) past IDLE_TIMEOUT_SECONDS: it ends

    def _serve_one(self) -> None:
        """Read one request, request line to body, and answer it in one
        write; a refusal anywhere on the way ends the connection."""
        line = self.rfile.readline(MAX_LINE_BYTES + 1)
        # until the request says otherwise, its answer is the last one
        self.close_connection = True
        if not line:
            return  # the client closed between requests
        if len(line) > MAX_LINE_BYTES:
            return self._refuse(414, f"request line over {MAX_LINE_BYTES} bytes")
        words = line.decode("latin-1").split()
        if len(words) != 3:
            return self._refuse(400, "malformed request line: "
                                     f"{line[:80].decode('latin-1').rstrip()!r}")
        method, target, word = words
        version = _http_version(word)
        if version is None:
            return self._refuse(400, f"malformed HTTP version: {word[:20]!r}")
        if version >= (2, 0):
            return self._refuse(505, f"HTTP version {word[5:]} is not supported")
        if method not in _METHODS:
            return self._refuse(501, f"method {method[:20]!r} is not supported")
        headers = self._read_headers()
        if headers is None:
            return
        connection = headers.get("connection", "").lower()
        self.close_connection = connection == "close" or (
            version < (1, 1) and connection != "keep-alive")
        raw = self._read_body(
            headers, version >= (1, 1)
            and headers.get("expect", "").lower() == "100-continue")
        if raw is None:
            return
        if target.startswith("//"):  # never an authority: one leading slash
            target = "/" + target.lstrip("/")
        try:
            response = self._frame(*self._answer(method, target, headers, raw))
        except Exception as exc:
            # the boundary that must keep serving: a defect below the
            # router costs this request a 500, not the client its reply
            response = self._frame(500, _error(
                "INTERNAL_ERROR", f"{type(exc).__name__}: {exc}"))
        # one write, so one segment: see the module docstring
        self.connection.sendall(response)

    def _read_headers(self) -> Optional[dict[str, str]]:
        """The header fields up to the blank line, by lower-cased name (the
        first of repeated ones); ``None`` once the head has been refused."""
        headers: dict[str, str] = {}
        for _ in range(MAX_HEADERS + 1):
            line = self.rfile.readline(MAX_LINE_BYTES + 1)
            if line == b"\r\n" or line == b"\n":
                return headers
            if len(line) > MAX_LINE_BYTES:
                return self._refuse(431, f"header line over {MAX_LINE_BYTES} bytes")
            field = _HEADER_LINE.fullmatch(line)
            if field is None:
                return self._refuse(400, _bad_header_line(line))
            name = field[1].lower().decode("ascii")
            value = field[2].strip(b" \t").decode("latin-1")
            if name not in headers:
                headers[name] = value
            elif name == "content-length" and headers[name] != value:
                # read with either length, the rest of the body would be
                # taken for the next request (RFC 9112 §6.3)
                return self._refuse(400, "conflicting Content-Length values: "
                                         f"{headers[name][:20]!r} and {value[:20]!r}")
        return self._refuse(431, f"more than {MAX_HEADERS} header lines")

    def _read_body(self, headers: dict[str, str],
                   continue_first: bool) -> Optional[bytes]:
        """The request body; ``None`` once the request has been refused
        on its framing (answered, and the connection marked to close)."""
        if "transfer-encoding" in headers:
            return self._refuse(411, "Transfer-Encoding is not accepted: "
                                     "send the body with Content-Length")
        declared = headers.get("content-length", "0")
        if not (declared.isascii() and declared.isdigit()):
            return self._refuse(400, f"Content-Length is not a length: {declared!r}")
        # int() refuses a string of over 4,300 digits: never ask it to
        length = int(declared) if len(declared) < 19 else MAX_BODY_BYTES + 1
        if length > MAX_BODY_BYTES:
            return self._refuse(413, "request body is over the limit of "
                                     f"{MAX_BODY_BYTES} bytes")
        if continue_first and length:
            self.connection.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        raw = self.rfile.read(length)
        if len(raw) < length:
            return self._refuse(400, "connection ended before the declared body")
        return raw

    def _refuse(self, status: int, message: str) -> None:
        # the rest of the request was not read, so nothing after it can be
        # trusted to start a request
        self.close_connection = True
        self.connection.sendall(
            self._frame(status, _error("INVALID_PARAMETER_VALUE", message)))

    def _answer(self, method: str, target: str, headers: dict[str, str],
                raw: bytes) -> tuple[int, Any]:
        split = urlsplit(target)
        body: dict[str, Any] = {}
        if raw:
            try:
                body = json.loads(raw)
            except (ValueError, RecursionError):  # not JSON, not UTF-8, too deep
                return 400, _error("INVALID_PARAMETER_VALUE",
                                   "request body is not JSON")
            if not isinstance(body, dict):
                return 400, _error("INVALID_PARAMETER_VALUE",
                                   "request body must be a JSON object")
        principal = headers.get("x-unity-principal", "")
        if not principal and (split.path.strip("/").split("/", 1)[0]
                              not in _UNAUTHENTICATED_PREFIXES):
            return 401, _error("PERMISSION_DENIED",
                               f"missing {_PRINCIPAL_HEADER} header")
        return self.api.handle(
            method, unquote(split.path), principal=principal,
            params=dict(parse_qsl(split.query)), body=body,
        )

    def _frame(self, status: int, payload) -> bytes:
        """The whole response — status line, headers, body — as bytes."""
        if isinstance(payload, TextResponse):
            content_type, data = payload.content_type, payload.body.encode()
        else:
            content_type, data = "application/json", encode_body(payload).encode()
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, '')}",
            f"Date: {_http_date()}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(data)}",
        ]
        if status in (429, 503) and isinstance(payload, dict):
            # throttled / unavailable responses tell well-behaved clients
            # when to come back instead of letting them hammer the service
            retry_after = payload.get("retry_after_seconds", 1.0)
            head.append(f"Retry-After: {max(1, round(retry_after))}")
        if self.close_connection:
            head.append("Connection: close")
        return "\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + data


class _ConnectionTrackingServer(ThreadingHTTPServer):
    """A threading server that knows its live connections.

    The registry is written on the accept thread, so once ``shutdown()``
    has returned it is complete.
    """

    def __init__(self, address, handler, metrics: MetricsRegistry):
        self._live: dict[socket.socket, threading.Thread] = {}
        self._live_lock = threading.Lock()
        self._connections_total = metrics.counter(
            "uc_http_connections_total",
            "TCP connections the HTTP server has accepted")
        self._open_connections = metrics.gauge(
            "uc_http_open_connections",
            "TCP connections the HTTP server is serving now")
        super().__init__(address, handler)

    def process_request(self, request, client_address) -> None:
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address), daemon=True,
        )
        # under the lock the thread's own exit waits for: a start that
        # fails records nothing, one that succeeds is recorded before
        # the thread can take itself out again
        with self._live_lock:
            thread.start()
            self._live[request] = thread

    def process_request_thread(self, request, client_address) -> None:
        # counted by the connection's own thread before it reads a byte,
        # so a client that has a response has been counted; counted on
        # the accept thread it could be answered first
        with self._live_lock:
            self._connections_total.inc()
            self._open_connections.inc()
        try:
            super().process_request_thread(request, client_address)
        finally:
            with self._live_lock:
                del self._live[request]
                self._open_connections.dec()

    def handle_error(self, request, client_address) -> None:
        # a peer that resets or vanishes ends its own connection; only a
        # defect in the handler is worth a traceback
        if not isinstance(sys.exc_info()[1], OSError):
            super().handle_error(request, client_address)

    def end_connections(self, timeout: float) -> None:
        """Stop reading on every live connection and join its thread: an
        idle one wakes with end-of-file, one in mid-request still writes
        its response first."""
        with self._live_lock:
            live = list(self._live.items())
        for connection, _ in live:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # its thread closed it between the snapshot and here
        for _, thread in live:
            thread.join(timeout)


class UnityCatalogHttpServer:
    """Serves a catalog service over HTTP on localhost."""

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0):
        api = RestApi(service)
        handler = type("BoundHandler", (_Handler,), {"api": api})
        # counted on the service's registry, the one /metrics renders; a
        # service without one is counted where nobody scrapes
        obs = getattr(service, "obs", None)
        self._httpd = _ConnectionTrackingServer(
            (host, port), handler,
            metrics=MetricsRegistry() if obs is None else obs.metrics,
        )
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> tuple[str, int]:
        return self._httpd.server_address[:2]

    def start(self) -> "UnityCatalogHttpServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        # accept loop first (nothing new registers), then the listening
        # socket, then the connections already accepted
        self._httpd.shutdown()
        self._httpd.server_close()
        self._httpd.end_connections(timeout=5)
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> "UnityCatalogHttpServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class UnityCatalogHttpClient:
    """A minimal REST client for the HTTP server, on one reused connection."""

    def __init__(self, host: str, port: int, principal: str):
        self._principal = principal
        self._connection = HTTPConnection(host, port, timeout=30)

    def request(
        self,
        method: str,
        path: str,
        *,
        params: Optional[dict] = None,
        body: Optional[dict] = None,
        raise_on_error: bool = True,
    ) -> dict:
        target = quote(path)
        if params:
            target += "?" + urlencode(params)
        payload = json.dumps(body).encode() if body is not None else None
        # a connection left open by an earlier request may have been
        # closed by the server since (idle timeout, restart)
        reused = self._connection.sock is not None
        try:
            try:
                response = self._exchange(method, target, payload)
            except ConnectionError:
                # only a read is safe to send again: a write may have
                # been applied before the connection died
                if not (reused and method == "GET"):
                    raise
                self._connection.close()
                response = self._exchange(method, target, payload)
            raw = response.read()
        except (OSError, HTTPException):
            # wherever the exchange stopped, the next one starts clean
            self._connection.close()
            raise
        data = json.loads(raw or b"{}")
        if raise_on_error and response.status >= 400:
            raise UnityCatalogError(
                f"HTTP {response.status}: {data.get('message', data)}"
            )
        return data

    def _exchange(self, method: str, target: str, payload: Optional[bytes]):
        """Send one request and read the response's status and headers."""
        self._connection.request(
            method, target, body=payload,
            headers={
                _PRINCIPAL_HEADER: self._principal,
                "Content-Type": "application/json",
            },
        )
        return self._connection.getresponse()

    def close(self) -> None:
        self._connection.close()

    def __enter__(self) -> "UnityCatalogHttpClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
