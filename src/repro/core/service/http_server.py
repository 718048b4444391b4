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
* **Reaped when idle.** A read that waits :data:`IDLE_TIMEOUT_SECONDS`
  ends the connection, so a silent client cannot pin its thread.
* **Joined at shutdown.** The server knows every live connection;
  :meth:`UnityCatalogHttpServer.stop` ends them and waits for their
  threads.

``RestApi`` and ``json`` are module-level names looked up on each use:
the wall-clock benchmark's traced pass replaces exactly those two.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
from http.client import HTTPConnection, HTTPException
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional
from urllib.parse import parse_qsl, quote, unquote, urlencode, urlsplit

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


def _error(code: str, message: str) -> dict[str, str]:
    return {"error_code": code, "message": message}


class _Handler(BaseHTTPRequestHandler):
    api: RestApi  # set by server factory

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def setup(self) -> None:
        # read per connection, not at import: tests shorten the constant
        self.timeout = IDLE_TIMEOUT_SECONDS
        super().setup()

    def log_message(self, fmt: str, *args) -> None:  # silence stderr
        pass

    def _dispatch(self, method: str) -> None:
        raw = self._read_body()
        if raw is None:
            return
        try:
            response = self._frame(*self._answer(method, raw))
        except Exception as exc:
            # the boundary that must keep serving: a defect below the
            # router costs this request a 500, not the client its reply
            response = self._frame(500, _error(
                "INTERNAL_ERROR", f"{type(exc).__name__}: {exc}"))
        # one write, so one segment: see the module docstring
        self.wfile.write(response)

    def _read_body(self) -> Optional[bytes]:
        """The request body; ``None`` once the request has been refused
        on its framing (answered, and the connection marked to close)."""
        if self.headers.get("Transfer-Encoding"):
            return self._refuse(411, "Transfer-Encoding is not accepted: "
                                     "send the body with Content-Length")
        declared = (self.headers.get("Content-Length") or "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            return self._refuse(400, f"Content-Length is not a length: {declared!r}")
        length = int(declared)
        if length > MAX_BODY_BYTES:
            return self._refuse(413, f"request body of {length} bytes is over "
                                     f"the limit of {MAX_BODY_BYTES}")
        raw = self.rfile.read(length)
        if len(raw) < length:
            return self._refuse(400, "connection ended before the declared body")
        return raw

    def _refuse(self, status: int, message: str) -> None:
        # the body was not consumed, so nothing after it can be trusted
        # to start a request
        self.close_connection = True
        self.wfile.write(
            self._frame(status, _error("INVALID_PARAMETER_VALUE", message)))

    def _answer(self, method: str, raw: bytes) -> tuple[int, Any]:
        split = urlsplit(self.path)
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
        principal = self.headers.get(_PRINCIPAL_HEADER, "")
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
            content_type, data = "application/json", json.dumps(payload).encode()
        head = [
            f"HTTP/1.1 {status} {self.responses.get(status, ('',))[0]}",
            f"Date: {self.date_time_string()}",
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

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def do_PATCH(self) -> None:
        self._dispatch("PATCH")

    def do_DELETE(self) -> None:
        self._dispatch("DELETE")


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
