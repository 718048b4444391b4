"""Requests, the per-response oracle, and the closed- and open-loop drivers."""

from __future__ import annotations

import hashlib
import itertools
import json
import socket
import threading
import time
from typing import Any, Callable, Optional, Sequence
from urllib.parse import quote, urlencode

from .estate import ADMIN, BASE, METASTORE

_perf = time.perf_counter


class Request:
    """One generated request and what the oracle expects back.

    ``kind`` names the operation (``get``, ``resolve``, ``update`` …) and
    decides which latency class the sample joins; ``expect`` is the
    ground-truth answer computed from the estate model when the request
    was generated; ``audit`` is how many audit records it must leave.
    """

    __slots__ = ("kind", "method", "path", "params", "body", "principal",
                 "status", "expect", "audit", "wire")

    def __init__(self, kind: str, method: str, path: str, *, principal: str,
                 params: Optional[dict] = None, body: Optional[dict] = None,
                 status: int = 200, expect: Any = None, audit: int = 1):
        self.kind = kind
        self.method = method
        self.path = path
        self.principal = principal
        self.params = params if params is not None else {"metastore": METASTORE}
        #: the body as it arrives: JSON bytes
        self.body = json.dumps(body).encode() if body is not None else None
        self.status = status
        self.expect = expect
        self.audit = audit
        self.wire: Optional[bytes] = None

    def fingerprint(self) -> str:
        return json.dumps(
            [self.kind, self.method, self.path, self.principal,
             sorted(self.params.items(), key=str),
             self.body.decode() if self.body else None, self.status],
            default=str, sort_keys=True,
        )


def requests_sha256(streams: Sequence[Sequence[Request]]) -> str:
    """SHA-256 over every generated request, in order: two runs with one
    seed must print the same digest."""
    digest = hashlib.sha256()
    for stream in streams:
        for request in stream:
            digest.update(request.fingerprint().encode())
            digest.update(b"\n")
    return digest.hexdigest()


# -- mixes ---------------------------------------------------------------------


def schedule(rng, counts: dict[str, int], blocks: int) -> list[str]:
    """Operation kinds for ``blocks`` consecutive blocks, each holding
    exactly ``counts[kind]`` of every kind in a freshly shuffled order.

    A mix drawn request by request lets a window of a few hundred slow
    requests hold 30 or 45 of a 5 % kind by chance, and that chance, not
    the program, then moves the window's throughput. Fixed-composition
    blocks give every window the stated mix to within one block.
    """
    block = [kind for kind, count in counts.items() for _ in range(count)]
    out: list[str] = []
    for _ in range(blocks):
        rng.shuffle(block)
        out.extend(block)
    return out


def zipf_schedule(rng, items: Sequence[Any], skew: float, total: int) -> list[Any]:
    """``items`` repeated in proportion to ``1 / rank ** skew`` (each at
    least once, about ``total`` in all), shuffled: a popularity skew that
    is the same in every pass over the list."""
    weights = [1.0 / (rank + 1) ** skew for rank in range(len(items))]
    scale = total / sum(weights)
    out = [item for item, weight in zip(items, weights)
           for _ in range(max(1, round(weight * scale)))]
    rng.shuffle(out)
    return out


def should_undo(pending: Sequence[Any], limit: int, flush: bool = False) -> bool:
    """Write slots alternate do and undo: a slot does while fewer than
    ``limit`` of its kind are outstanding and undoes the oldest otherwise
    (``flush``: undo whatever is left), so one pass over a stream leaves
    the estate as it found it and the stream can cycle."""
    return bool(pending) and (flush or len(pending) >= limit)


# -- request constructors (the REST surface the workloads use) ---------------


def get_table(name: str, principal: str, *, status: int = 200,
              comment: Optional[str] = None, extra: Optional[dict] = None,
              kind: str = "get") -> Request:
    params = {"metastore": METASTORE, **(extra or {})}
    return Request(kind, "GET", f"{BASE}/tables/{name}", principal=principal,
                   params=params, status=status,
                   expect=(name.rsplit(".", 1)[1], comment))


def resolve(names: Sequence[str], principal: str, expect: Sequence[str], *,
            status: int = 200, extra: Optional[dict] = None,
            kind: str = "resolve") -> Request:
    """Batched life-of-a-query resolve; ``expect`` is the asset closure
    (the requested tables plus any view dependencies)."""
    body = {"metastore": METASTORE, "tables": list(names), "engine_trusted": True}
    # one record per table authorized as the caller plus the batch record
    return Request(kind, "POST", f"{BASE}/resolve", principal=principal,
                   params=dict(extra or {}), body=body, status=status,
                   expect=frozenset(expect),
                   audit=len(names) + 1 if status == 200 else 1)


def list_tables(schema: str, principal: str, count: int, *,
                extra: Optional[dict] = None, kind: str = "list") -> Request:
    params = {"metastore": METASTORE, "parent": schema, **(extra or {})}
    return Request(kind, "GET", f"{BASE}/tables", principal=principal,
                   params=params, expect=count)


def has_privilege(name: str, principal: str, allowed: bool) -> Request:
    params = {"metastore": METASTORE, "securable_kind": "TABLE",
              "securable_name": name, "privilege": "SELECT"}
    # has_privilege decides without an authorization record of its own
    return Request("has_privilege", "GET", f"{BASE}/has-privilege",
                   principal=principal, params=params, expect=allowed, audit=0)


def grants_on(catalog: str, principal: str, count: int) -> Request:
    params = {"metastore": METASTORE, "securable_kind": "CATALOG",
              "securable_name": catalog}
    return Request("grants", "GET", f"{BASE}/grants", principal=principal,
                   params=params, expect=count)


def update_comment(name: str, principal: str, comment: str, *,
                   extra: Optional[dict] = None) -> Request:
    params = {"metastore": METASTORE, **(extra or {})}
    return Request("update", "PATCH", f"{BASE}/tables/{name}",
                   principal=principal, params=params,
                   body={"comment": comment}, expect=comment)


def create_table(name: str, comment: str) -> Request:
    body = {"metastore": METASTORE, "name": name, "comment": comment,
            "spec": {"table_type": "MANAGED", "format": "DELTA",
                     "columns": [{"name": "id", "type": "BIGINT"},
                                 {"name": "payload", "type": "STRING"}]}}
    return Request("create", "POST", f"{BASE}/tables", principal=ADMIN,
                   params={}, body=body, status=201, expect=comment)


def rename_table(name: str, new_leaf: str) -> Request:
    return Request("rename", "PATCH", f"{BASE}/tables/{name}", principal=ADMIN,
                   body={"new_name": new_leaf}, expect=new_leaf)


def drop_table(name: str) -> Request:
    # the drop leaves two records: the decision and the deletion
    return Request("drop", "DELETE", f"{BASE}/tables/{name}", principal=ADMIN,
                   expect=1, audit=2)


def change_grant(kind: str, name: str, grantee: str) -> Request:
    """``kind`` is ``grant`` or ``revoke`` of MODIFY on one table."""
    body = {"metastore": METASTORE, "securable_kind": "TABLE",
            "securable_name": name, "principal": grantee, "privilege": "MODIFY"}
    if kind == "grant":
        return Request(kind, "POST", f"{BASE}/grants", principal=ADMIN,
                       params={}, body=body, status=201)
    return Request(kind, "DELETE", f"{BASE}/grants", principal=ADMIN,
                   params={}, body=body)


def check(request: Request, status: int, payload: Any) -> bool:
    """The oracle: does this response match the ground-truth model?"""
    if status != request.status:
        return False
    if status >= 400:
        return True  # an expected denial, answered as a denial
    kind, expect = request.kind, request.expect
    if kind.endswith("get"):
        leaf, comment = expect
        return payload["name"] == leaf and (
            comment is None or payload["comment"] == comment)
    if kind.endswith("resolve"):
        return payload["assets"].keys() == expect
    if kind.endswith("list"):
        return len(payload["items"]) == expect
    if kind == "has_privilege":
        return payload["allowed"] is expect
    if kind == "grants":
        return len(payload["grants"]) == expect
    if kind in ("update", "create"):
        return payload["comment"] == expect
    if kind == "rename":
        return payload["name"] == expect
    if kind == "drop":
        return payload["deleted"] == expect
    return True  # grant / revoke: the status is the answer


# -- drivers -------------------------------------------------------------------


class RouterDriver:
    """In-process requests through ``ServiceRouter.handle``.

    Decodes the body and encodes the payload around ``handle``, as
    ``http_server`` does, so JSON shares the request's time.
    """

    def __init__(self, router, tracer=None):
        self._handle = router.handle
        self._tracer = tracer
        self.requests = 0
        self.bytes_out = 0

    def issue(self, request: Request) -> tuple[float, bool]:
        tracer = self._tracer
        start = _perf()
        if tracer is None:
            body = json.loads(request.body) if request.body else None
            status, payload = self._handle(
                request.method, request.path, principal=request.principal,
                params=request.params, body=body)
            out = json.dumps(payload)
        else:
            frame = tracer.enter("json.decode")
            body = json.loads(request.body) if request.body else None
            tracer.exit(frame)
            status, payload = self._handle(
                request.method, request.path, principal=request.principal,
                params=request.params, body=body)
            frame = tracer.enter("json.encode")
            out = json.dumps(payload)
            tracer.exit(frame)
        elapsed = _perf() - start
        self.requests += 1
        self.bytes_out += len(out)
        return elapsed, check(request, status, payload)


class HttpDriver:
    """One client connection to the HTTP server child, over a raw socket.

    Reuses the connection when the server allows it and counts every
    connect, so ``http_server.connections_per_request`` reads 1.0 against
    today's HTTP/1.0 server and would fall with keep-alive.
    """

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self._address = (host, port)
        self._timeout = timeout
        self._sock: Optional[socket.socket] = None
        self.requests = 0
        self.connects = 0
        self.bytes_in = 0

    def prepare(self, request: Request) -> None:
        target = quote(request.path)
        if request.params:
            target += "?" + urlencode(request.params)
        body = request.body or b""
        head = (
            f"{request.method} {target} HTTP/1.1\r\n"
            f"Host: {self._address[0]}\r\n"
            f"X-Unity-Principal: {request.principal}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        )
        request.wire = head.encode() + body

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def _exchange(self, wire: bytes) -> tuple[int, bytes]:
        if self._sock is None:
            self._sock = socket.create_connection(self._address, self._timeout)
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.connects += 1
        sock = self._sock
        sock.sendall(wire)
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed before the headers ended")
            data += chunk
        head, _, rest = data.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        version, status = lines[0].split(b" ", 2)[:2]
        headers = {
            k.strip().lower(): v.strip()
            for k, _, v in (line.partition(b":") for line in lines[1:])
        }
        length = int(headers[b"content-length"])
        while len(rest) < length:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed before the body ended")
            rest += chunk
        if version == b"HTTP/1.0" or headers.get(b"connection", b"").lower() == b"close":
            self.close()
        return int(status), rest

    def issue(self, request: Request, since: Optional[float] = None) -> tuple[float, bool]:
        """Send and read one response; ``since`` (the open loop's due
        time) replaces the send time as the start of the timing."""
        start = _perf() if since is None else since
        self.requests += 1
        try:
            status, data = self._exchange(request.wire)
        except (OSError, ValueError, KeyError):
            # refused, reset, timed out or unparseable: a failed request
            self.close()
            return _perf() - start, False
        elapsed = _perf() - start
        self.bytes_in += len(data)
        return elapsed, check(request, status, json.loads(data))


# -- loops -----------------------------------------------------------------------


class Window:
    """What one measured window produced."""

    def __init__(self):
        self.elapsed = 0.0
        self.ops = 0
        self.failed = 0
        #: request kind -> latencies in seconds
        self.samples: dict[str, list[float]] = {}
        #: open loop only: how late each request was sent, seconds
        self.lateness: list[float] = []

    def merge(self, other: "Window") -> None:
        self.ops += other.ops
        self.failed += other.failed
        for kind, values in other.samples.items():
            self.samples.setdefault(kind, []).extend(values)
        self.lateness.extend(other.lateness)


def _run_threads(workers: Sequence[Callable[[], Window]]) -> list[Window]:
    if len(workers) == 1:
        return [workers[0]()]
    results: list[Any] = [None] * len(workers)

    def run(index: int) -> None:
        try:
            results[index] = workers[index]()
        except BaseException as exc:  # re-raised on the calling thread
            results[index] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(workers))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return results


def closed_loop(
    issuers: Sequence[Callable[[Request], tuple[float, bool]]],
    streams: Sequence[Sequence[Request]],
    cursors: list[int],
    seconds: float,
    begin_request: Optional[Callable[[int], None]] = None,
    whole_passes: bool = False,
) -> Window:
    """One closed-loop window: thread ``t`` sends ``streams[t]`` through
    ``issuers[t]``, the next request only after the previous completed.

    Streams are cyclic; ``cursors`` carries each thread's position from
    window to window so consecutive windows continue the same stream.
    ``whole_passes`` lets a lane finish the pass over its stream that is
    under way when the time is up, so that what it sent — and every count
    the program made of it — is the same on every run.
    """
    lanes = len(issuers)
    start = _perf()
    deadline = start + seconds

    def worker(lane: int) -> Callable[[], Window]:
        def run() -> Window:
            issue, stream = issuers[lane], streams[lane]
            size, cursor = len(stream), cursors[lane]
            window = Window()
            samples = window.samples
            while _perf() < deadline or (whole_passes and cursor % size):
                request = stream[cursor % size]
                if begin_request is not None:
                    begin_request(cursor * lanes + lane)
                elapsed, ok = issue(request)
                cursor += 1
                bucket = samples.get(request.kind)
                if bucket is None:
                    bucket = samples[request.kind] = []
                bucket.append(elapsed)
                if not ok:
                    window.failed += 1
            window.ops = cursor - cursors[lane]
            cursors[lane] = cursor
            return window
        return run

    merged = Window()
    for window in _run_threads([worker(lane) for lane in range(lanes)]):
        merged.merge(window)
    merged.elapsed = _perf() - start
    return merged


def open_loop(
    issuers: Sequence[Callable[..., tuple[float, bool]]],
    stream: Sequence[Request],
    cursor: list[int],
    seconds: float,
    rate: float,
) -> Window:
    """One open-loop window at a fixed ``rate`` (requests per second).

    Request ``i`` is *due* at ``start + i / rate`` whatever happened to
    the requests before it; its latency runs from that due time, so a
    stall is charged to every request it delays. ``lateness`` records how
    long after its due time each request was actually sent.
    """
    start = _perf()
    total = int(seconds * rate)
    ticket = itertools.count()
    first = cursor[0]

    def worker(lane: int) -> Callable[[], Window]:
        def run() -> Window:
            issue = issuers[lane]
            window = Window()
            while True:
                index = next(ticket)
                if index >= total:
                    break
                due = start + index / rate
                wait = due - _perf()
                if wait > 0:
                    time.sleep(wait)
                window.lateness.append(max(0.0, _perf() - due))
                request = stream[(first + index) % len(stream)]
                elapsed, ok = issue(request, due)
                window.samples.setdefault(request.kind, []).append(elapsed)
                window.ops += 1
                if not ok:
                    window.failed += 1
            return window
        return run

    merged = Window()
    for window in _run_threads([worker(lane) for lane in range(len(issuers))]):
        merged.merge(window)
    merged.elapsed = _perf() - start
    cursor[0] = first + total
    return merged
