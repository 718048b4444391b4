"""``http_serving``: the paper's mix over real sockets, closed then open loop."""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from typing import Optional

from ..estate import E2000, Estate
from ..harness import (
    HttpDriver,
    Request,
    Window,
    closed_loop,
    get_table,
    change_grant,
    grants_on,
    has_privilege,
    list_tables,
    open_loop,
    resolve,
    schedule,
    zipf_schedule,
)
from ..tracing import Tracer
from .base import Workload

#: per block of 1,000 requests, the paper's mix: 55 % GET tables/{n},
#: 25 % POST resolve, 10 % list, 8.2 % has-privilege / grants, 1.8 %
#: writes; 3 % of the point reads and resolves must be answered 403
MIX = {"get": 530, "get_denied": 20, "resolve": 240, "resolve_denied": 10,
       "list": 100, "has_privilege": 41, "grants": 41, "write": 18}
LANE_BLOCKS = 6         # per closed-loop lane
OPEN_BLOCKS = 4
WARM_BLOCKS = 4
#: the open-loop phase's fixed arrival rate, requests per second
OPEN_RATE = 400.0
#: share of each window spent in the closed phase; the rest is open loop
CLOSED_SHARE = 0.45
WRITE_POOL = 80
TEMPLATES = 150
_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))))


class HttpServing(Workload):
    name = "http_serving"
    why = ("UnityCatalogHttpServer in a child process, the paper's 98.2 % read mix "
           "over real sockets: transport and JSON are over four fifths of a request")
    lanes = 2
    intended = (("http_server", "json"), 0.70)
    classes = {"read": ("get", "resolve", "list", "has_privilege", "grants")}
    # too few for a p99 of their own; they count in throughput and errors
    write_kinds = ("grant", "revoke")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.estate = estate = Estate(seed, E2000)
        self.child: Optional[subprocess.Popen] = None
        self.drivers: list[HttpDriver] = []
        self.open_cursor = [0]
        self._stats: dict = {}
        block = sum(MIX.values())
        blocks = [WARM_BLOCKS] + [LANE_BLOCKS] * self.lanes + [OPEN_BLOCKS]
        hot = estate.hot_names(block * sum(blocks))
        hot_set = set(hot)
        cold = [n for n in estate.table_names if n not in hot_set]
        # Every principal comes from a small fixed set per table, schema or
        # query template, so the (principal, securable) pairs requests touch
        # are a closed set of ~10k cached decisions: full after the warm-up,
        # and cheap enough for a write's note_commit to scan that the
        # transport, not the catalog, sets this workload's numbers.
        pairs = random.Random(f"{self.name}/{seed}/principals")
        self.readers = estate.reader_sets(hot, pairs, 2)
        self.strangers = {n: pairs.choice(estate.strangers(n)) for n in self.readers}
        self.listers = {schema: pairs.choice(estate.readers(schema))
                        for schema in estate.schemas}
        #: (tables, reader, stranger); 2-8 tables, the size fixed by rank
        self.templates = []
        for rank, name in enumerate(list(self.readers)[:TEMPLATES]):
            siblings = [n for n in estate.children(name.rsplit(".", 1)[0])
                        if n != name and n in estate.tables]
            tables = [name] + pairs.sample(siblings, 1 + (rank * 3) % 7)
            self.templates.append(
                (tables, self.readers[name][0], self.strangers[name]))

        pairs.shuffle(cold)

        def stream_of(label: str, count: int) -> list[Request]:
            rng = random.Random(f"{self.name}/{seed}/{label}")
            names = [hot.pop() for _ in range(block * count)]
            queries = itertools.cycle(zipf_schedule(
                rng, self.templates, 1.1, 250 * count))
            # each stream has its own tables to write to, so no two
            # connections ever race on one grant
            free = [cold.pop() for _ in range(WRITE_POOL)]
            granted: list[str] = []
            stream = [self._request(rng, kind, name, queries, free, granted)
                      for kind, name in zip(schedule(rng, MIX, count), names)]
            # revoke what is still granted, so the stream can cycle
            stream.extend(change_grant("revoke", name, "auditors") for name in granted)
            return stream

        self.warm_stream = stream_of("warm", WARM_BLOCKS)
        self.streams = [stream_of(f"lane{lane}", LANE_BLOCKS)
                        for lane in range(self.lanes)]
        self.open_stream = stream_of("open", OPEN_BLOCKS)

    def _request(self, rng, kind: str, name: str, queries, free: list[str],
                 granted: list[str]) -> Request:
        estate = self.estate
        reader = rng.choice(self.readers[name])
        if kind == "get":
            return get_table(name, reader, comment=estate.tables[name]["comment"])
        if kind == "get_denied":
            return get_table(name, self.strangers[name], status=403)
        if kind.startswith("resolve"):
            tables, user, stranger = next(queries)
            if kind == "resolve_denied":
                return resolve(tables, stranger, tables, status=403)
            return resolve(tables, user, tables)
        if kind == "list":
            schema = name.rsplit(".", 1)[0]
            return list_tables(schema, self.listers[schema],
                               len(estate.children(schema)))
        if kind == "has_privilege":
            user = rng.choice([reader, self.strangers[name]])
            return has_privilege(name, user, estate.can_read(user, name))
        if kind == "grants":
            catalog = name.split(".", 1)[0]
            return grants_on(catalog, reader, estate.grant_count(catalog))
        # The 1.8 % writes are grants to (and revokes from) a group no
        # reader belongs to: the commit path runs, nobody's cached decision
        # changes. An entity update here would drop every cached visibility
        # decision (ddl_churn measures that) and the catalog, not the
        # transport this workload exists for, would set the numbers.
        # Oldest first and eight apart, so that on the open loop's two
        # connections a revoke never overtakes its grant.
        if len(granted) >= 8:
            table = granted.pop(0)
            free.append(table)
            return change_grant("revoke", table, "auditors")
        table = free.pop(0)
        granted.append(table)
        return change_grant("grant", table, "auditors")

    # -- the server child ---------------------------------------------------------

    def setup(self, tracer: Optional[Tracer]) -> None:
        self.tracer = tracer
        self.pin()  # the child inherits the mask
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            [_ROOT, os.path.join(_ROOT, "src"), environment.get("PYTHONPATH", "")])
        self.child = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.e2e.server_child",
             "--seed", str(self.seed), "--trace", str(int(tracer is not None))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=_ROOT, env=environment)
        ready = self.child.stdout.readline()
        if not ready:
            raise RuntimeError("the server child exited before it was listening")
        port = json.loads(ready)["port"]
        self.drivers = [HttpDriver("127.0.0.1", port) for _ in range(self.lanes)]
        for request in [*self.warm_stream, *self.open_stream,
                        *(r for stream in self.streams for r in stream)]:
            if request.wire is None:
                self.drivers[0].prepare(request)

    def _command(self, line: str) -> dict:
        self.child.stdin.write(line + "\n")
        self.child.stdin.flush()
        return json.loads(self.child.stdout.readline())

    def teardown(self) -> None:
        super().teardown()
        for driver in self.drivers:
            driver.close()
        self.drivers = []
        if self.child is not None:
            try:
                self.child.stdin.write("quit\n")
                self.child.stdin.close()
            except OSError:
                pass  # already gone; wait() below still reaps it
            try:
                self.child.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.child.kill()
                self.child.wait()
            self.child.stdout.close()
            self.child = None

    # -- driving --------------------------------------------------------------------

    def issuers(self):
        return [driver.issue for driver in self.drivers]

    def window(self, seconds: float, closed_only: bool = False) -> dict[str, Window]:
        """Phase A closed loop on two connections, then phase B open loop
        at ``OPEN_RATE`` timed from each request's due time."""
        if self.tracer is not None:
            self._command("begin")  # number the requests from here
        if closed_only:
            return {"closed": closed_loop(self.issuers(), self.streams,
                                          self.cursors, seconds)}
        closed = closed_loop(self.issuers(), self.streams, self.cursors,
                             seconds * CLOSED_SHARE)
        opened = open_loop(self.issuers(), self.open_stream, self.open_cursor,
                           seconds * (1 - CLOSED_SHARE), OPEN_RATE)
        return {"closed": closed, "open": opened}

    def issued(self) -> list[tuple[list[Request], int]]:
        return super().issued() + [(self.open_stream, self.open_cursor[0])]

    def expected_audit_records(self) -> int:
        # two connections write: a CAS conflict re-runs the write's build,
        # which authorizes (and audits) once more
        return (super().expected_audit_records()
                + int(self._stats["counters"]["conflicts"]))

    def counters(self) -> dict[str, float]:
        self._stats = self._command("stats")
        return self._stats["counters"]

    def span_totals(self) -> dict[str, list]:
        return self._stats["totals"]

    def peak_rss_mb(self) -> float:
        """The server child's peak resident set."""
        return self._command("stats")["peak_rss_mb"]

    def write_spans(self, path: str) -> int:
        return self._command(f"spans {path}")["spans"]

    def driver_extras(self, window: Window) -> dict[str, float]:
        requests = window.ops
        round_trip = sum(sum(v) for v in window.samples.values()) * 1e6 / requests
        return {
            "root_us": round_trip,
            "http_server.connections_per_request":
                sum(d.connects for d in self.drivers) / sum(d.requests for d in self.drivers),
            "json.bytes_out_per_request":
                sum(d.bytes_in for d in self.drivers) / sum(d.requests for d in self.drivers),
        }
