"""Figure 10(b) — latency vs throughput of a query-path read API, with
and without UC's server-side caching.

Paper: "Caching significantly boosts UC's performance, with 3x to 40x
lower latency while scaling to higher request throughputs. Without
caching, the system is bottlenecked by database reads and reaches its
throughput limit at fewer than 10K requests per second."

Reproduction: two real service instances share the latency model — one
with the write-through cache (owning node, memory-served reads), one
serving every request from backend snapshots. Both run on the unindexed
baseline store (:mod:`repro.bench.scan_only`), whose name lookups are
full scans. Closed-loop clients issue the same get-table metadata call;
each request's *actual* logical DB work (point reads + scanned rows,
counted by the instrumented store) flows through a capacity-limited DB
server model, which is what produces the saturation plateau.
"""

from __future__ import annotations

import itertools

from benchmarks.conftest import write_report
from repro.bench.latency import DbServerModel, LatencyModel
from repro.bench.loadgen import run_closed_loop
from repro.bench.report import PAPER_HEADERS, paper_row, render_table
from repro.bench.scan_only import ScanOnlyMetadataStore
from repro.clock import SimClock
from repro.core.model.entity import SecurableKind
from repro.core.service.catalog_service import UnityCatalogService

MODEL = LatencyModel()
DB_CAPACITY_QPS = 50_000.0
CLIENT_COUNTS = (1, 4, 16, 64, 256)
TABLES = 120
DURATION = 0.25


def _build_service(enable_cache: bool):
    clock = SimClock()
    service = UnityCatalogService(
        store=ScanOnlyMetadataStore(), clock=clock,
        enable_cache=enable_cache, read_version_check=False,
    )
    service.directory.add_user("admin")
    mid = service.create_metastore("bench", owner="admin").id
    service.create_securable(mid, "admin", SecurableKind.CATALOG, "cat")
    service.create_securable(mid, "admin", SecurableKind.SCHEMA, "cat.sch")
    names = []
    for i in range(TABLES):
        name = f"cat.sch.t{i}"
        service.create_securable(
            mid, "admin", SecurableKind.TABLE, name,
            spec={"table_type": "MANAGED",
                  "columns": [{"name": "a", "type": "INT"}]},
        )
        names.append(name)
    return service, mid, names


def _request_fn(service, mid, names, db):
    counter = itertools.count()
    store = service.store

    def request(now: float) -> float:
        name = names[next(counter) % len(names)]
        reads_before = store.read_count
        scans_before = store.scan_row_count
        service.get_securable(mid, "admin", SecurableKind.TABLE, name)
        queries = store.read_count - reads_before
        scan_rows = store.scan_row_count - scans_before
        t = now + MODEL.network_rtt + 3 * MODEL.auth_check + MODEL.cache_probe
        if queries or scan_rows:
            t = db.submit(t, queries=queries, scan_rows=scan_rows)
        return t

    return request


def _sweep(enable_cache: bool):
    points = []
    for clients in CLIENT_COUNTS:
        service, mid, names = _build_service(enable_cache)
        db = DbServerModel(MODEL, capacity_qps=DB_CAPACITY_QPS,
                           response_floor=MODEL.db_point_read)
        result = run_closed_loop(
            clients, DURATION, _request_fn(service, mid, names, db),
            warmup=DURATION * 0.25,
        )
        summary = result.latency_summary()
        points.append({
            "clients": clients,
            "throughput": result.throughput,
            "mean_ms": summary["mean"] * 1000,
            "p99_ms": summary["p99"] * 1000,
        })
    return points


def test_fig10b_cache_latency_throughput(benchmark):
    cached = benchmark.pedantic(lambda: _sweep(True), rounds=1, iterations=1)
    uncached = _sweep(False)

    rows = []
    for with_cache, without_cache in zip(cached, uncached):
        rows.append([
            with_cache["clients"],
            f"{with_cache['throughput']:,.0f}",
            f"{with_cache['mean_ms']:.3f}",
            f"{without_cache['throughput']:,.0f}",
            f"{without_cache['mean_ms']:.3f}",
            f"{without_cache['mean_ms'] / with_cache['mean_ms']:.1f}x",
        ])

    peak_uncached = max(p["throughput"] for p in uncached)
    peak_cached = max(p["throughput"] for p in cached)
    ratios = [u["mean_ms"] / c["mean_ms"] for c, u in zip(cached, uncached)]

    summary = [
        paper_row("no-cache throughput plateau", "<10K req/s",
                  f"{peak_uncached:,.0f} req/s", "DB-read bottleneck"),
        paper_row("cache latency advantage", "3x-40x lower",
                  f"{min(ratios):.1f}x-{max(ratios):.1f}x",
                  "grows with load"),
        paper_row("cache scales past the DB limit", "yes",
                  f"{peak_cached:,.0f} req/s "
                  f"({peak_cached / peak_uncached:.0f}x no-cache peak)", ""),
    ]
    lines = [render_table(PAPER_HEADERS, summary,
                          title="Figure 10(b) - caching latency vs throughput")]
    lines.append("")
    lines.append(render_table(
        ["clients", "cached req/s", "cached mean ms", "no-cache req/s",
         "no-cache mean ms", "latency ratio"],
        rows,
    ))
    write_report("fig10b_cache.txt", "\n".join(lines))

    assert peak_uncached < 10_000, "no-cache must saturate under 10K req/s"
    assert peak_cached > 3 * peak_uncached
    assert min(ratios) >= 2.0, "cache wins at every load point"
    assert max(ratios) >= 20.0, "cache advantage grows toward ~40x at load"
