"""Read-throughput scale-out benchmark (``python -m repro.bench.scaleout``).

Drives the same catalog-local query workload against
:class:`~repro.core.cluster.CatalogCluster` instances of 1, 2, 4 and 8
shards on simulated time. Catalogs are placed round-robin across shards
with the online rebalancer (so the hash function's placement luck never
decides the result), and each shard is modelled as a FIFO CPU server
plus a capacity-limited DB server: per-request costs come from
*measured* work deltas on the owning shard (authorization evaluations,
grant/policy rows scanned, store reads), exactly like the hotpath bench.

A single shard saturates its CPU server; adding shards splits the
catalogs — and therefore the measured work — across servers, so
throughput should scale near-linearly until the client population stops
saturating the fleet. A small scatter fraction (cross-shard
``list_securables``) keeps the fan-out path honest.

The run is deterministic end to end: same seed → byte-identical report.
``--check`` runs everything twice (:mod:`repro.bench.harness`) and fails
on divergence, or when 8-shard read throughput is less than 3x the
single shard's.

``run_scaleout`` is importable for the chaos determinism suite, which
re-runs the 4-shard mode at a 10% injected fault rate and requires zero
user-visible errors (dark-shard reads degrade to the router's
last-known-good cache instead of failing).

The kill-the-leader replica-group bench is its own scenario,
:mod:`repro.bench.failover`.
"""

from __future__ import annotations

import itertools
import time
from random import Random
from typing import Any, Optional

from repro.bench import harness
from repro.bench.harness import MODEL, Work
from repro.bench.wallclock import run_threaded_loop
from repro.clock import SimClock
from repro.core.auth.privileges import Privilege
from repro.core.cluster import CatalogCluster
from repro.core.model.entity import SecurableKind
from repro.errors import UnityCatalogError
from repro.faults import FaultInjector
from repro.obs import Observability

#: fixed per-request service CPU (parsing, marshalling, response build) —
#: the floor that bounds a single shard's throughput
BASE_REQUEST_CPU = 0.0001
DB_CAPACITY_QPS = 20_000.0

ADMIN = "admin"
READER = "alice"
CATALOGS = 8
SCHEMAS_PER_CATALOG = 2
TABLES_PER_SCHEMA = 3
QUERY_SETS_PER_CATALOG = 6
TABLES_PER_QUERY = 3
SCATTER_FRACTION = 0.05

#: wall-clock mode: shard counts compared, load threads, measured window
WALLCLOCK_SHARDS = (1, 4)
WALLCLOCK_THREADS = 16
WALLCLOCK_DURATION_S = 0.75
#: emulated service-time floor per unit of shard work — pure-Python CPU
#: cannot parallelize under the GIL, so the wall-clock mode sleeps each
#: request's *modeled* service time on its shard's worker; overlap
#: across shard workers is then genuine wall-clock concurrency
WALLCLOCK_SERVICE_FLOOR_S = 0.002
WALLCLOCK_MIN_SPEEDUP = 1.5


class _ShardServer:
    """One shard's simulated capacity: a FIFO CPU ahead of its DB."""

    def __init__(self):
        self.cpu_free = 0.0
        self.db = harness.db_server(DB_CAPACITY_QPS)
        self.requests = 0

    def submit(self, now: float, cpu: float, queries: int,
               scan_rows: int) -> float:
        self.requests += 1
        start = max(now, self.cpu_free)
        self.cpu_free = start + cpu
        done = self.cpu_free
        if queries or scan_rows:
            done = self.db.submit(done, queries=queries, scan_rows=scan_rows)
        return done


def _work_cost(before: Work, after: Work) -> tuple[float, int, int]:
    """(cpu seconds, db queries, db scan rows) from two work snapshots."""
    work = after - before
    cpu = (BASE_REQUEST_CPU
           + (work.evaluations + work.identity_expansions) * MODEL.auth_check
           + work.rows_examined * MODEL.cache_probe)
    return cpu, work.reads + work.multi_gets, work.scan_rows


def _build_cluster(shards: int, seed: int,
                   breaker_reset_timeout: float) -> tuple:
    """A governed namespace spread round-robin across ``shards`` shards."""
    clock = SimClock()
    obs = Observability(clock=clock)
    faults = FaultInjector(clock, seed=seed, metrics=obs.metrics)
    cluster = CatalogCluster(
        shards, clock=clock, obs=obs, faults=faults,
        read_version_check=False,
        breaker_reset_timeout=breaker_reset_timeout,
    )
    directory = cluster.directory
    directory.add_user(ADMIN)
    directory.add_user(READER)
    directory.add_group("analysts")
    directory.add_member("analysts", READER)

    mid = cluster.create_metastore("scalebench", owner=ADMIN).id
    catalog_names = [f"cat{c}" for c in range(CATALOGS)]
    for index, catalog in enumerate(catalog_names):
        cluster.dispatch("create_securable", metastore_id=mid,
                         principal=ADMIN, kind=SecurableKind.CATALOG,
                         name=catalog)
        # balanced placement via the online rebalancer, not hash luck
        cluster.migrate_catalog(
            mid, catalog, f"shard-{index % shards}"
        ).run()
        cluster.dispatch("grant", metastore_id=mid, principal=ADMIN,
                         kind=SecurableKind.CATALOG, name=catalog,
                         grantee="analysts", privilege=Privilege.USE_CATALOG)
        for s in range(SCHEMAS_PER_CATALOG):
            schema = f"{catalog}.s{s}"
            cluster.dispatch("create_securable", metastore_id=mid,
                             principal=ADMIN, kind=SecurableKind.SCHEMA,
                             name=schema)
            cluster.dispatch("grant", metastore_id=mid, principal=ADMIN,
                             kind=SecurableKind.SCHEMA, name=schema,
                             grantee="analysts", privilege=Privilege.USE_SCHEMA)
            for t in range(TABLES_PER_SCHEMA):
                table = f"{schema}.t{t}"
                cluster.dispatch(
                    "create_securable", metastore_id=mid, principal=ADMIN,
                    kind=SecurableKind.TABLE, name=table,
                    spec={
                        "table_type": "MANAGED",
                        "format": "DELTA",
                        "columns": [{"name": "id", "type": "BIGINT"},
                                    {"name": "v", "type": "STRING"}],
                    },
                )
                cluster.dispatch("grant", metastore_id=mid, principal=ADMIN,
                                 kind=SecurableKind.TABLE, name=table,
                                 grantee="analysts",
                                 privilege=Privilege.SELECT)

    rng = Random(seed)
    table_names = {
        catalog: [
            f"{catalog}.s{s}.t{t}"
            for s in range(SCHEMAS_PER_CATALOG)
            for t in range(TABLES_PER_SCHEMA)
        ]
        for catalog in catalog_names
    }
    query_sets = {
        catalog: [
            sorted(rng.sample(names, TABLES_PER_QUERY))
            for _ in range(QUERY_SETS_PER_CATALOG)
        ]
        for catalog, names in table_names.items()
    }
    return cluster, mid, catalog_names, query_sets, faults


def _warm(cluster, mid: str, catalog_names, query_sets) -> None:
    """Touch every query shape once: warms node/fast-path caches and the
    router's last-known-good cache, so later dark-shard reads degrade."""
    for catalog in catalog_names:
        for names in query_sets[catalog]:
            cluster.dispatch("resolve_for_query", metastore_id=mid,
                             principal=READER, table_names=names,
                             include_credentials=False)
    cluster.dispatch("list_securables", metastore_id=mid, principal=READER,
                     kind=SecurableKind.CATALOG)


def run_mode(
    shards: int,
    seed: int,
    *,
    clients: int = 48,
    duration: float = 0.3,
    fault_rate: float = 0.0,
    breaker_reset_timeout: float = 0.5,
) -> dict[str, Any]:
    """One cluster size: build, rebalance, warm, drive the closed loop."""
    cluster, mid, catalog_names, query_sets, faults = _build_cluster(
        shards, seed, breaker_reset_timeout
    )
    _warm(cluster, mid, catalog_names, query_sets)
    if fault_rate > 0:
        # setup and warmup ran clean; degrade the shard dispatch path now
        for shard in cluster.shards:
            faults.inject(f"shard.{shard.name}.dispatch", fault_rate,
                          kind="throttle")

    servers = {shard.name: _ShardServer() for shard in cluster.shards}
    rng = Random(seed ^ 0x5CA1E)
    clock = cluster.clock
    state = {"i": 0, "errors": 0}

    def request(now: float) -> float:
        i = state["i"]
        state["i"] = i + 1
        drift0 = clock.now()
        if rng.random() < SCATTER_FRACTION:
            before = {
                name: harness.work_snapshot(shard.service)
                for name, shard in cluster._by_name.items()
            }
            try:
                cluster.dispatch("list_securables", metastore_id=mid,
                                 principal=READER,
                                 kind=SecurableKind.CATALOG)
            except UnityCatalogError:
                state["errors"] += 1
                return now + MODEL.network_rtt
            drift = clock.now() - drift0
            done = now
            for name, shard in cluster._by_name.items():
                cpu, queries, scans = _work_cost(
                    before[name], harness.work_snapshot(shard.service)
                )
                done = max(done, servers[name].submit(
                    now + MODEL.network_rtt, cpu, queries, scans
                ))
            return done + drift
        catalog = catalog_names[i % len(catalog_names)]
        names = query_sets[catalog][i % QUERY_SETS_PER_CATALOG]
        owner = cluster.router.owner_for(mid, catalog)
        service = cluster.shard_named(owner).service
        before = harness.work_snapshot(service)
        try:
            cluster.dispatch("resolve_for_query", metastore_id=mid,
                             principal=READER, table_names=names,
                             include_credentials=False)
        except UnityCatalogError:
            state["errors"] += 1
            return now + MODEL.network_rtt
        drift = clock.now() - drift0
        cpu, queries, scans = _work_cost(before, harness.work_snapshot(service))
        return servers[owner].submit(
            now + MODEL.network_rtt, cpu, queries, scans
        ) + drift

    loop = harness.closed_loop(clients, duration, request)
    snapshot = cluster.obs.metrics.snapshot()
    stale_reads = sum(
        value for key, value in snapshot.items()
        if key.startswith("uc_shard_stale_reads_total")
    )
    return {
        "shards": shards,
        **loop,
        "user_errors": state["errors"],
        "stale_reads": stale_reads,
        "per_shard_requests": {
            name: server.requests for name, server in servers.items()
        },
        "faults_injected": sum(
            value for key, value in snapshot.items()
            if key.startswith("uc_faults_injected_total")
        ),
    }


def run_wallclock_mode(
    shards: int,
    seed: int,
    *,
    threads: int = WALLCLOCK_THREADS,
    duration: float = WALLCLOCK_DURATION_S,
) -> dict[str, Any]:
    """Measured req/s with real threads against a parallel serving tier.

    The cluster build, placement and warmup are identical to the
    simulated mode. Each request's service time is *calibrated* from the
    same measured work deltas the simulated mode charges (CPU model +
    DB model), then emulated as a real sleep on the owning shard's
    worker — so shard workers overlap exactly where the model says
    independent shards would, and the measured speedup is honest on a
    2-core CI runner where sleeping threads need no cores.
    """
    from repro.serve import ParallelServingTier

    cluster, mid, catalog_names, query_sets, _ = _build_cluster(
        shards, seed, breaker_reset_timeout=0.5
    )
    _warm(cluster, mid, catalog_names, query_sets)

    # calibrate the mean modeled service time over every query shape
    costs = []
    for catalog in catalog_names:
        owner = cluster.router.owner_for(mid, catalog)
        service = cluster.shard_named(owner).service
        for names in query_sets[catalog]:
            before = harness.work_snapshot(service)
            cluster.dispatch("resolve_for_query", metastore_id=mid,
                             principal=READER, table_names=names,
                             include_credentials=False)
            cpu, queries, scans = _work_cost(before, harness.work_snapshot(service))
            costs.append(cpu + queries * MODEL.db_point_read
                         + scans * MODEL.db_scan_row)
    service_time = max(sum(costs) / len(costs), WALLCLOCK_SERVICE_FLOOR_S)

    def worker_wrap(shard_name: str, fn):
        result = fn()
        time.sleep(service_time)
        return result

    def request_factory(index: int):
        rng = Random((seed << 8) ^ index)
        sequence = itertools.count(index * 7919)

        def request() -> bool:
            i = next(sequence)
            try:
                if rng.random() < SCATTER_FRACTION:
                    cluster.dispatch("list_securables", metastore_id=mid,
                                     principal=READER,
                                     kind=SecurableKind.CATALOG)
                else:
                    catalog = catalog_names[i % len(catalog_names)]
                    names = query_sets[catalog][i % QUERY_SETS_PER_CATALOG]
                    cluster.dispatch("resolve_for_query", metastore_id=mid,
                                     principal=READER, table_names=names,
                                     include_credentials=False)
            except UnityCatalogError:
                return False
            return True

        return request

    with ParallelServingTier(cluster, workers_per_shard=1,
                             front_door_workers=threads,
                             worker_wrap=worker_wrap):
        result = run_threaded_loop(threads, duration, request_factory)
    result["shards"] = shards
    result["service_time_ms"] = service_time * 1000
    return result


def run_wallclock(
    seed: int = 11,
    shard_counts: tuple[int, ...] = WALLCLOCK_SHARDS,
    *,
    threads: int = WALLCLOCK_THREADS,
    duration: float = WALLCLOCK_DURATION_S,
) -> dict[str, Any]:
    """The measured-throughput sweep reported next to the simulated one."""
    section: dict[str, Any] = {
        "threads": threads,
        "duration_s": duration,
        "shard_counts": list(shard_counts),
        "min_speedup": WALLCLOCK_MIN_SPEEDUP,
        "modes": {},
    }
    for shards in shard_counts:
        section["modes"][str(shards)] = run_wallclock_mode(
            shards, seed, threads=threads, duration=duration
        )
    base = section["modes"][str(shard_counts[0])]["throughput_qps"]
    section["speedup"] = {
        str(shards): (
            section["modes"][str(shards)]["throughput_qps"] / base
            if base else float("inf")
        )
        for shards in shard_counts
    }
    top = str(max(shard_counts))
    section["scaling_ok"] = section["speedup"][top] >= WALLCLOCK_MIN_SPEEDUP
    return section


def run_scaleout(
    seed: int = 11,
    shard_counts: tuple[int, ...] = (1, 2, 4, 8),
    *,
    clients: int = 48,
    duration: float = 0.3,
    fault_rate: float = 0.0,
    breaker_reset_timeout: float = 0.5,
) -> dict[str, Any]:
    """The full sweep; the returned report is byte-stable per seed."""
    report: dict[str, Any] = {
        "config": {
            "seed": seed,
            "shard_counts": list(shard_counts),
            "clients": clients,
            "duration_s": duration,
            "fault_rate": fault_rate,
            "catalogs": CATALOGS,
            "schemas_per_catalog": SCHEMAS_PER_CATALOG,
            "tables_per_schema": TABLES_PER_SCHEMA,
            "tables_per_query": TABLES_PER_QUERY,
            "scatter_fraction": SCATTER_FRACTION,
            "base_request_cpu_s": BASE_REQUEST_CPU,
            "db_capacity_qps": DB_CAPACITY_QPS,
        },
        "modes": {},
    }
    for shards in shard_counts:
        report["modes"][str(shards)] = run_mode(
            shards, seed, clients=clients, duration=duration,
            fault_rate=fault_rate,
            breaker_reset_timeout=breaker_reset_timeout,
        )
    base = report["modes"][str(shard_counts[0])]["throughput_qps"]
    report["scaling"] = {
        str(shards): (
            report["modes"][str(shards)]["throughput_qps"] / base
            if base else float("inf")
        )
        for shards in shard_counts
    }
    top = str(max(shard_counts))
    report["checks"] = {
        "linear_scaling_ok": report["scaling"][top] >= 3.0,
        "zero_user_errors": all(
            mode["user_errors"] == 0 for mode in report["modes"].values()
        ),
    }
    return report


def _options(parser) -> None:
    parser.add_argument("--shards", type=int, nargs="+", default=[1, 2, 4, 8])
    parser.add_argument("--clients", type=int, default=48)
    parser.add_argument("--duration", type=float, default=0.3,
                        help="simulated seconds per closed-loop run")
    parser.add_argument("--fault-rate", type=float, default=0.0)
    parser.add_argument("--wallclock", action="store_true",
                        help="also measure real-thread req/s at "
                             f"{WALLCLOCK_SHARDS} shards (reported in a "
                             "'wallclock' section, never fingerprinted)")
    parser.add_argument("--wallclock-threads", type=int,
                        default=WALLCLOCK_THREADS)
    parser.add_argument("--wallclock-duration", type=float,
                        default=WALLCLOCK_DURATION_S,
                        help="real seconds per wall-clock measurement")


def _run(args) -> dict[str, Any]:
    return run_scaleout(
        args.seed, tuple(args.shards), clients=args.clients,
        duration=args.duration, fault_rate=args.fault_rate,
    )


def _add_wallclock(args, report: dict[str, Any]) -> None:
    if not args.wallclock:
        return
    report["wallclock"] = run_wallclock(
        args.seed, threads=args.wallclock_threads,
        duration=args.wallclock_duration,
    )
    report["checks"]["wallclock_scaling_ok"] = report["wallclock"]["scaling_ok"]


def _summary(report: dict[str, Any]) -> str:
    lines = []
    for shards, mode in report["modes"].items():
        lines.append(
            f"{shards:>2} shard(s): {mode['throughput_qps']:>10,.0f} req/s"
            f"  p50 {mode['p50_ms']:.3f} ms  p99 {mode['p99_ms']:.3f} ms"
            f"  scaling {report['scaling'][shards]:.2f}x"
            f"  errors {mode['user_errors']}")
    if "wallclock" in report:
        wc = report["wallclock"]
        for shards, mode in wc["modes"].items():
            lines.append(f"wallclock {shards:>2} shard(s): "
                         f"{mode['throughput_qps']:>8,.0f} req/s measured"
                         f"  ({mode['completed']} requests, "
                         f"{mode['errors']} errors, "
                         f"service {mode['service_time_ms']:.2f} ms)")
        top = str(max(wc["shard_counts"]))
        lines.append(f"wallclock speedup: {wc['speedup'][top]:.2f}x at {top} "
                     f"shards (gate {wc['min_speedup']:.1f}x)")
    return "\n".join(lines)


SCENARIO = harness.Scenario(
    name="scaleout", doc=__doc__, seed=11, run=_run, summary=_summary,
    options=_options, wallclock=_add_wallclock,
)


def main(argv: Optional[list[str]] = None) -> int:
    return harness.main(SCENARIO, argv)


if __name__ == "__main__":
    raise SystemExit(main())
