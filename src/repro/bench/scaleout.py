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
``--check`` runs everything twice and fails on divergence, or when
8-shard read throughput is less than 3x the single shard's.

``run_scaleout`` is importable for the chaos determinism suite, which
re-runs the 4-shard mode at a 10% injected fault rate and requires zero
user-visible errors (dark-shard reads degrade to the router's
last-known-good cache instead of failing).

``--failover`` switches to the replica-group chaos bench: a 2-shard,
3-replica cluster serves a mixed read/write trace on simulated time; the
leader of the hot catalog's shard is killed mid-trace via a fault-rule
crash. Gates: **zero** user-visible read errors across the whole trace,
a write-unavailability window bounded by 1.5x the leader lease, a
fencing-token rejection for the deposed leader's in-flight write, and a
final state byte-identical (modulo random uuids) to a no-failure twin
run fed only the accepted writes.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from random import Random
from typing import Any, Optional

from repro.bench.latency import DbServerModel, LatencyModel
from repro.bench.loadgen import run_closed_loop
from repro.bench.wallclock import run_threaded_loop
from repro.clock import SimClock
from repro.core.auth.privileges import Privilege
from repro.core.cluster import CatalogCluster
from repro.core.model.entity import SecurableKind
from repro.core.persistence.store import Tables
from repro.errors import (
    FencingTokenError,
    LeaseExpiredError,
    UnityCatalogError,
)
from repro.faults import FaultInjector
from repro.obs import Observability

MODEL = LatencyModel()
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

#: failover chaos mode: fleet shape, trace length and the availability gate
FAILOVER_SHARDS = 2
FAILOVER_REPLICAS = 3
FAILOVER_LEASE_S = 0.25
FAILOVER_OPS = 400
FAILOVER_CRASH_AT = 150
FAILOVER_STEP_S = 0.005
FAILOVER_WRITE_EVERY = 10
FAILOVER_SCATTER_EVERY = 16
#: the write-unavailability window may span the (jittered) remaining
#: lease plus the gap to the next write attempt, never more
FAILOVER_WINDOW_FACTOR = 1.5


class _ShardServer:
    """One shard's simulated capacity: a FIFO CPU ahead of its DB."""

    def __init__(self):
        self.cpu_free = 0.0
        self.db = DbServerModel(
            MODEL, capacity_qps=DB_CAPACITY_QPS,
            response_floor=MODEL.db_point_read,
        )
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


def _work_snapshot(service) -> tuple:
    auth = service.authorizer
    store = service.store
    return (
        auth.evaluations,
        auth.identity_expansions,
        auth.grant_rows_examined + auth.policy_rows_examined,
        store.read_count + getattr(store, "multi_get_count", 0),
        store.scan_row_count,
    )


def _work_cost(before: tuple, after: tuple) -> tuple[float, int, int]:
    """(cpu seconds, db queries, db scan rows) from two work snapshots."""
    evals = after[0] - before[0]
    expands = after[1] - before[1]
    rows = after[2] - before[2]
    queries = after[3] - before[3]
    scans = after[4] - before[4]
    cpu = (BASE_REQUEST_CPU
           + (evals + expands) * MODEL.auth_check
           + rows * MODEL.cache_probe)
    return cpu, queries, scans


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
                name: _work_snapshot(shard.service)
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
                    before[name], _work_snapshot(shard.service)
                )
                done = max(done, servers[name].submit(
                    now + MODEL.network_rtt, cpu, queries, scans
                ))
            return done + drift
        catalog = catalog_names[i % len(catalog_names)]
        names = query_sets[catalog][i % QUERY_SETS_PER_CATALOG]
        owner = cluster.router.owner_for(mid, catalog)
        service = cluster.shard_named(owner).service
        before = _work_snapshot(service)
        try:
            cluster.dispatch("resolve_for_query", metastore_id=mid,
                             principal=READER, table_names=names,
                             include_credentials=False)
        except UnityCatalogError:
            state["errors"] += 1
            return now + MODEL.network_rtt
        drift = clock.now() - drift0
        cpu, queries, scans = _work_cost(before, _work_snapshot(service))
        return servers[owner].submit(
            now + MODEL.network_rtt, cpu, queries, scans
        ) + drift

    result = run_closed_loop(clients, duration, request,
                             warmup=duration * 0.2)
    summary = result.latency_summary()
    snapshot = cluster.obs.metrics.snapshot()
    stale_reads = sum(
        value for key, value in snapshot.items()
        if key.startswith("uc_shard_stale_reads_total")
    )
    return {
        "shards": shards,
        "completed": result.completed,
        "throughput_qps": result.throughput,
        "p50_ms": summary["p50"] * 1000,
        "p99_ms": summary["p99"] * 1000,
        "mean_ms": summary["mean"] * 1000,
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
            before = _work_snapshot(service)
            cluster.dispatch("resolve_for_query", metastore_id=mid,
                             principal=READER, table_names=names,
                             include_credentials=False)
            cpu, queries, scans = _work_cost(before, _work_snapshot(service))
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
        "bench": "scaleout",
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


# -- failover chaos mode -----------------------------------------------------


_FAILOVER_TABLES = (Tables.ENTITIES, Tables.GRANTS, Tables.TAGS,
                    Tables.POLICIES, Tables.COMMITS, Tables.SHARES)


def entity_tokens(snapshot, mid: str) -> dict[str, str]:
    """Every entity id of a snapshot mapped to a ``<KIND:path>`` token,
    the path walked up ``parent_id`` below the metastore
    (``<SCHEMA:cat0.s0>``): stable across two separately built clusters,
    whose uuids differ, and distinct for same-named entities under
    different parents."""
    rows = {value["id"]: value for _, value in snapshot.scan(Tables.ENTITIES)
            if isinstance(value, dict) and "id" in value and "kind" in value}
    tokens = {mid: "<metastore>"}
    for entity_id, value in rows.items():
        names = [str(value.get("name"))]
        parent = rows.get(value.get("parent_id"))
        while parent is not None and parent["id"] != mid:
            names.append(str(parent.get("name")))
            parent = rows.get(parent.get("parent_id"))
        tokens[entity_id] = f"<{value['kind']}:{'.'.join(reversed(names))}>"
    return tokens


def _normalized_state(replica, mid: str) -> str:
    """One replica's full governed state with every random uuid rewritten
    to its :func:`entity_tokens` token — byte-comparable across two
    separately built clusters, and fingerprint-stable across runs."""
    store = replica.store.inner
    snap = store.snapshot(mid)
    ids = entity_tokens(snap, mid)

    def norm(obj):
        if isinstance(obj, str):
            for raw, token in ids.items():
                if raw in obj:
                    obj = obj.replace(raw, token)
            return obj
        if isinstance(obj, dict):
            return {norm(k): norm(v) for k, v in sorted(obj.items())}
        if isinstance(obj, (list, tuple)):
            return [norm(v) for v in obj]
        return obj

    state = {
        "version": store.current_version(mid),
        "rows": {
            table: sorted(
                ([norm(key), norm(value)] for key, value in snap.scan(table)),
                key=lambda kv: repr(kv[0]),
            )
            for table in _FAILOVER_TABLES
        },
    }
    return json.dumps(state, sort_keys=True)


def _cluster_state(cluster, mid: str) -> str:
    """The whole cluster's governed rows, uuid-normalized and merged
    across shards. Shard placement hashes on the (random) metastore id,
    so two separately built clusters are only comparable cluster-wide —
    per-shard contents and version counters legitimately differ."""
    merged: dict[str, dict[str, Any]] = {t: {} for t in _FAILOVER_TABLES}
    for shard in cluster.shards:
        state = json.loads(_normalized_state(shard.group.leader(), mid))
        for table, rows in state["rows"].items():
            for key, value in rows:
                # broadcast rows (the metastore root) repeat identically
                # on every shard; everything else lives on exactly one
                merged[table][json.dumps(key, sort_keys=True)] = value
    return json.dumps({table: sorted(rows.items())
                       for table, rows in merged.items()}, sort_keys=True)


def _build_failover_cluster(seed: int) -> tuple:
    clock = SimClock()
    obs = Observability(clock=clock)
    faults = FaultInjector(clock, seed=seed, metrics=obs.metrics)
    cluster = CatalogCluster(
        FAILOVER_SHARDS, clock=clock, obs=obs, faults=faults,
        replicas_per_shard=FAILOVER_REPLICAS,
        lease_duration=FAILOVER_LEASE_S,
        read_preference="nearest_fresh",
    )
    directory = cluster.directory
    directory.add_user(ADMIN)
    directory.add_user(READER)
    directory.add_group("analysts")
    directory.add_member("analysts", READER)
    # a seeded metastore id: placement hashes on it, and the trace (which
    # writes land on the crashed shard, how many lease draws happen) must
    # be identical run to run and between the chaos run and its twin
    mid = cluster.dispatch("create_metastore", name="failbench",
                           owner=ADMIN, region="us-west",
                           metastore_id=f"{0xFA11BE4C ^ seed:032x}").id
    for c in range(4):
        catalog = f"cat{c}"
        cluster.dispatch("create_securable", metastore_id=mid,
                         principal=ADMIN, kind=SecurableKind.CATALOG,
                         name=catalog)
        cluster.dispatch("grant", metastore_id=mid, principal=ADMIN,
                         kind=SecurableKind.CATALOG, name=catalog,
                         grantee="analysts", privilege=Privilege.USE_CATALOG)
        cluster.dispatch("create_securable", metastore_id=mid,
                         principal=ADMIN, kind=SecurableKind.SCHEMA,
                         name=f"{catalog}.s0")
        cluster.dispatch("grant", metastore_id=mid, principal=ADMIN,
                         kind=SecurableKind.SCHEMA, name=f"{catalog}.s0",
                         grantee="analysts", privilege=Privilege.USE_SCHEMA)
        cluster.dispatch(
            "create_securable", metastore_id=mid, principal=ADMIN,
            kind=SecurableKind.TABLE, name=f"{catalog}.s0.t0",
            spec={"table_type": "MANAGED", "format": "DELTA",
                  "columns": [{"name": "id", "type": "BIGINT"}]},
        )
        cluster.dispatch("grant", metastore_id=mid, principal=ADMIN,
                         kind=SecurableKind.TABLE, name=f"{catalog}.s0.t0",
                         grantee="analysts", privilege=Privilege.SELECT)
    return cluster, mid, faults


def run_failover_trace(seed: int, *, crash: bool,
                       skip_writes: frozenset = frozenset()) -> dict[str, Any]:
    """One kill-the-leader trace on simulated time.

    ``crash=False`` with ``skip_writes`` set to a prior crash run's
    rejected writes is the *twin*: the same trace and clock advances
    minus the failure — the two runs must end byte-identical.
    """
    cluster, mid, faults = _build_failover_cluster(seed)
    target = "cat0"
    owner = cluster.router.owner_for(mid, target)
    group = cluster.shard_named(owner).group
    session = cluster.read_session()

    reads = read_errors = writes_accepted = 0
    rejected: list[str] = []
    crash_time = first_accept_time = None
    old_leader = crash_op = None

    for i in range(FAILOVER_OPS):
        if crash and i == FAILOVER_CRASH_AT:
            old_leader = group.leader()
            crash_op = f"replica.{owner}.{old_leader.name}.serve"
            faults.crash(crash_op)
            crash_time = cluster.clock.now()
        if i % FAILOVER_WRITE_EVERY == 0:
            name = f"{target}.s0.w{i}"
            if name not in skip_writes:
                try:
                    cluster.dispatch(
                        "create_securable", metastore_id=mid,
                        principal=ADMIN, kind=SecurableKind.TABLE, name=name,
                        spec={"table_type": "MANAGED", "format": "DELTA",
                              "columns": [{"name": "id", "type": "BIGINT"}]},
                        _session=session,
                    )
                    writes_accepted += 1
                    if crash_time is not None and first_accept_time is None:
                        first_accept_time = cluster.clock.now()
                except LeaseExpiredError:
                    rejected.append(name)
        elif i % FAILOVER_SCATTER_EVERY == 0:
            try:
                cluster.dispatch("list_securables", metastore_id=mid,
                                 principal=READER,
                                 kind=SecurableKind.CATALOG,
                                 _session=session)
                reads += 1
            except UnityCatalogError:
                read_errors += 1
        else:
            try:
                cluster.dispatch("get_securable", metastore_id=mid,
                                 principal=READER, kind=SecurableKind.TABLE,
                                 name=f"{target}.s0.t0", _session=session)
                reads += 1
            except UnityCatalogError:
                read_errors += 1
        cluster.clock.advance(FAILOVER_STEP_S)

    # a deposed leader's in-flight mutation must die on its stale
    # fencing token, not fork history
    fenced_rejection = False
    if old_leader is not None:
        try:
            old_leader.service.dispatch(
                "create_securable", metastore_id=mid, principal=ADMIN,
                kind=SecurableKind.CATALOG, name="zombie",
            )
        except FencingTokenError as exc:
            fenced_rejection = exc.code == "FENCED_LEADER"
        except UnityCatalogError:
            fenced_rejection = False

    # lift the crash and stream the old leader back up, then require
    # every replica of every shard to agree byte-for-byte
    if crash_op is not None:
        faults.restore(crash_op)
    converged = True
    for shard in cluster.shards:
        shard.group.replicate()
        states = {_normalized_state(replica, mid)
                  for replica in shard.group.replicas}
        converged = converged and len(states) == 1

    snapshot = cluster.obs.metrics.snapshot()

    def total(prefix: str, *needles: str) -> float:
        return sum(v for k, v in snapshot.items()
                   if k.startswith(prefix) and all(n in k for n in needles))

    window = None
    if crash_time is not None and first_accept_time is not None:
        window = first_accept_time - crash_time
    return {
        "reads": reads,
        "read_errors": read_errors,
        "writes_accepted": writes_accepted,
        "writes_rejected": rejected,
        "write_window_s": window,
        "epoch": group.epoch,
        "failovers": total("uc_replica_failovers_total"),
        "fenced_writes": total("uc_replica_fenced_writes_total"),
        "fenced_rejection": fenced_rejection,
        "replicas_converged": converged,
        "follower_reads": total("uc_replica_reads_total", 'role="follower"'),
        "state": _cluster_state(cluster, mid),
    }


def run_failover(seed: int = 11) -> dict[str, Any]:
    """Kill-the-leader chaos run + its no-failure twin, with gates."""
    chaos = run_failover_trace(seed, crash=True)
    twin = run_failover_trace(
        seed, crash=False, skip_writes=frozenset(chaos["writes_rejected"])
    )
    window_bound = FAILOVER_LEASE_S * FAILOVER_WINDOW_FACTOR
    report: dict[str, Any] = {
        "bench": "failover",
        "config": {
            "seed": seed,
            "shards": FAILOVER_SHARDS,
            "replicas_per_shard": FAILOVER_REPLICAS,
            "lease_duration_s": FAILOVER_LEASE_S,
            "ops": FAILOVER_OPS,
            "crash_at_op": FAILOVER_CRASH_AT,
            "step_s": FAILOVER_STEP_S,
            "write_window_bound_s": window_bound,
        },
        "chaos": {k: v for k, v in chaos.items() if k != "state"},
        "twin": {
            "writes_accepted": twin["writes_accepted"],
            "writes_rejected": twin["writes_rejected"],
            "read_errors": twin["read_errors"],
        },
    }
    report["checks"] = {
        "zero_read_errors": (chaos["read_errors"] == 0
                             and twin["read_errors"] == 0),
        "write_window_bounded": (chaos["write_window_s"] is not None
                                 and chaos["write_window_s"] <= window_bound),
        "failover_completed": (chaos["failovers"] == 1
                               and chaos["epoch"] == 2),
        "deposed_leader_fenced": chaos["fenced_rejection"],
        "replicas_converged": (chaos["replicas_converged"]
                               and twin["replicas_converged"]),
        "twin_state_identical": chaos["state"] == twin["state"],
        "twin_rejected_nothing": twin["writes_rejected"] == [],
    }
    return report


def fingerprint(report: dict[str, Any]) -> str:
    return json.dumps(report, sort_keys=True)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.scaleout", description=__doc__
    )
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--shards", type=int, nargs="+", default=[1, 2, 4, 8])
    parser.add_argument("--clients", type=int, default=48)
    parser.add_argument("--duration", type=float, default=0.3,
                        help="simulated seconds per closed-loop run")
    parser.add_argument("--fault-rate", type=float, default=0.0)
    parser.add_argument("--out", default=None,
                        help="report path (default BENCH_scaleout.json, or "
                             "BENCH_failover.json with --failover)")
    parser.add_argument("--check", action="store_true",
                        help="run twice; fail on scaling or determinism")
    parser.add_argument("--failover", action="store_true",
                        help="run the kill-the-leader replica-group chaos "
                             "bench instead of the scale-out sweep")
    parser.add_argument("--wallclock", action="store_true",
                        help="also measure real-thread req/s at "
                             f"{WALLCLOCK_SHARDS} shards (reported in a "
                             "'wallclock' section, never fingerprinted)")
    parser.add_argument("--wallclock-threads", type=int,
                        default=WALLCLOCK_THREADS)
    parser.add_argument("--wallclock-duration", type=float,
                        default=WALLCLOCK_DURATION_S,
                        help="real seconds per wall-clock measurement")
    args = parser.parse_args(argv)

    if args.failover:
        return _main_failover(args)
    args.out = args.out or "BENCH_scaleout.json"
    report = run_scaleout(
        args.seed, tuple(args.shards), clients=args.clients,
        duration=args.duration, fault_rate=args.fault_rate,
    )
    deterministic = None
    if args.check:
        # determinism is judged on the simulated report only, before any
        # (inherently noisy) wall-clock section is attached
        second = run_scaleout(
            args.seed, tuple(args.shards), clients=args.clients,
            duration=args.duration, fault_rate=args.fault_rate,
        )
        deterministic = fingerprint(report) == fingerprint(second)
        report["checks"]["deterministic"] = deterministic

    if args.wallclock:
        report["wallclock"] = run_wallclock(
            args.seed, threads=args.wallclock_threads,
            duration=args.wallclock_duration,
        )
        report["checks"]["wallclock_scaling_ok"] = \
            report["wallclock"]["scaling_ok"]

    out_dir = os.path.dirname(args.out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for shards in args.shards:
        mode = report["modes"][str(shards)]
        print(f"{shards:>2} shard(s): {mode['throughput_qps']:>10,.0f} req/s"
              f"  p50 {mode['p50_ms']:.3f} ms  p99 {mode['p99_ms']:.3f} ms"
              f"  scaling {report['scaling'][str(shards)]:.2f}x"
              f"  errors {mode['user_errors']}")
    if "wallclock" in report:
        wc = report["wallclock"]
        for shards, mode in wc["modes"].items():
            print(f"wallclock {shards:>2} shard(s): "
                  f"{mode['throughput_qps']:>8,.0f} req/s measured"
                  f"  ({mode['completed']} requests, "
                  f"{mode['errors']} errors, "
                  f"service {mode['service_time_ms']:.2f} ms)")
        top = str(max(wc["shard_counts"]))
        print(f"wallclock speedup: {wc['speedup'][top]:.2f}x at {top} "
              f"shards (gate {wc['min_speedup']:.1f}x)")
    print(f"wrote {args.out}")

    if args.check:
        failed = [name for name, ok in report["checks"].items() if not ok]
        if failed:
            print(f"CHECK FAILED: {', '.join(failed)}", file=sys.stderr)
            return 1
        print("checks OK")
    return 0


def _main_failover(args) -> int:
    out = args.out or "BENCH_failover.json"
    report = run_failover(args.seed)
    if args.check:
        second = run_failover(args.seed)
        report["checks"]["deterministic"] = \
            fingerprint(report) == fingerprint(second)

    out_dir = os.path.dirname(out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    chaos = report["chaos"]
    print(f"failover: {chaos['reads']} reads, {chaos['read_errors']} read "
          f"errors, {chaos['writes_accepted']} writes accepted, "
          f"{len(chaos['writes_rejected'])} rejected in the failure window")
    print(f"write-unavailability window: {chaos['write_window_s']:.3f}s "
          f"(bound {report['config']['write_window_bound_s']:.3f}s), "
          f"epoch {chaos['epoch']}, "
          f"fenced rejection: {chaos['fenced_rejection']}")
    print(f"wrote {out}")

    failed = [name for name, ok in report["checks"].items() if not ok]
    if failed:
        print(f"CHECK FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    print("checks OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
