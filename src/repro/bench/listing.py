"""The list/resolve benchmark (``python -m repro.bench.listing``).

Drives a list-heavy workload — browse catalogs, list a catalog's
schemas, list a schema's tables, point-get and resolve tables — against
two *uncached* service instances that differ only in how their store is
read: the unindexed baseline (:mod:`repro.bench.scan_only`, mode
``memory``: every lookup is a filtered full scan) versus the in-memory
engine itself (mode ``treecat``: every lookup is a range read over
prefix-ordered keys and the tree index).

The estate comes from :mod:`repro.workloads`: a heavy-tailed synthetic
deployment (deep catalogs, wide schemas) generated once and bulk-loaded
into both backends with identical entity ids, plus a governed grant
surface (a reader group and per-securable noise grantees) that makes
the baseline's per-child ``grants_on`` scans O(grant-table size).

Two phases:

* **performance** — a closed loop of clients on simulated time; each
  request charges costs from *measured* store work (snapshot reads,
  batched reads, range scans, rows examined), so the speedup is the
  scan work the tree index actually avoids, not a tuned constant.
* **equivalence** — a fixed, seeded op script runs against both
  backends; results (listed entities, resolved metadata, errors) and
  audit trails must be byte-identical. The tree index is an
  optimization: it must never change an answer.

Writes ``BENCH_listing.json``. ``--check`` exits non-zero when the tree
backend's list/resolve throughput is below 5x the baseline's, any
equivalence comparison fails, or a same-seed rerun differs
(:mod:`repro.bench.harness`).
"""

from __future__ import annotations

import itertools
import json
import random
from typing import Any, Optional

from repro.bench import harness
from repro.bench.harness import MODEL, audit_fingerprint, strip_ids
from repro.bench.scan_only import ScanOnlyMetadataStore
from repro.clock import SimClock
from repro.core.auth.privileges import Privilege, PrivilegeGrant
from repro.core.model.entity import SecurableKind
from repro.core.persistence.memory import InMemoryMetadataStore
from repro.core.persistence.store import Tables, WriteOp
from repro.core.service.catalog_service import UnityCatalogService
from repro.errors import UnityCatalogError

DB_CAPACITY_QPS = 50_000.0

ADMIN = "admin"
READER = "alice"
GROUP = "analysts"

PRIVS = {
    SecurableKind.CATALOG: Privilege.USE_CATALOG,
    SecurableKind.SCHEMA: Privilege.USE_SCHEMA,
    SecurableKind.TABLE: Privilege.SELECT,
}


# ---------------------------------------------------------------------------
# estate construction (shared across backends: identical ids everywhere)


class Estate:
    """One synthetic metastore population plus the workload name pools."""

    def __init__(self, seed: int, max_tables: int):
        from repro.workloads import DeploymentConfig, generate_deployment

        config = DeploymentConfig(
            seed=seed,
            metastores=1,
            catalog_mode=6.0, catalog_cap=8,
            schema_mode=4.0, schema_cap=6,
            tables_per_catalog_mode=80.0, tables_cap=2_000,
            volumes_per_catalog_mode=2.0, volumes_cap=40,
        )
        deployment = generate_deployment(config)
        self.source_id = deployment.metastores[0].id
        # order (and truncate) by qualified NAME, never by minted id —
        # ids are fresh uuids per generation, names reproduce per seed
        self.catalogs = sorted(deployment.catalogs, key=lambda e: e.name)
        catalog_by_id = {c.id: c for c in self.catalogs}
        self.schemas = sorted(
            (s for s in deployment.schemas if s.parent_id in catalog_by_id),
            key=lambda s: (catalog_by_id[s.parent_id].name, s.name),
        )
        self.schema_names = {
            s.id: f"{catalog_by_id[s.parent_id].name}.{s.name}"
            for s in self.schemas
        }
        self.tables = sorted(
            (t for t in deployment.tables if t.parent_id in self.schema_names),
            key=lambda t: (self.schema_names[t.parent_id], t.name),
        )[:max_tables]
        self.volumes = sorted(
            (v for v in deployment.volumes if v.parent_id in self.schema_names),
            key=lambda v: (self.schema_names[v.parent_id], v.name),
        )[:max_tables // 8]

        self.catalog_names = [c.name for c in self.catalogs]
        self.table_names = {
            t.id: f"{self.schema_names[t.parent_id]}.{t.name}"
            for t in self.tables
        }
        #: tables safe to resolve with credentials disabled
        self.resolvable = sorted(
            self.table_names[t.id] for t in self.tables
            if t.spec.get("table_type") == "MANAGED"
        )

    def entities(self):
        return self.catalogs + self.schemas + self.tables + self.volumes

    def granted(self):
        """(entity, privilege) pairs the reader group and noise users get."""
        for catalog in self.catalogs:
            yield catalog, Privilege.USE_CATALOG
        for schema in self.schemas:
            yield schema, Privilege.USE_SCHEMA
        for table in self.tables:
            yield table, Privilege.SELECT


def _build_service(backend: str, estate: Estate, noise_grantees: int):
    """An uncached service over ``backend``, bulk-loaded with the estate.

    The population is committed straight through the store contract (the
    service API would re-mint ids); both backends receive byte-identical
    rows, so any later divergence is the backend's fault.
    """
    store = (InMemoryMetadataStore() if backend == "treecat"
             else ScanOnlyMetadataStore())
    service = UnityCatalogService(store=store, clock=SimClock(),
                                  enable_cache=False)
    directory = service.directory
    directory.add_user(ADMIN)
    directory.add_user(READER)
    directory.add_group(GROUP)
    directory.add_member(GROUP, READER)
    noise = [f"user{i:02d}" for i in range(noise_grantees)]
    for name in noise:
        directory.add_user(name)

    mid = service.create_metastore("listbench", owner=ADMIN).id
    ops: list[WriteOp] = []
    for entity in estate.entities():
        row = dict(entity.to_dict())
        row["metastore_id"] = mid
        if row.get("parent_id") == estate.source_id:
            row["parent_id"] = mid
        ops.append(WriteOp.put(Tables.ENTITIES, entity.id, row))
    for entity, privilege in estate.granted():
        for grantee in [GROUP, *noise]:
            grant = PrivilegeGrant(entity.id, grantee, privilege, ADMIN, 0.0)
            ops.append(WriteOp.put(Tables.GRANTS, grant.key, grant.to_dict()))
    store.commit(mid, store.current_version(mid), ops)
    return service, mid


# ---------------------------------------------------------------------------
# the op script (seeded, shared by every phase and backend)


def _op_script(estate: Estate, seed: int, count: int) -> list[tuple]:
    """List-heavy mix: mostly directory browsing, some point reads."""
    rng = random.Random(seed)
    schemas = sorted(estate.schema_names.values())
    tables = sorted(estate.table_names.values())
    ops: list[tuple] = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.15:
            ops.append(("list_catalogs",))
        elif roll < 0.40:
            ops.append(("list_schemas", rng.choice(estate.catalog_names)))
        elif roll < 0.70:
            ops.append(("list_tables", rng.choice(schemas)))
        elif roll < 0.80:
            ops.append(("get", rng.choice(tables)))
        else:
            pool = estate.resolvable or tables
            ops.append(("resolve", sorted(
                rng.sample(pool, min(3, len(pool))))))
    return ops


def _execute(service, mid: str, op: tuple):
    kind = op[0]
    try:
        if kind == "list_catalogs":
            result = service.list_securables(mid, READER, SecurableKind.CATALOG)
        elif kind == "list_schemas":
            result = service.list_securables(mid, READER, SecurableKind.SCHEMA,
                                             parent_name=op[1])
        elif kind == "list_tables":
            result = service.list_securables(mid, READER, SecurableKind.TABLE,
                                             parent_name=op[1])
        elif kind == "get":
            result = service.get_securable(mid, READER, SecurableKind.TABLE,
                                           op[1])
        else:  # resolve
            result = service.resolve_for_query(
                mid, READER, list(op[1]),
                include_credentials=False, engine_trusted=True,
            )
    except UnityCatalogError as exc:
        return {"error": type(exc).__name__}
    return result


def _fingerprint(result) -> Any:
    if isinstance(result, dict):  # an error marker
        return result
    if isinstance(result, list):  # listed entities (already name-sorted)
        return [strip_ids(e.to_dict()) for e in result]
    if hasattr(result, "assets"):  # a QueryResolution
        return {
            "assets": [
                {
                    "full_name": asset.full_name,
                    "table_type": asset.table_type,
                    "format": asset.format,
                    "columns": asset.columns,
                    "fgac": strip_ids(asset.fgac.to_dict()),
                }
                for asset in (result.assets[k] for k in sorted(result.assets))
            ],
        }
    return strip_ids(result.to_dict())  # a single entity


def _run_script(backend: str, estate: Estate, ops: list[tuple],
                noise_grantees: int) -> dict[str, str]:
    service, mid = _build_service(backend, estate, noise_grantees)
    outcomes = [_fingerprint(_execute(service, mid, op)) for op in ops]
    return {
        "results": json.dumps(outcomes, sort_keys=True),
        "audit": json.dumps(audit_fingerprint(service), sort_keys=True),
    }


# ---------------------------------------------------------------------------
# performance phase


def _request_fn(service, mid, ops, db):
    """One workload request; charges simulated cost from measured work."""
    counter = itertools.count()

    def request(now: float) -> float:
        before = harness.work_snapshot(service)
        _execute(service, mid, ops[next(counter) % len(ops)])
        work = harness.work_snapshot(service) - before

        t = now + MODEL.network_rtt
        # every snapshot open, batched read, and range read is one DB
        # query; every row the backend examined is scan work
        queries = work.reads + work.multi_gets + work.range_scans
        if queries or work.scan_rows:
            t = db.submit(t, queries=queries, scan_rows=work.scan_rows)
        return t

    return request


def _run_mode(backend: str, estate, ops, args) -> dict[str, Any]:
    service, mid = _build_service(backend, estate, args.noise_grantees)
    store = service.store
    db = harness.db_server(DB_CAPACITY_QPS)
    return {
        "backend": backend,
        **harness.closed_loop(args.clients, args.duration,
                              _request_fn(service, mid, ops, db)),
        "db_queries": db.total_queries,
        "store_scan_rows": store.scan_row_count,
        "store_range_scans": store.range_scan_count,
        "store_multi_gets": store.multi_get_count,
    }


# ---------------------------------------------------------------------------


def run_bench(args) -> dict[str, Any]:
    estate = Estate(args.seed, args.max_tables)
    ops = _op_script(estate, args.seed, args.script_ops)

    report: dict[str, Any] = {
        "config": {
            "seed": args.seed,
            "catalogs": len(estate.catalogs),
            "schemas": len(estate.schemas),
            "tables": len(estate.tables),
            "volumes": len(estate.volumes),
            "noise_grantees": args.noise_grantees,
            "script_ops": args.script_ops,
            "clients": args.clients,
            "duration_s": args.duration,
            "db_capacity_qps": DB_CAPACITY_QPS,
        },
        "modes": {
            "treecat": _run_mode("treecat", estate, ops, args),
            "memory": _run_mode("memory", estate, ops, args),
        },
    }
    flat = report["modes"]["memory"]
    tree = report["modes"]["treecat"]
    report["speedup"] = {
        "throughput_x": tree["throughput_qps"] / flat["throughput_qps"]
        if flat["throughput_qps"] else float("inf"),
        "p50_x": flat["p50_ms"] / tree["p50_ms"]
        if tree["p50_ms"] else float("inf"),
        "scan_rows_ratio": flat["store_scan_rows"] / tree["store_scan_rows"]
        if tree["store_scan_rows"] else float("inf"),
    }

    script = ops[: args.equivalence_ops]
    sides = {
        backend: _run_script(backend, estate, script, args.noise_grantees)
        for backend in ("memory", "treecat")
    }
    identical_results = sides["memory"]["results"] == sides["treecat"]["results"]
    identical_audits = sides["memory"]["audit"] == sides["treecat"]["audit"]
    report["equivalence"] = {
        "ops": len(script),
        "identical_results": identical_results,
        "identical_audits": identical_audits,
    }
    report["checks"] = {
        "speedup_at_least_5x": report["speedup"]["throughput_x"] >= 5.0,
        "identical_results": identical_results,
        "identical_audits": identical_audits,
    }
    return report


def _options(parser) -> None:
    parser.add_argument("--max-tables", type=int, default=260)
    parser.add_argument("--noise-grantees", type=int, default=4,
                        help="extra grantees per securable (grant rows the "
                             "baseline rescans on every visibility check)")
    parser.add_argument("--script-ops", type=int, default=64)
    parser.add_argument("--equivalence-ops", type=int, default=24)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--duration", type=float, default=0.2,
                        help="simulated seconds per closed-loop run")


def _summary(report: dict[str, Any]) -> str:
    lines = [
        f"{mode:>8}: {stats['throughput_qps']:>10,.0f} req/s"
        f"  p50 {stats['p50_ms']:.3f} ms  p99 {stats['p99_ms']:.3f} ms"
        f"  rows scanned {stats['store_scan_rows']:,}"
        f"  range scans {stats['store_range_scans']:,}"
        for mode, stats in report["modes"].items()
    ]
    s = report["speedup"]
    lines.append(f" speedup: {s['throughput_x']:.1f}x throughput, "
                 f"{s['p50_x']:.1f}x p50, "
                 f"{s['scan_rows_ratio']:.0f}x fewer rows scanned")
    e = report["equivalence"]
    lines.append(f" equivalence: {e['ops']} ops, "
                 f"results identical={e['identical_results']}, "
                 f"audits identical={e['identical_audits']}")
    return "\n".join(lines)


SCENARIO = harness.Scenario(
    name="listing", doc=__doc__, seed=19, run=run_bench, summary=_summary,
    options=_options,
)


def main(argv: Optional[list[str]] = None) -> int:
    return harness.main(SCENARIO, argv)


if __name__ == "__main__":
    raise SystemExit(main())
