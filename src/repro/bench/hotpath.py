"""The life-of-a-query hot-loop benchmark (``python -m repro.bench.hotpath``).

Drives a warm repeated-query workload — the same principal resolving the
same handful of tables over and over, which is what production query
traffic looks like — against two otherwise-identical service instances:
one with the version-pinned fast path (decision + resolution caches,
batched store reads), one with ``enable_fast_path=False``.

Two phases:

* **equivalence** — a fixed, seeded script of queries interleaved with
  metadata mutations (revoke/grant, rename, ownership transfer, tag and
  ABAC-policy churn) runs against both instances; per-query outcomes
  (resolved metadata, FGAC rules, errors) and the audit trail must be
  byte-identical. The fast path is an optimization: it must never change
  an answer, even immediately after an invalidating write.
* **performance** — a closed loop of clients on simulated time. Each
  request charges costs from *measured* work deltas (authorization
  evaluations, grant/policy rows scanned, cache probes, DB reads), so the
  speedup reflects work actually avoided, not a tuned constant.

Writes ``BENCH_hotpath.json``. ``--check`` exits non-zero when the warm
authorization hit rate drops below 90%, the two modes disagree, or a
same-seed rerun differs (:mod:`repro.bench.harness`).
"""

from __future__ import annotations

import itertools
import json
from typing import Any, Optional

from repro.bench import harness
from repro.bench.harness import MODEL, audit_fingerprint, strip_ids
from repro.bench.wallclock import run_threaded_loop
from repro.clock import SimClock
from repro.core.auth.abac import AbacEffect, TagCondition
from repro.core.auth.privileges import Privilege
from repro.core.model.entity import SecurableKind
from repro.core.service.catalog_service import UnityCatalogService
from repro.errors import UnityCatalogError

DB_CAPACITY_QPS = 50_000.0

ADMIN = "admin"
READER = "alice"
#: extra grantees per securable — grant rows the slow path must scan
NOISE_USERS = 24
CATALOGS = 2
SCHEMAS_PER_CATALOG = 2


def _build_service(fast_path: bool, tables: int):
    """One service with a fully-governed namespace: nested groups, noisy
    grant lists, tags, ABAC policies, and a view per schema."""
    clock = SimClock()
    service = UnityCatalogService(
        clock=clock,
        enable_cache=True,
        read_version_check=False,
        enable_fast_path=fast_path,
    )
    directory = service.directory
    directory.add_user(ADMIN)
    directory.add_user(READER)
    directory.add_user("bob")
    noise = [f"user{i:02d}" for i in range(NOISE_USERS)]
    for name in noise:
        directory.add_user(name)
    # nested groups: alice -> analysts -> data-users -> all-users
    for group in ("all-users", "data-users", "analysts"):
        directory.add_group(group)
    directory.add_member("all-users", "data-users")
    directory.add_member("data-users", "analysts")
    directory.add_member("analysts", READER)
    for name in noise:
        directory.add_member("all-users", name)

    mid = service.create_metastore("hotbench", owner=ADMIN).id

    def grant_all(kind, name, privilege):
        service.grant(mid, ADMIN, kind, name, "analysts", privilege)
        for user in noise:
            service.grant(mid, ADMIN, kind, name, user, privilege)

    table_names: list[str] = []
    view_names: list[str] = []
    for c in range(CATALOGS):
        catalog = f"cat{c}"
        service.create_securable(mid, ADMIN, SecurableKind.CATALOG, catalog)
        grant_all(SecurableKind.CATALOG, catalog, Privilege.USE_CATALOG)
        for s in range(SCHEMAS_PER_CATALOG):
            schema = f"{catalog}.s{s}"
            service.create_securable(mid, ADMIN, SecurableKind.SCHEMA, schema)
            grant_all(SecurableKind.SCHEMA, schema, Privilege.USE_SCHEMA)
    slots = CATALOGS * SCHEMAS_PER_CATALOG
    for i in range(tables):
        c, s = (i % slots) // SCHEMAS_PER_CATALOG, (i % slots) % SCHEMAS_PER_CATALOG
        name = f"cat{c}.s{s}.t{i}"
        service.create_securable(
            mid, ADMIN, SecurableKind.TABLE, name,
            spec={
                "table_type": "MANAGED",
                "format": "DELTA",
                "columns": [
                    {"name": "id", "type": "BIGINT"},
                    {"name": "region", "type": "STRING"},
                    {"name": "amount", "type": "DOUBLE"},
                ],
            },
        )
        grant_all(SecurableKind.TABLE, name, Privilege.SELECT)
        if i % 4 == 0:
            service.set_tag(mid, ADMIN, SecurableKind.TABLE, name, "tier", "gold")
        table_names.append(name)
    for c in range(CATALOGS):
        for s in range(SCHEMAS_PER_CATALOG):
            schema = f"cat{c}.s{s}"
            deps = [t for t in table_names if t.startswith(schema + ".")][:2]
            view = f"{schema}.v"
            service.create_securable(
                mid, ADMIN, SecurableKind.TABLE, view,
                spec={
                    "table_type": "VIEW",
                    "view_definition": f"SELECT * FROM {' JOIN '.join(deps)}",
                    "view_dependencies": deps,
                    "columns": [{"name": "id", "type": "BIGINT"}],
                },
            )
            grant_all(SecurableKind.TABLE, view, Privilege.SELECT)
            view_names.append(view)
    # ABAC: a row filter on everything tagged tier=gold, plus a dynamic
    # grant — both add policy rows the slow path re-evaluates per query
    service.create_abac_policy(
        mid, ADMIN, name="gold-row-filter",
        scope_kind=SecurableKind.METASTORE, scope_name=None,
        condition=TagCondition("tier", "gold"),
        effect=AbacEffect.FILTER_ROWS, predicate_sql="region = 'emea'",
    )
    service.create_abac_policy(
        mid, ADMIN, name="gold-dynamic-select",
        scope_kind=SecurableKind.METASTORE, scope_name=None,
        condition=TagCondition("tier", "gold"),
        effect=AbacEffect.GRANT, privilege=Privilege.SELECT,
        principals=("data-users",),
    )
    return service, mid, table_names, view_names


def _query_sets(args, count: int = 64):
    """A fixed, seeded set of query shapes shared by every phase/mode."""
    import random

    _, _, table_names, view_names = _build_service(True, args.tables)
    rng = random.Random(args.seed)
    names = table_names + view_names
    per_query = min(args.tables_per_query, len(names))
    return [sorted(rng.sample(names, per_query)) for _ in range(count)]


# ---------------------------------------------------------------------------
# equivalence phase


def _asset_fingerprint(asset) -> dict[str, Any]:
    """Engine-visible result, minus minted ids/paths (random per service)."""
    return {
        "full_name": asset.full_name,
        "table_type": asset.table_type,
        "format": asset.format,
        "columns": asset.columns,
        "fgac": strip_ids(asset.fgac.to_dict()),
        "view_definition": asset.view_definition,
        "dependencies": list(asset.dependencies),
        "via_view": asset.via_view,
        "has_credential": asset.credential is not None,
    }


def _run_query(service, mid: str, names: list[str]) -> dict[str, Any]:
    try:
        resolution = service.resolve_for_query(
            mid, READER, names, engine_trusted=True
        )
    except UnityCatalogError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {
        "version": resolution.metastore_version,
        "assets": [
            _asset_fingerprint(resolution.assets[k])
            for k in sorted(resolution.assets)
        ],
    }


def _mutation_script(table_names):
    """Deterministic invalidating writes, exercised between queries.

    Each entry is (apply_fn, description); every mutation is later undone
    so the namespace ends where it started.
    """
    t_revoke = table_names[0]
    t_rename = table_names[1]
    t_owner = table_names[2]
    t_tag = table_names[3]

    script = [
        ("revoke", lambda svc, mid, h: svc.revoke(
            mid, ADMIN, SecurableKind.TABLE, t_revoke, "analysts", Privilege.SELECT)),
        ("regrant", lambda svc, mid, h: svc.grant(
            mid, ADMIN, SecurableKind.TABLE, t_revoke, "analysts", Privilege.SELECT)),
        ("rename", lambda svc, mid, h: svc.rename_securable(
            mid, ADMIN, SecurableKind.TABLE, t_rename,
            t_rename.rsplit(".", 1)[1] + "_moved")),
        ("rename_back", lambda svc, mid, h: svc.rename_securable(
            mid, ADMIN, SecurableKind.TABLE,
            t_rename.rsplit(".", 1)[0] + "." + t_rename.rsplit(".", 1)[1] + "_moved",
            t_rename.rsplit(".", 1)[1])),
        ("chown", lambda svc, mid, h: svc.transfer_ownership(
            mid, ADMIN, SecurableKind.TABLE, t_owner, "bob")),
        ("chown_back", lambda svc, mid, h: svc.transfer_ownership(
            mid, ADMIN, SecurableKind.TABLE, t_owner, ADMIN)),
        ("tag", lambda svc, mid, h: svc.set_tag(
            mid, ADMIN, SecurableKind.TABLE, t_tag, "tier", "gold")),
        ("untag", lambda svc, mid, h: svc.unset_tag(
            mid, ADMIN, SecurableKind.TABLE, t_tag, "tier")),
        ("policy", lambda svc, mid, h: h.__setitem__("p", svc.create_abac_policy(
            mid, ADMIN, name="transient-filter",
            scope_kind=SecurableKind.METASTORE, scope_name=None,
            condition=TagCondition("tier", "gold"),
            effect=AbacEffect.FILTER_ROWS, predicate_sql="amount < 100",
        ).policy_id)),
        ("unpolicy", lambda svc, mid, h: svc.drop_abac_policy(mid, ADMIN, h.pop("p"))),
    ]
    return script


def _equivalence(args, query_sets) -> dict[str, Any]:
    """Run the same query+mutation script on both modes; compare bytes."""
    sides = {}
    for mode, fast in (("fast_path", True), ("no_fast_path", False)):
        service, mid, table_names, _ = _build_service(fast, args.tables)
        script = _mutation_script(table_names)
        handles: dict[str, str] = {}
        outcomes = []
        for i in range(args.queries):
            if i and i % 5 == 0:
                label, apply_fn = script[(i // 5 - 1) % len(script)]
                apply_fn(service, mid, handles)
                outcomes.append({"mutation": label})
            outcomes.append(_run_query(service, mid, query_sets[i % len(query_sets)]))
        sides[mode] = {
            "results": json.dumps(outcomes, sort_keys=True),
            "audit": json.dumps(audit_fingerprint(service), sort_keys=True),
        }
    identical_results = sides["fast_path"]["results"] == sides["no_fast_path"]["results"]
    identical_audits = sides["fast_path"]["audit"] == sides["no_fast_path"]["audit"]
    return {
        "queries": args.queries,
        "identical_results": identical_results,
        "identical_audits": identical_audits,
    }


# ---------------------------------------------------------------------------
# performance phase


def _request_fn(service, mid, bundle, query_sets, db):
    """One hot-loop request; charges simulated cost from measured work."""
    counter = itertools.count()

    def request(now: float) -> float:
        before = harness.work_snapshot(service)
        probes0 = 0
        if bundle is not None:
            s = bundle.stats
            probes0 = (s.authz_hits + s.authz_misses
                       + s.resolution_hits + s.resolution_misses)

        names = query_sets[next(counter) % len(query_sets)]
        service.resolve_for_query(mid, READER, names, engine_trusted=True)

        work = harness.work_snapshot(service) - before
        probes = len(names)  # baseline per-asset bookkeeping in both modes
        if bundle is not None:
            s = bundle.stats
            probes += (s.authz_hits + s.authz_misses
                       + s.resolution_hits + s.resolution_misses) - probes0
        cost = (
            MODEL.network_rtt
            + work.evaluations * MODEL.auth_check
            + work.identity_expansions * MODEL.auth_check
            + work.rows_examined * MODEL.cache_probe
            + probes * MODEL.cache_probe
        )
        t = now + cost
        queries = work.reads + work.multi_gets
        if queries or work.scan_rows:
            t = db.submit(t, queries=queries, scan_rows=work.scan_rows)
        return t

    return request


def _run_mode(fast_path: bool, args, query_sets) -> dict[str, Any]:
    service, mid, _, _ = _build_service(fast_path, args.tables)
    bundle = service.hot_caches(mid)
    db = harness.db_server(DB_CAPACITY_QPS)
    out = {
        "fast_path": fast_path,
        **harness.closed_loop(
            args.clients, args.duration,
            _request_fn(service, mid, bundle, query_sets, db),
        ),
        "db_queries": db.total_queries,
        "authz_hit_rate": None,
        "resolution_hit_rate": None,
    }
    if bundle is not None:
        s = bundle.stats
        out.update(
            authz_hit_rate=s.authz_hit_rate,
            resolution_hit_rate=s.resolution_hit_rate,
            authz_hits=s.authz_hits,
            authz_misses=s.authz_misses,
            resolution_hits=s.resolution_hits,
            resolution_misses=s.resolution_misses,
            invalidations=s.invalidations,
        )
    return out


# ---------------------------------------------------------------------------
# wall-clock phase


def _run_wallclock_mode(fast_path: bool, args, query_sets) -> dict[str, Any]:
    """Measured req/s: real threads hammering ``resolve_for_query``.

    Unlike the simulated phase there is no latency model here at all —
    this is actual Python execution under the GIL, so the numbers are
    machine-dependent and the fast-path speedup reflects CPU work
    genuinely avoided (fewer authorization walks, fewer store reads).
    """
    service, mid, _, _ = _build_service(fast_path, args.tables)
    for names in query_sets:  # warm every query shape once
        service.resolve_for_query(mid, READER, names, engine_trusted=True)

    def request_factory(index: int):
        sequence = itertools.count(index * 7919)

        def request() -> bool:
            names = query_sets[next(sequence) % len(query_sets)]
            try:
                service.resolve_for_query(mid, READER, names,
                                          engine_trusted=True)
            except UnityCatalogError:
                return False
            return True

        return request

    result = run_threaded_loop(args.wallclock_threads,
                               args.wallclock_duration, request_factory)
    result["fast_path"] = fast_path
    return result


def add_wallclock(args, report: dict[str, Any]) -> None:
    """With ``--wallclock``: measured, machine-dependent — reported in a
    ``wallclock`` section, never a gate."""
    if not args.wallclock:
        return
    query_sets = _query_sets(args)
    section = {
        "threads": args.wallclock_threads,
        "duration_s": args.wallclock_duration,
        "modes": {
            "fast_path": _run_wallclock_mode(True, args, query_sets),
            "no_fast_path": _run_wallclock_mode(False, args, query_sets),
        },
    }
    slow = section["modes"]["no_fast_path"]["throughput_qps"]
    fast = section["modes"]["fast_path"]["throughput_qps"]
    section["speedup_x"] = fast / slow if slow else float("inf")
    report["wallclock"] = section


# ---------------------------------------------------------------------------


def run_bench(args) -> dict[str, Any]:
    query_sets = _query_sets(args)
    report: dict[str, Any] = {
        "config": {
            "seed": args.seed,
            "tables": args.tables,
            "views": CATALOGS * SCHEMAS_PER_CATALOG,
            "tables_per_query": args.tables_per_query,
            "clients": args.clients,
            "duration_s": args.duration,
            "equivalence_queries": args.queries,
            "noise_grantees": NOISE_USERS,
            "db_capacity_qps": DB_CAPACITY_QPS,
        },
        "modes": {
            "fast_path": _run_mode(True, args, query_sets),
            "no_fast_path": _run_mode(False, args, query_sets),
        },
    }
    fast = report["modes"]["fast_path"]
    slow = report["modes"]["no_fast_path"]
    report["speedup"] = {
        "throughput_x": fast["throughput_qps"] / slow["throughput_qps"]
        if slow["throughput_qps"] else float("inf"),
        "p50_x": slow["p50_ms"] / fast["p50_ms"] if fast["p50_ms"] else float("inf"),
        "p99_x": slow["p99_ms"] / fast["p99_ms"] if fast["p99_ms"] else float("inf"),
    }
    report["equivalence"] = _equivalence(args, query_sets)
    report["checks"] = {
        "warm_authz_hit_rate_ok": (fast["authz_hit_rate"] or 0.0) >= 0.90,
        "identical_results": report["equivalence"]["identical_results"],
        "identical_audits": report["equivalence"]["identical_audits"],
    }
    return report


def _options(parser) -> None:
    parser.add_argument("--tables", type=int, default=32)
    parser.add_argument("--tables-per-query", type=int, default=8)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--duration", type=float, default=0.4,
                        help="simulated seconds per closed-loop run")
    parser.add_argument("--queries", type=int, default=120,
                        help="equivalence-phase query count")
    parser.add_argument("--wallclock", action="store_true",
                        help="also measure real-thread req/s for both "
                             "modes (reported in a 'wallclock' section)")
    parser.add_argument("--wallclock-threads", type=int, default=8)
    parser.add_argument("--wallclock-duration", type=float, default=0.5,
                        help="real seconds per wall-clock measurement")


def _summary(report: dict[str, Any]) -> str:
    lines = []
    for mode, stats in report["modes"].items():
        line = (f"{mode:>13}: {stats['throughput_qps']:>10,.0f} req/s"
                f"  p50 {stats['p50_ms']:.3f} ms  p99 {stats['p99_ms']:.3f} ms")
        if stats["authz_hit_rate"] is not None:
            line += (f"  authz hit {stats['authz_hit_rate']:.1%}"
                     f"  resolution hit {stats['resolution_hit_rate']:.1%}")
        lines.append(line)
    s = report["speedup"]
    lines.append(f"      speedup: {s['throughput_x']:.1f}x throughput, "
                 f"{s['p50_x']:.1f}x p50, {s['p99_x']:.1f}x p99")
    e = report["equivalence"]
    lines.append(f"  equivalence: {e['queries']} queries, "
                 f"results identical={e['identical_results']}, "
                 f"audits identical={e['identical_audits']}")
    if "wallclock" in report:
        wc = report["wallclock"]
        for mode, stats in wc["modes"].items():
            lines.append(f"wallclock {mode:>13}: "
                         f"{stats['throughput_qps']:>8,.0f} req/s measured "
                         f"({stats['completed']} requests, "
                         f"{stats['errors']} errors)")
        lines.append(f"wallclock speedup: {wc['speedup_x']:.2f}x with "
                     f"{wc['threads']} threads")
    return "\n".join(lines)


SCENARIO = harness.Scenario(
    name="hotpath", doc=__doc__, seed=11, run=run_bench, summary=_summary,
    options=_options, wallclock=add_wallclock,
)


def main(argv: Optional[list[str]] = None) -> int:
    return harness.main(SCENARIO, argv)


if __name__ == "__main__":
    raise SystemExit(main())
