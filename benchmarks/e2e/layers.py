"""The per-layer metric catalogue and how each value is computed.

Times come from the traced pass (:mod:`.tracing`): ``*_us`` is the mean
*self* time of the layer's spans per request — per write where the name
says so — and counts are the program's own public counters read before
and after the traced window, or the number of spans a wrapper recorded.
"""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile
import time
from typing import Any, Iterable, Optional

from .estate import audit_records_written
from .tracing import STORE_READS, pick

_BACKENDS = ("memory", "treecat", "sqlite")
_PROBES = ("get_us", "multi_get8_us", "children_us", "commit_us")

#: (name, unit, better) — the order BENCHMARK.json lists them in
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("http_server.self_us", "us", "lower"),
    ("http_server.connections_per_request", "count", "lower"),
    ("json.decode_us", "us", "lower"),
    ("json.encode_us", "us", "lower"),
    ("json.bytes_out_per_request", "bytes", "lower"),
    ("rest.self_us", "us", "lower"),
    ("pipeline.self_us", "us", "lower"),
    ("kernel.view_us", "us", "lower"),
    ("kernel.view_calls_per_request", "count", "lower"),
    ("kernel.resolve_us", "us", "lower"),
    ("kernel.authorize_self_us", "us", "lower"),
    ("kernel.mutate_self_us", "us", "lower"),
    ("kernel.commit_attempts_per_write", "count", "lower"),
    ("kernel.commit_conflicts_per_write", "count", "lower"),
    ("auth.authorize_us", "us", "lower"),
    ("auth.calls_per_request", "count", "lower"),
    ("auth.evaluations_per_request", "count", "lower"),
    ("auth.identity_expansions_per_request", "count", "lower"),
    ("cache.decisions.authz_hit_rate", "ratio", "higher"),
    ("cache.decisions.resolution_hit_rate", "ratio", "higher"),
    ("cache.decisions.sync_us", "us", "lower"),
    ("cache.decisions.note_commit_us", "us", "lower"),
    ("cache.decisions.entries", "count", "lower"),
    ("cache.decisions.invalidations_per_write", "count", "lower"),
    ("cache.node.hit_rate", "ratio", "higher"),
    ("cache.node.view_us", "us", "lower"),
    ("cache.node.commit_us", "us", "lower"),
    ("cache.node.version_checks_per_request", "count", "lower"),
    ("view.snapshot_builds_per_request", "count", "lower"),
    ("view.self_us", "us", "lower"),
    ("persistence.read_us", "us", "lower"),
    ("persistence.point_reads_per_request", "count", "lower"),
    ("persistence.multi_gets_per_request", "count", "lower"),
    ("persistence.scan_rows_per_request", "count", "lower"),
    ("persistence.commit_us", "us", "lower"),
    ("persistence.changes_since_us", "us", "lower"),
    ("persistence.branching.read_us", "us", "lower"),
    *((f"persistence.{b}.{p}", "us", "lower") for b in _BACKENDS for p in _PROBES),
    ("batch.self_us", "us", "lower"),
    ("vending.vend_us", "us", "lower"),
    ("vending.cache_hit_rate", "ratio", "higher"),
    ("audit.record_us", "us", "lower"),
    ("audit.records_per_request", "count", "lower"),
    ("events.publish_us", "us", "lower"),
    ("cluster.route_self_us", "us", "lower"),
    ("cluster.legs_per_request", "count", "lower"),
    ("cluster.slowest_leg_us", "us", "lower"),
    ("cluster.twophase_us", "us", "lower"),
    ("cluster.replication.self_us", "us", "lower"),
    ("serve.hop_us", "us", "lower"),
    ("serve.run_us", "us", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("unattributed_us", "us", "lower"),
)


def service_counters(services: Iterable[Any]) -> dict[str, float]:
    """The public work counters of one or more services, summed."""
    out = dict.fromkeys(
        ("evaluations", "identity_expansions", "authz_hits", "authz_misses",
         "resolution_hits", "resolution_misses", "invalidations", "entries",
         "node_hits", "node_misses", "version_checks", "multi_gets",
         "scan_rows", "minted", "vend_hits", "audit_records", "commits",
         "conflicts"), 0.0)
    for service in services:
        out["evaluations"] += service.authorizer.evaluations
        out["identity_expansions"] += service.authorizer.identity_expansions
        for metastore_id in service.metastore_ids():
            bundle = service.hot_caches(metastore_id)
            if bundle is not None:
                out["authz_hits"] += bundle.stats.authz_hits
                out["authz_misses"] += bundle.stats.authz_misses
                out["resolution_hits"] += bundle.stats.resolution_hits
                out["resolution_misses"] += bundle.stats.resolution_misses
                out["invalidations"] += bundle.stats.invalidations
                out["entries"] += len(bundle.decisions) + len(bundle.resolutions)
            node = service.cache_node(metastore_id)
            if node is not None:
                out["node_hits"] += node.stats.hits
                out["node_misses"] += node.stats.misses
                out["version_checks"] += node.stats.version_checks
        out["multi_gets"] += service.store.multi_get_count
        out["scan_rows"] += service.store.scan_row_count
        out["minted"] += service.vendor.stats.minted
        out["vend_hits"] += service.vendor.stats.cache_hits
        out["audit_records"] += audit_records_written(service)
        metrics = service.obs.metrics
        out["commits"] += metrics.get("uc_store_commits_total").value
        out["conflicts"] += metrics.get("uc_store_commit_conflicts_total").value
    return out


def _rate(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(
    totals: dict[str, list],
    counters: dict[str, float],
    *,
    requests: int,
    writes: int,
    cycle_us: float,
    root_us: float,
    overhead_ratio: float,
    extra: Optional[dict[str, float]] = None,
) -> dict[str, float]:
    """All per-layer values for one traced window.

    ``totals`` are the tracer's span totals and ``counters`` the public
    counters, both as *deltas over the window*; ``cycle_us`` is the
    wall-clock time one closed-loop lane spent per request and
    ``root_us`` the part of it inside the outermost span; ``extra``
    carries what only the driver can see (bytes, connections, the HTTP
    round trip, the cluster's leg timings, the backend probes).
    """
    extra = extra or {}

    def per_request(*names: str) -> float:
        return pick(totals, *names)[1] * 1e6 / requests

    def calls(*names: str) -> float:
        return pick(totals, *names)[0] / requests

    writes_or_one = max(writes, 1)
    out = dict.fromkeys((name for name, _, _ in PER_LAYER), 0.0)
    out.update({
        "json.decode_us": per_request("json.decode"),
        "json.encode_us": per_request("json.encode"),
        "rest.self_us": per_request("rest"),
        "pipeline.self_us": per_request("pipeline"),
        "kernel.view_us": per_request("kernel.view"),
        "kernel.view_calls_per_request": calls("kernel.view"),
        "kernel.resolve_us": per_request("kernel.resolve"),
        "kernel.authorize_self_us": per_request("kernel.authorize"),
        "kernel.mutate_self_us": per_request("kernel.mutate"),
        "kernel.commit_attempts_per_write":
            pick(totals, "persistence.commit")[0] / writes_or_one,
        "kernel.commit_conflicts_per_write": counters["conflicts"] / writes_or_one,
        "auth.authorize_us": per_request("auth"),
        "auth.calls_per_request": calls("auth"),
        "auth.evaluations_per_request": counters["evaluations"] / requests,
        "auth.identity_expansions_per_request":
            counters["identity_expansions"] / requests,
        "cache.decisions.authz_hit_rate":
            _rate(counters["authz_hits"], counters["authz_misses"]),
        "cache.decisions.resolution_hit_rate":
            _rate(counters["resolution_hits"], counters["resolution_misses"]),
        "cache.decisions.sync_us": per_request("cache.decisions.sync"),
        "cache.decisions.note_commit_us":
            pick(totals, "cache.decisions.note_commit")[1] * 1e6 / writes_or_one,
        "cache.decisions.invalidations_per_write":
            counters["invalidations"] / writes_or_one,
        "cache.node.hit_rate": _rate(counters["node_hits"], counters["node_misses"]),
        "cache.node.view_us": per_request("cache.node.view"),
        "cache.node.commit_us": per_request("cache.node.commit"),
        "cache.node.version_checks_per_request":
            counters["version_checks"] / requests,
        "view.snapshot_builds_per_request": calls("kernel.view.snapshot"),
        "view.self_us": per_request("view"),
        "persistence.read_us": per_request(*STORE_READS),
        "persistence.point_reads_per_request": calls("persistence.get"),
        "persistence.multi_gets_per_request": counters["multi_gets"] / requests,
        "persistence.scan_rows_per_request": counters["scan_rows"] / requests,
        "persistence.commit_us": per_request("persistence.commit"),
        "persistence.changes_since_us": per_request("persistence.changes_since"),
        "persistence.branching.read_us": per_request("persistence.branching"),
        "batch.self_us": per_request("batch"),
        "vending.vend_us": per_request("vending"),
        "vending.cache_hit_rate": _rate(counters["vend_hits"], counters["minted"]),
        "audit.record_us": per_request("audit"),
        "audit.records_per_request": counters["audit_records"] / requests,
        "events.publish_us": per_request("events"),
        "cluster.route_self_us": per_request("cluster") - per_request(
            "cluster.twophase", "cluster.replication"),
        "cluster.twophase_us": per_request("cluster.twophase"),
        "cluster.replication.self_us": per_request("cluster.replication"),
        "trace.overhead_ratio": overhead_ratio,
        "unattributed_us": cycle_us - root_us,
    })
    for name, value in extra.items():
        if name in out:
            out[name] = value
    return out


# -- direct probes of each backend's public contract ---------------------------


def _median_us(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e6


def backend_probes(estate, scratch_dir: str, repeats: int = 100) -> dict[str, float]:
    """Time ``get`` / ``multi_get`` of 8 keys / a schema's children /
    one commit on each backend, over the same estate's rows.

    Every backend is filled through the public API (a service built on
    it), then read through its ``Snapshot`` and the uncached
    ``SnapshotView`` — the same calls the layers above make. The SQLite
    store is a file, as in ``snapshot_reads``.
    """
    from repro.core.model.entity import SecurableKind
    from repro.core.persistence.memory import InMemoryMetadataStore
    from repro.core.persistence.sqlite import SqliteMetadataStore
    from repro.core.persistence.store import Tables, WriteOp
    from repro.core.persistence.treecat import TreeCatMetadataStore
    from repro.core.service.catalog_service import UnityCatalogService
    from repro.core.view import SnapshotView

    from .estate import build

    os.makedirs(scratch_dir, exist_ok=True)
    directory = tempfile.mkdtemp(prefix="probe-", dir=scratch_dir)
    out: dict[str, float] = {}
    try:
        stores = {
            "memory": InMemoryMetadataStore(),
            "treecat": TreeCatMetadataStore(),
            "sqlite": SqliteMetadataStore(os.path.join(directory, "probe.db")),
        }
        for backend, store in stores.items():
            service = UnityCatalogService(store=store, enable_cache=False)
            mid = build(estate, service.directory, service.dispatch)
            schema = service.resolve_name(mid, SecurableKind.SCHEMA, estate.schemas[0])
            ids = [service.resolve_name(mid, SecurableKind.TABLE, name).id
                   for name in estate.table_names[:8]]
            snapshot = store.snapshot(mid)
            view = SnapshotView(snapshot, service.registry)
            version = [store.current_version(mid)]

            def commit():
                version[0] = store.commit(mid, version[0], [
                    WriteOp.put(Tables.TAGS, "probe", {"tags": {"n": str(version[0])}})
                ])

            out[f"persistence.{backend}.get_us"] = _median_us(
                lambda: snapshot.get(Tables.ENTITIES, ids[0]), repeats)
            out[f"persistence.{backend}.multi_get8_us"] = _median_us(
                lambda: snapshot.multi_get(Tables.ENTITIES, ids), repeats)
            out[f"persistence.{backend}.children_us"] = _median_us(
                lambda: view.children(schema.id, SecurableKind.TABLE), repeats)
            out[f"persistence.{backend}.commit_us"] = _median_us(commit, repeats)
        stores["sqlite"].close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return out
