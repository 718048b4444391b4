"""Ablations of the section 4.5 cache design choices.

1. Reconciliation: naive evict-all vs change-event selective invalidation
   (the paper describes both; selective should do far less DB work when a
   node falls slightly behind).
2. Eviction: LRU vs LFU hit rates under a Zipf access pattern.
3. Batching: one batched resolution call vs per-securable API calls for a
   nested view over many base tables ("a common example is nested views
   ... that depend on 100s of base tables").
"""

from __future__ import annotations

import random

from benchmarks.conftest import write_report
from repro.bench.latency import LatencyModel
from repro.bench.report import render_table
from repro.clock import SimClock
from repro.core.cache.eviction import LfuPolicy, LruPolicy
from repro.core.cache.node import MetastoreCacheNode, ReconcileMode
from repro.core.model.entity import Entity, SecurableKind
from repro.core.persistence.memory import InMemoryMetadataStore
from repro.core.persistence.store import Tables, WriteOp
from repro.core.service.catalog_service import UnityCatalogService

MODEL = LatencyModel()
MID = "m1"


def _entity_row(i: int) -> dict:
    # counter ids, not uuids: the store scans in key order, so the cache
    # warms (and the eviction ablation runs) the same way on every run
    entity = Entity(
        id=f"{i:032x}", kind=SecurableKind.CATALOG, name=f"cat{i}",
        metastore_id=MID, parent_id=MID, owner="admin",
        created_at=0.0, updated_at=0.0,
    )
    return entity.to_dict()


def _reconcile_cost(mode: ReconcileMode, population: int,
                    out_of_band_writes: int) -> tuple[int, int]:
    """(DB point reads, scanned rows) one stale node pays to catch up and
    serve one read after ``out_of_band_writes`` it missed."""
    store = InMemoryMetadataStore()
    store.create_metastore_slot(MID)
    rows = [_entity_row(i) for i in range(population)]
    for i, row in enumerate(rows):
        store.commit(MID, i, [WriteOp.put(Tables.ENTITIES, row["id"], row)])
    node = MetastoreCacheNode(store, MID, clock=SimClock(), reconcile_mode=mode)
    node.warm()
    version = node.known_version
    for i in range(out_of_band_writes):
        updated = dict(rows[i], comment=f"v{i}")
        store.commit(MID, version + i,
                     [WriteOp.put(Tables.ENTITIES, updated["id"], updated)])
    reads_before = store.read_count
    scans_before = store.scan_row_count
    snapshot = node.view()  # detects staleness, reconciles
    for row in rows[:20]:  # serve a few reads post-reconcile
        snapshot.get(Tables.ENTITIES, row["id"])
    list(snapshot.scan(Tables.ENTITIES))
    return store.read_count - reads_before, store.scan_row_count - scans_before


def test_ablation_reconciliation_strategy(benchmark):
    population, writes = 2000, 10
    selective = benchmark.pedantic(
        _reconcile_cost, args=(ReconcileMode.SELECTIVE, population, writes),
        rounds=1, iterations=1,
    )
    evict_all = _reconcile_cost(ReconcileMode.EVICT_ALL, population, writes)

    def cost(reads_scans):
        reads, scans = reads_scans
        return reads * MODEL.db_point_read + scans * MODEL.db_scan_row

    rows = [
        ["SELECTIVE (change events)", selective[0], selective[1],
         f"{cost(selective) * 1000:.2f}"],
        ["EVICT_ALL (naive)", evict_all[0], evict_all[1],
         f"{cost(evict_all) * 1000:.2f}"],
    ]
    report = render_table(
        ["strategy", "DB point reads", "rows re-scanned", "catch-up cost (ms)"],
        rows,
        title=(f"Ablation - reconciliation after {writes} missed writes "
               f"over {population} assets"),
    )
    write_report("ablation_reconcile.txt", report)
    assert selective[1] < evict_all[1] / 5, \
        "selective invalidation re-reads far fewer rows"


def test_ablation_eviction_policy(benchmark):
    """Zipf accesses with a scan-storm in the middle: LFU keeps the hot
    head; LRU gets flushed by the one-off scan."""
    population = 1000
    capacity = 100
    accesses = 20_000

    def run(policy_factory):
        store = InMemoryMetadataStore()
        store.create_metastore_slot(MID)
        rows = [_entity_row(i) for i in range(population)]
        for i, row in enumerate(rows):
            store.commit(MID, i, [WriteOp.put(Tables.ENTITIES, row["id"], row)])
        node = MetastoreCacheNode(
            store, MID, clock=SimClock(),
            eviction_policy=policy_factory(), max_cached_entities=capacity,
        )
        node.warm()
        rng = random.Random(42)
        zipf_weights = [1.0 / (rank + 1) ** 1.1 for rank in range(population)]
        hits_before = node.stats.hits
        for i in range(accesses):
            if accesses // 2 <= i < accesses // 2 + population:
                index = i - accesses // 2  # sequential scan storm
            else:
                index = rng.choices(range(population), weights=zipf_weights)[0]
            # a snapshot per access: each one reaches the node, where a
            # request's view would serve its second read from its memo
            node.view(check_version=False).get(Tables.ENTITIES, rows[index]["id"])
        total = node.stats.hits - hits_before + node.stats.misses
        return node.stats.hits - hits_before, node.stats.misses

    lru_hits, lru_misses = benchmark.pedantic(
        run, args=(LruPolicy,), rounds=1, iterations=1
    )
    lfu_hits, lfu_misses = run(LfuPolicy)
    lru_rate = lru_hits / (lru_hits + lru_misses)
    lfu_rate = lfu_hits / (lfu_hits + lfu_misses)

    report = render_table(
        ["policy", "hits", "misses", "hit rate"],
        [["LRU", lru_hits, lru_misses, f"{lru_rate:.1%}"],
         ["LFU", lfu_hits, lfu_misses, f"{lfu_rate:.1%}"]],
        title=(f"Ablation - eviction policy (Zipf + scan storm, "
               f"capacity {capacity}/{population})"),
    )
    write_report("ablation_eviction.txt", report)
    assert lfu_rate > lru_rate, "LFU resists the scan storm"
    assert lru_rate > 0.3


def test_ablation_batched_resolution(benchmark):
    """One batched call for a view over N bases vs N+1 separate calls."""
    fanouts = (10, 50, 150)
    clock = SimClock()
    service = UnityCatalogService(clock=clock)
    service.directory.add_user("admin")
    mid = service.create_metastore("bench", owner="admin").id
    service.create_securable(mid, "admin", SecurableKind.CATALOG, "cat")
    service.create_securable(mid, "admin", SecurableKind.SCHEMA, "cat.sch")

    rows = []
    ratios = []
    for fanout in fanouts:
        bases = []
        for i in range(fanout):
            name = f"cat.sch.base_{fanout}_{i}"
            service.create_securable(
                mid, "admin", SecurableKind.TABLE, name,
                spec={"table_type": "MANAGED",
                      "columns": [{"name": "a", "type": "INT"}]},
            )
            bases.append(name)
        view_name = f"cat.sch.wide_{fanout}"
        service.create_securable(
            mid, "admin", SecurableKind.TABLE, view_name,
            spec={"table_type": "VIEW", "view_definition": "SELECT 1 AS one",
                  "view_dependencies": bases},
        )

        def batched():
            resolution = service.resolve_for_query(
                mid, "admin", [view_name], engine_trusted=True,
                include_credentials=False,
            )
            assert len(resolution.assets) == fanout + 1
            return MODEL.network_rtt  # one API round trip

        def unbatched():
            for name in [view_name] + bases:
                service.get_securable(mid, "admin", SecurableKind.TABLE, name)
            return MODEL.network_rtt * (fanout + 1)

        batched_rtt = benchmark.pedantic(batched, rounds=1, iterations=1) \
            if fanout == fanouts[0] else batched()
        unbatched_rtt = unbatched()
        ratios.append(unbatched_rtt / batched_rtt)
        rows.append([fanout, f"{batched_rtt * 1000:.2f}",
                     f"{unbatched_rtt * 1000:.2f}",
                     f"{unbatched_rtt / batched_rtt:.0f}x"])

    report = render_table(
        ["view fan-out", "batched RTT cost (ms)", "per-call RTT cost (ms)",
         "network saving"],
        rows, title="Ablation - batched metadata resolution (section 4.5)",
    )
    write_report("ablation_batching.txt", report)
    assert ratios[-1] > 100, "batching collapses 100s of hops into one"
