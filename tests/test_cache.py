"""The caching layer: TTL caches, eviction policies, and the
write-through multi-version cache node."""

import pytest

from repro.clock import SimClock
from repro.core.assets.builtin import builtin_registry
from repro.core.cache.eviction import LfuPolicy, LruPolicy
from repro.core.cache.node import MetastoreCacheNode, ReconcileMode
from repro.core.cache.ttl import TtlCache
from repro.core.model.entity import Entity, SecurableKind, new_entity_id
from repro.core.persistence.memory import InMemoryMetadataStore
from repro.core.persistence.store import Tables, WriteOp
from repro.errors import ConcurrentModificationError

MID = "ms-1"


class TestTtlCache:
    def test_get_put(self):
        clock = SimClock()
        cache = TtlCache(ttl_seconds=10, clock=clock)
        cache.put("k", "v")
        assert cache.get("k") == "v"

    def test_expiry(self):
        clock = SimClock()
        cache = TtlCache(ttl_seconds=10, clock=clock)
        cache.put("k", "v")
        clock.advance(10.1)
        assert cache.get("k") is None

    def test_per_entry_ttl_overrides_default(self):
        clock = SimClock()
        cache = TtlCache(ttl_seconds=10, clock=clock)
        cache.put("k", "v", ttl_seconds=100)
        clock.advance(50)
        assert cache.get("k") == "v"

    def test_get_or_load_loads_once(self):
        clock = SimClock()
        cache = TtlCache(ttl_seconds=10, clock=clock)
        calls = []
        loader = lambda: calls.append(1) or "value"
        assert cache.get_or_load("k", loader) == "value"
        assert cache.get_or_load("k", loader) == "value"
        assert len(calls) == 1

    def test_get_or_load_reloads_after_expiry(self):
        clock = SimClock()
        cache = TtlCache(ttl_seconds=10, clock=clock)
        calls = []
        loader = lambda: calls.append(1) or "value"
        cache.get_or_load("k", loader)
        clock.advance(11)
        cache.get_or_load("k", loader)
        assert len(calls) == 2

    def test_invalidate(self):
        clock = SimClock()
        cache = TtlCache(ttl_seconds=10, clock=clock)
        cache.put("k", "v")
        cache.invalidate("k")
        assert cache.get("k") is None

    def test_capacity_bound(self):
        clock = SimClock()
        cache = TtlCache(ttl_seconds=10, clock=clock, max_entries=3)
        for i in range(5):
            cache.put(f"k{i}", i)
        assert len(cache) <= 3

    def test_hit_rate(self):
        clock = SimClock()
        cache = TtlCache(ttl_seconds=10, clock=clock)
        cache.put("k", "v")
        cache.get("k")
        cache.get("missing")
        assert cache.hit_rate == 0.5

    def test_rejects_bad_ttl(self):
        with pytest.raises(ValueError):
            TtlCache(ttl_seconds=0)


class TestEvictionPolicies:
    def test_lru_victim_is_least_recent(self):
        policy = LruPolicy()
        for key in "abc":
            policy.record_access(key)
        policy.record_access("a")  # refresh a
        assert policy.victim() == "b"

    def test_lru_forget(self):
        policy = LruPolicy()
        policy.record_access("a")
        policy.record_access("b")
        policy.forget("a")
        assert policy.victim() == "b"
        assert len(policy) == 1

    def test_lfu_victim_is_least_frequent(self):
        policy = LfuPolicy()
        for _ in range(3):
            policy.record_access("hot")
        policy.record_access("cold")
        assert policy.victim() == "cold"

    def test_lfu_skips_stale_heap_entries(self):
        policy = LfuPolicy()
        policy.record_access("a")
        policy.record_access("a")
        policy.record_access("b")
        policy.forget("b")
        assert policy.victim() == "a"

    def test_empty_victim_is_none(self):
        assert LruPolicy().victim() is None
        assert LfuPolicy().victim() is None


def _entity_row(name: str, parent_id: str = "", path: str = None) -> dict:
    entity = Entity(
        id=new_entity_id(),
        kind=SecurableKind.TABLE if parent_id else SecurableKind.CATALOG,
        name=name,
        metastore_id=MID,
        parent_id=parent_id or MID,
        owner="alice",
        created_at=0.0,
        updated_at=0.0,
        storage_path=path,
        spec={"table_type": "EXTERNAL"} if parent_id else {},
    )
    return entity.to_dict()


@pytest.fixture
def store():
    backend = InMemoryMetadataStore()
    backend.create_metastore_slot(MID)
    return backend


@pytest.fixture
def node(store):
    clock = SimClock()
    cache = MetastoreCacheNode(store, MID, builtin_registry(), clock=clock)
    cache.warm()
    cache._test_clock = clock
    return cache


class TestCacheNode:
    def test_write_through_visible_without_db_read(self, store, node):
        row = _entity_row("cat")
        node.commit([WriteOp.put(Tables.ENTITIES, row["id"], row)])
        reads_before = store.read_count
        view = node.view(check_version=False)
        assert view.entity_by_id(row["id"]).name == "cat"
        assert store.read_count == reads_before  # pure cache hit

    def test_view_checks_db_version(self, store, node):
        # an out-of-band write through another path
        row = _entity_row("cat")
        store.commit(MID, 0, [WriteOp.put(Tables.ENTITIES, row["id"], row)])
        view = node.view()  # triggers reconcile
        assert view.entity_by_id(row["id"]) is not None
        assert node.stats.reconciles == 1

    def test_commit_conflict_triggers_reconcile_and_raises(self, store, node):
        row = _entity_row("cat")
        store.commit(MID, 0, [WriteOp.put(Tables.ENTITIES, row["id"], row)])
        other = _entity_row("cat2")
        with pytest.raises(ConcurrentModificationError):
            node.commit([WriteOp.put(Tables.ENTITIES, other["id"], other)])
        assert node.stats.commit_conflicts == 1
        # after reconciliation the retry works
        node.commit([WriteOp.put(Tables.ENTITIES, other["id"], other)])
        assert node.view(check_version=False).entity_by_id(other["id"]) is not None

    def test_selective_reconcile_invalidates_only_changes(self, store, node):
        rows = [_entity_row(f"cat{i}") for i in range(5)]
        for i, row in enumerate(rows):
            node.commit([WriteOp.put(Tables.ENTITIES, row["id"], row)])
        updated = dict(rows[0], comment="changed")
        store.commit(MID, node.known_version,
                     [WriteOp.put(Tables.ENTITIES, updated["id"], updated)])
        node.view()
        assert node.stats.selective_invalidations == 1
        assert node.view(check_version=False).entity_by_id(
            updated["id"]).comment == "changed"

    def test_evict_all_reconcile_mode(self, store):
        clock = SimClock()
        node = MetastoreCacheNode(
            store, MID, builtin_registry(), clock=clock,
            reconcile_mode=ReconcileMode.EVICT_ALL,
        )
        node.warm()
        row = _entity_row("cat")
        node.commit([WriteOp.put(Tables.ENTITIES, row["id"], row)])
        store.commit(MID, node.known_version,
                     [WriteOp.put(Tables.ENTITIES, "other",
                                  _entity_row("cat2"))])
        view = node.view()
        # evicted everything, but read-through restores correctness
        assert view.entity_by_id(row["id"]).name == "cat"

    def test_name_index_lookup(self, node):
        row = _entity_row("cat")
        node.commit([WriteOp.put(Tables.ENTITIES, row["id"], row)])
        view = node.view(check_version=False)
        assert view.entity_by_name(MID, "catalog", "cat").id == row["id"]
        assert view.entity_by_name(MID, "catalog", "nope") is None

    def test_children_index(self, node):
        catalog = _entity_row("cat")
        node.commit([WriteOp.put(Tables.ENTITIES, catalog["id"], catalog)])
        table = _entity_row("t1", parent_id=catalog["id"])
        node.commit([WriteOp.put(Tables.ENTITIES, table["id"], table)])
        view = node.view(check_version=False)
        children = view.children(catalog["id"])
        assert [c.name for c in children] == ["t1"]

    def test_path_index(self, node):
        from repro.cloudstore.object_store import StoragePath

        catalog = _entity_row("cat")
        table = _entity_row("t1", parent_id=catalog["id"],
                            path="s3://b/tables/t1")
        node.commit([WriteOp.put(Tables.ENTITIES, catalog["id"], catalog),
                     WriteOp.put(Tables.ENTITIES, table["id"], table)])
        view = node.view(check_version=False)
        resolved = view.resolve_path(StoragePath.parse("s3://b/tables/t1/f"))
        assert resolved.id == table["id"]

    def test_soft_deleted_invisible_and_index_cleaned(self, node):
        row = _entity_row("cat")
        node.commit([WriteOp.put(Tables.ENTITIES, row["id"], row)])
        entity = Entity.from_dict(row).soft_deleted(at=1.0)
        node.commit([WriteOp.put(Tables.ENTITIES, row["id"], entity.to_dict())])
        view = node.view(check_version=False)
        assert view.entity_by_id(row["id"]) is None
        assert view.entity_by_name(MID, "catalog", "cat") is None

    def test_multiversion_snapshot_reads(self, node):
        """An in-flight view pinned at an older version keeps seeing old
        values while new views see the write."""
        row = _entity_row("cat")
        node.commit([WriteOp.put(Tables.ENTITIES, row["id"], row)])
        old_view = node.view(check_version=False)
        updated = dict(row, comment="v2")
        node.commit([WriteOp.put(Tables.ENTITIES, row["id"], updated)])
        new_view = node.view(check_version=False)
        assert old_view.entity_by_id(row["id"]).comment == ""
        assert new_view.entity_by_id(row["id"]).comment == "v2"

    def test_version_pruning_after_timeout(self, store):
        clock = SimClock()
        node = MetastoreCacheNode(
            store, MID, builtin_registry(), clock=clock,
            request_timeout_seconds=60,
        )
        node.warm()
        row = _entity_row("cat")
        node.commit([WriteOp.put(Tables.ENTITIES, row["id"], row)])
        for i in range(4):
            node.commit([WriteOp.put(Tables.ENTITIES, row["id"],
                                     dict(row, comment=f"v{i}"))])
        before = node.cached_version_count()
        clock.advance(61)
        node.view(check_version=False).entity_by_id(row["id"])  # lazy prune
        assert node.cached_version_count() < before
        assert node.stats.version_prunes > 0

    def test_eviction_caps_entities(self, store):
        clock = SimClock()
        node = MetastoreCacheNode(
            store, MID, builtin_registry(), clock=clock,
            eviction_policy=LruPolicy(), max_cached_entities=3,
        )
        node.warm()
        rows = [_entity_row(f"cat{i}") for i in range(6)]
        for row in rows:
            node.commit([WriteOp.put(Tables.ENTITIES, row["id"], row)])
        assert node.stats.evictions >= 3
        # evicted entries still readable via read-through
        view = node.view(check_version=False)
        for row in rows:
            assert view.entity_by_id(row["id"]).name == row["name"]

    def test_empty_lfu_policy_is_respected(self, store):
        """Regression: an empty policy is falsy (__len__), and must not be
        silently replaced by the default LRU policy."""
        from repro.core.cache.eviction import LfuPolicy

        clock = SimClock()
        policy = LfuPolicy()
        node = MetastoreCacheNode(
            store, MID, builtin_registry(), clock=clock,
            eviction_policy=policy, max_cached_entities=10,
        )
        assert node._policy is policy

    def test_eviction_during_warm_keeps_reads_correct(self, store):
        """Regression: keys evicted while warming must read through, not
        report authoritative absence."""
        clock = SimClock()
        rows = [_entity_row(f"cat{i}") for i in range(20)]
        for i, row in enumerate(rows):
            store.commit(MID, i, [WriteOp.put(Tables.ENTITIES, row["id"], row)])
        node = MetastoreCacheNode(
            store, MID, builtin_registry(), clock=clock,
            max_cached_entities=5,
        )
        node.warm()
        view = node.view(check_version=False)
        for row in rows:
            assert view.entity_by_id(row["id"]) is not None, row["name"]

    @pytest.mark.xfail(strict=True, reason=(
        "F8 (benchmarks/e2e/README.md): a row evicted at max_cached_entities "
        "takes its name, children and path index entries with it, so the "
        "kernel reads it as absent instead of reading through"
    ))
    def test_f8_service_survives_its_node_cache_cap(self):
        from repro.core.service.catalog_service import UnityCatalogService

        service = UnityCatalogService(max_cached_entities=30)
        service.directory.add_user("admin")
        mid = service.create_metastore("m", owner="admin").id
        service.create_securable(mid, "admin", SecurableKind.CATALOG, "c0")
        # fails around the 32nd create: NotFoundError: no such catalog: c0
        for index in range(40):
            service.create_securable(mid, "admin", SecurableKind.SCHEMA,
                                     f"c0.s{index}")
        assert len(service.list_securables(
            mid, "admin", SecurableKind.SCHEMA, "c0")) == 40

    def test_grants_index(self, node):
        from repro.core.auth.privileges import Privilege, PrivilegeGrant

        grant = PrivilegeGrant("sec-1", "bob", Privilege.SELECT, "alice", 0.0)
        node.commit([WriteOp.put(Tables.GRANTS, grant.key, grant.to_dict())])
        view = node.view(check_version=False)
        assert [g.principal for g in view.grants_on("sec-1")] == ["bob"]
        node.commit([WriteOp.delete(Tables.GRANTS, grant.key)])
        assert node.view(check_version=False).grants_on("sec-1") == []

    def test_dual_ownership_converges(self, store):
        """Two nodes believing they own the metastore: the CAS serializes
        their writes and both converge after reconciliation (the paper's
        no-ZooKeeper consistency argument)."""
        clock = SimClock()
        registry = builtin_registry()
        node_a = MetastoreCacheNode(store, MID, registry, clock=clock)
        node_b = MetastoreCacheNode(store, MID, registry, clock=clock)
        node_a.warm()
        node_b.warm()
        row_a = _entity_row("from_a")
        node_a.commit([WriteOp.put(Tables.ENTITIES, row_a["id"], row_a)])
        row_b = _entity_row("from_b")
        with pytest.raises(ConcurrentModificationError):
            node_b.commit([WriteOp.put(Tables.ENTITIES, row_b["id"], row_b)])
        node_b.commit([WriteOp.put(Tables.ENTITIES, row_b["id"], row_b)])
        for node in (node_a, node_b):
            view = node.view()
            assert view.entity_by_id(row_a["id"]) is not None
            assert view.entity_by_id(row_b["id"]) is not None
        assert node_a.known_version == node_b.known_version
