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
from repro.core.view import SnapshotView
from repro.errors import ConcurrentModificationError

MID = "ms-1"
REGISTRY = builtin_registry()


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


def _view(node, check_version=True):
    """The kernel's per-request view over a node's snapshot."""
    return SnapshotView(node.view(check_version), REGISTRY)


@pytest.fixture
def store():
    backend = InMemoryMetadataStore()
    backend.create_metastore_slot(MID)
    return backend


@pytest.fixture
def node(store):
    clock = SimClock()
    cache = MetastoreCacheNode(store, MID, clock=clock)
    cache.warm()
    cache._test_clock = clock
    return cache


class TestCacheNode:
    def test_write_through_visible_without_db_read(self, store, node):
        row = _entity_row("cat")
        node.commit([WriteOp.put(Tables.ENTITIES, row["id"], row)])
        reads_before = store.read_count
        view = _view(node, check_version=False)
        assert view.entity_by_id(row["id"]).name == "cat"
        assert store.read_count == reads_before  # pure cache hit

    def test_view_checks_db_version(self, store, node):
        # an out-of-band write through another path
        row = _entity_row("cat")
        store.commit(MID, 0, [WriteOp.put(Tables.ENTITIES, row["id"], row)])
        view = _view(node)  # triggers reconcile
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
        assert _view(node, check_version=False).entity_by_id(other["id"]) is not None

    def test_selective_reconcile_invalidates_only_changes(self, store, node):
        rows = [_entity_row(f"cat{i}") for i in range(5)]
        for i, row in enumerate(rows):
            node.commit([WriteOp.put(Tables.ENTITIES, row["id"], row)])
        updated = dict(rows[0], comment="changed")
        store.commit(MID, node.known_version,
                     [WriteOp.put(Tables.ENTITIES, updated["id"], updated)])
        _view(node)
        assert node.stats.selective_invalidations == 1
        assert _view(node, check_version=False).entity_by_id(
            updated["id"]).comment == "changed"

    def test_evict_all_reconcile_mode(self, store):
        clock = SimClock()
        node = MetastoreCacheNode(
            store, MID, clock=clock,
            reconcile_mode=ReconcileMode.EVICT_ALL,
        )
        node.warm()
        row = _entity_row("cat")
        node.commit([WriteOp.put(Tables.ENTITIES, row["id"], row)])
        store.commit(MID, node.known_version,
                     [WriteOp.put(Tables.ENTITIES, "other",
                                  _entity_row("cat2"))])
        view = _view(node)
        # evicted everything, but read-through restores correctness
        assert view.entity_by_id(row["id"]).name == "cat"

    def test_name_index_lookup(self, node):
        row = _entity_row("cat")
        node.commit([WriteOp.put(Tables.ENTITIES, row["id"], row)])
        view = _view(node, check_version=False)
        assert view.entity_by_name(MID, "catalog", "cat").id == row["id"]
        assert view.entity_by_name(MID, "catalog", "nope") is None

    def test_children_index(self, node):
        catalog = _entity_row("cat")
        node.commit([WriteOp.put(Tables.ENTITIES, catalog["id"], catalog)])
        table = _entity_row("t1", parent_id=catalog["id"])
        node.commit([WriteOp.put(Tables.ENTITIES, table["id"], table)])
        view = _view(node, check_version=False)
        children = view.children(catalog["id"])
        assert [c.name for c in children] == ["t1"]

    def test_path_index(self, node):
        from repro.cloudstore.object_store import StoragePath

        catalog = _entity_row("cat")
        table = _entity_row("t1", parent_id=catalog["id"],
                            path="s3://b/tables/t1")
        node.commit([WriteOp.put(Tables.ENTITIES, catalog["id"], catalog),
                     WriteOp.put(Tables.ENTITIES, table["id"], table)])
        view = _view(node, check_version=False)
        resolved = view.resolve_path(StoragePath.parse("s3://b/tables/t1/f"))
        assert resolved.id == table["id"]

    def test_soft_deleted_invisible_and_index_cleaned(self, node):
        row = _entity_row("cat")
        node.commit([WriteOp.put(Tables.ENTITIES, row["id"], row)])
        entity = Entity.from_dict(row).soft_deleted(at=1.0)
        node.commit([WriteOp.put(Tables.ENTITIES, row["id"], entity.to_dict())])
        view = _view(node, check_version=False)
        assert view.entity_by_id(row["id"]) is None
        assert view.entity_by_name(MID, "catalog", "cat") is None

    def test_multiversion_snapshot_reads(self, node):
        """An in-flight view pinned at an older version keeps seeing old
        values while new views see the write."""
        row = _entity_row("cat")
        node.commit([WriteOp.put(Tables.ENTITIES, row["id"], row)])
        old_view = _view(node, check_version=False)
        updated = dict(row, comment="v2")
        node.commit([WriteOp.put(Tables.ENTITIES, row["id"], updated)])
        new_view = _view(node, check_version=False)
        assert old_view.entity_by_id(row["id"]).comment == ""
        assert new_view.entity_by_id(row["id"]).comment == "v2"

    def test_version_pruning_after_timeout(self, store):
        clock = SimClock()
        node = MetastoreCacheNode(
            store, MID, clock=clock,
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
        _view(node, check_version=False).entity_by_id(row["id"])  # lazy prune
        assert node.cached_version_count() < before
        assert node.stats.version_prunes > 0

    def test_eviction_caps_entities(self, store):
        clock = SimClock()
        node = MetastoreCacheNode(
            store, MID, clock=clock,
            eviction_policy=LruPolicy(), max_cached_entities=3,
        )
        node.warm()
        rows = [_entity_row(f"cat{i}") for i in range(6)]
        for row in rows:
            node.commit([WriteOp.put(Tables.ENTITIES, row["id"], row)])
        assert node.stats.evictions >= 3
        # evicted entries still readable via read-through
        view = _view(node, check_version=False)
        for row in rows:
            assert view.entity_by_id(row["id"]).name == row["name"]

    def test_empty_lfu_policy_is_respected(self, store):
        """Regression: an empty policy is falsy (__len__), and must not be
        silently replaced by the default LRU policy."""
        from repro.core.cache.eviction import LfuPolicy

        clock = SimClock()
        policy = LfuPolicy()
        node = MetastoreCacheNode(
            store, MID, clock=clock,
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
            store, MID, clock=clock,
            max_cached_entities=5,
        )
        node.warm()
        view = _view(node, check_version=False)
        for row in rows:
            assert view.entity_by_id(row["id"]) is not None, row["name"]

    def test_f8_service_survives_its_node_cache_cap(self):
        from repro.core.service.catalog_service import UnityCatalogService

        service = UnityCatalogService(max_cached_entities=30)
        service.directory.add_user("admin")
        mid = service.create_metastore("m", owner="admin").id
        service.create_securable(mid, "admin", SecurableKind.CATALOG, "c0")
        # evicted rows keep their tree-index slots: each create resolves c0
        for index in range(40):
            service.create_securable(mid, "admin", SecurableKind.SCHEMA,
                                     f"c0.s{index}")
        assert len(service.list_securables(
            mid, "admin", SecurableKind.SCHEMA, "c0")) == 40

    def test_a_batch_that_leaves_a_slot_and_takes_it_back_keeps_it(self, node):
        row = _entity_row("cat")
        node.commit([WriteOp.put(Tables.ENTITIES, row["id"], row)])
        node.commit([WriteOp.put(Tables.ENTITIES, row["id"], dict(row, name="tmp")),
                     WriteOp.put(Tables.ENTITIES, row["id"], row)])
        assert _view(node).entity_by_name(MID, "catalog", "cat").id == row["id"]
        assert _view(node).entity_by_name(MID, "catalog", "tmp") is None

    def test_grants_index(self, node):
        from repro.core.auth.privileges import Privilege, PrivilegeGrant

        grant = PrivilegeGrant("sec-1", "bob", Privilege.SELECT, "alice", 0.0)
        node.commit([WriteOp.put(Tables.GRANTS, grant.key, grant.to_dict())])
        view = _view(node, check_version=False)
        assert [g.principal for g in view.grants_on("sec-1")] == ["bob"]
        node.commit([WriteOp.delete(Tables.GRANTS, grant.key)])
        assert _view(node, check_version=False).grants_on("sec-1") == []

    def test_dual_ownership_converges(self, store):
        """Two nodes believing they own the metastore: the CAS serializes
        their writes and both converge after reconciliation (the paper's
        no-ZooKeeper consistency argument)."""
        clock = SimClock()
        node_a = MetastoreCacheNode(store, MID, clock=clock)
        node_b = MetastoreCacheNode(store, MID, clock=clock)
        node_a.warm()
        node_b.warm()
        row_a = _entity_row("from_a")
        node_a.commit([WriteOp.put(Tables.ENTITIES, row_a["id"], row_a)])
        row_b = _entity_row("from_b")
        with pytest.raises(ConcurrentModificationError):
            node_b.commit([WriteOp.put(Tables.ENTITIES, row_b["id"], row_b)])
        node_b.commit([WriteOp.put(Tables.ENTITIES, row_b["id"], row_b)])
        for node in (node_a, node_b):
            view = _view(node)
            assert view.entity_by_id(row_a["id"]) is not None
            assert view.entity_by_id(row_b["id"]) is not None
        assert node_a.known_version == node_b.known_version


class TestPinnedSnapshots:
    """A snapshot the node handed out reads at its own version, whatever
    the node dropped, evicted or installed since (finding R1)."""

    def _store_with_catalogs(self, store, count=3):
        rows = [_entity_row(f"cat{i}") for i in range(count)]
        for version, row in enumerate(rows):
            store.commit(MID, version, [WriteOp.put(Tables.ENTITIES, row["id"], row)])
        return rows

    def test_r1_evict_all_then_write_through_keeps_the_pinned_version(self, store):
        rows = self._store_with_catalogs(store)
        node = MetastoreCacheNode(store, MID, clock=SimClock(),
                                  reconcile_mode=ReconcileMode.EVICT_ALL)
        node.warm()
        peer = _entity_row("from_peer")
        store.commit(MID, 3, [WriteOp.put(Tables.ENTITIES, peer["id"], peer)])
        old = _view(node)  # reconciles: the copy is dropped at version 4
        assert old.version == 4
        node.commit([WriteOp.put(Tables.ENTITIES, rows[0]["id"],
                                 dict(rows[0], comment="v5"))])
        # the write-through installed only version 5 into the empty copy
        assert old.entity_by_id(rows[0]["id"]).comment == ""
        assert _view(node).entity_by_id(rows[0]["id"]).comment == "v5"

    def test_r1_pinned_snapshot_reads_an_evicted_row_at_its_version(self, store):
        rows = self._store_with_catalogs(store)
        node = MetastoreCacheNode(store, MID, clock=SimClock(),
                                  eviction_policy=LruPolicy(), max_cached_entities=1)
        node.warm()
        old = _view(node, check_version=False)
        for index in (0, 1):  # row 0 is installed at version 4, evicted at 5
            node.commit([WriteOp.put(Tables.ENTITIES, rows[index]["id"],
                                     dict(rows[index], comment="new"))])
        assert node.cached_entities() == 1
        assert old.entity_by_id(rows[0]["id"]).comment == ""
        assert _view(node, check_version=False).entity_by_id(
            rows[0]["id"]).comment == "new"

    def test_a_snapshot_pinned_past_a_prune_still_reads_its_version(self, store):
        rows = self._store_with_catalogs(store, count=1)
        clock = SimClock()
        node = MetastoreCacheNode(store, MID, clock=clock, request_timeout_seconds=60)
        node.warm()
        old = _view(node)
        node.commit([WriteOp.put(Tables.ENTITIES, rows[0]["id"],
                                 dict(rows[0], comment="v2"))])
        clock.advance(61)
        _view(node)  # prunes: the copy keeps only the newest version
        assert node.stats.version_prunes > 0
        assert old.entity_by_id(rows[0]["id"]).comment == ""
        assert _view(node).entity_by_id(rows[0]["id"]).comment == "v2"

    def test_a_snapshot_of_a_dropped_copy_reads_through(self, store):
        rows = self._store_with_catalogs(store)
        node = MetastoreCacheNode(store, MID, clock=SimClock(),
                                  reconcile_mode=ReconcileMode.EVICT_ALL)
        node.warm()
        node.reconcile()  # EVICT_ALL drops even a current copy
        old = node.view()  # opened on the empty copy
        node.reconcile()
        list(node.view().scan(Tables.ENTITIES))  # fills the next copy whole
        assert old.get(Tables.ENTITIES, rows[1]["id"]) == rows[1]

    def test_soft_deleted_slots_leave_the_copys_tree_index(self):
        from repro.core.service.catalog_service import UnityCatalogService

        service = UnityCatalogService()
        service.directory.add_user("admin")
        mid = service.create_metastore("m", owner="admin").id
        service.create_securable(mid, "admin", SecurableKind.CATALOG, "c")
        schema = service.create_securable(mid, "admin", SecurableKind.SCHEMA, "c.s")
        node = service.cache_node(mid)
        store_before = service.store.row_version_count(mid)
        copy_before = node.cached_version_count()
        for _ in range(10):  # one name, ten incarnations
            service.create_securable(mid, "admin", SecurableKind.TABLE, "c.s.t",
                                     spec={"table_type": "MANAGED"})
            service.delete_securable(mid, "admin", SecurableKind.TABLE, "c.s.t")
        # the store keeps each incarnation's index slot; the copy, which
        # answers live lookups only, keeps none of them
        store_grown = service.store.row_version_count(mid) - store_before
        copy_grown = node.cached_version_count() - copy_before
        assert copy_grown == store_grown - 20
        assert len(node.view().children_ids(schema.id, include_deleted=True)) == 10
        assert node.view().children_ids(schema.id) == []

    def test_r13_a_peer_node_forgets_a_deleted_branch(self):
        from repro.core.service.catalog_service import UnityCatalogService
        from repro.errors import AlreadyExistsError

        shared = InMemoryMetadataStore()
        a = UnityCatalogService(store=shared)
        b = UnityCatalogService(store=shared, directory=a.directory)
        a.directory.add_user("admin")
        mid = a.create_metastore("m", owner="admin").id
        a.create_securable(mid, "admin", SecurableKind.CATALOG, "c")
        a.create_branch(mid, "admin", "c", "dev")
        with pytest.raises(AlreadyExistsError):
            b.create_branch(mid, "admin", "c", "dev")  # reads the ref row
        a.delete_branch(mid, "admin", "c", "dev")
        b.create_branch(mid, "admin", "c", "dev")  # the ref is gone from the store

    @pytest.mark.xfail(strict=True, reason=(
        "R8: attaching a node warms the whole metastore inside the first "
        "request a reopened or peer service serves; filling the copy by "
        "range, on demand, is the next change to the node"
    ))
    def test_r8_first_request_on_a_reopened_metastore_reads_its_path(self):
        from repro.core.service.catalog_service import UnityCatalogService

        shared = InMemoryMetadataStore()
        first = UnityCatalogService(store=shared)
        first.directory.add_user("admin")
        mid = first.create_metastore("m", owner="admin").id
        first.create_securable(mid, "admin", SecurableKind.CATALOG, "c")
        first.create_securable(mid, "admin", SecurableKind.SCHEMA, "c.s")
        for index in range(200):
            first.create_securable(mid, "admin", SecurableKind.TABLE, f"c.s.t{index}",
                                   spec={"table_type": "MANAGED"})
        reopened = UnityCatalogService(store=shared, directory=first.directory)
        before = shared.scan_row_count
        reopened.get_securable(mid, "admin", SecurableKind.TABLE, "c.s.t7")
        assert shared.scan_row_count - before < 20  # 203 while warm() runs


def test_node_gauges_on_metrics_stay_within_the_cap():
    from repro.core.service.catalog_service import UnityCatalogService
    from repro.core.service.rest import RestApi

    service = UnityCatalogService(max_cached_entities=5)
    service.directory.add_user("admin")
    mid = service.create_metastore("main", owner="admin").id
    service.create_securable(mid, "admin", SecurableKind.CATALOG, "c")
    for index in range(12):
        service.create_securable(mid, "admin", SecurableKind.SCHEMA, f"c.s{index}")
    status, response = RestApi(service).handle("GET", "/metrics", principal="")
    assert status == 200
    gauges = {}
    for line in response.body.splitlines():
        name, _, value = line.rpartition(" ")
        if name.startswith(("uc_cache_node_entries{", "uc_cache_node_row_versions{")):
            gauges[name] = float(value)
    entries = gauges['uc_cache_node_entries{metastore="main"}']
    versions = gauges['uc_cache_node_row_versions{metastore="main"}']
    assert 1 <= entries <= 5
    assert versions >= entries
    assert service.cache_node(mid).stats.evictions > 0
