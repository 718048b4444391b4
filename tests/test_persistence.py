"""Metadata store contract: every backend must provide per-metastore
snapshot isolation, serializable (CAS) writes, and key-ordered range
reads (natively or via the filtered-scan fallback)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.persistence.memory import InMemoryMetadataStore
from repro.core.persistence.sqlite import SqliteMetadataStore
from repro.core.persistence.treecat import TreeCatMetadataStore
from repro.core.persistence.store import Tables, WriteOp
from repro.errors import AlreadyExistsError, ConcurrentModificationError, NotFoundError

MID = "ms-1"

BACKENDS = {
    "memory": lambda: InMemoryMetadataStore(),
    "sqlite": lambda: SqliteMetadataStore(":memory:"),
    "treecat": lambda: TreeCatMetadataStore(),
}


@pytest.fixture(params=sorted(BACKENDS))
def store(request):
    backend = BACKENDS[request.param]()
    backend.create_metastore_slot(MID)
    yield backend
    if request.param == "sqlite":
        backend.close()


def put(key, **value):
    return WriteOp.put(Tables.ENTITIES, key, value or {"v": key})


class TestContract:
    def test_initial_version_zero(self, store):
        assert store.current_version(MID) == 0

    def test_duplicate_slot_rejected(self, store):
        with pytest.raises(AlreadyExistsError):
            store.create_metastore_slot(MID)

    def test_unknown_metastore_raises(self, store):
        with pytest.raises(NotFoundError):
            store.current_version("ghost")

    def test_commit_bumps_version(self, store):
        assert store.commit(MID, 0, [put("a")]) == 1
        assert store.current_version(MID) == 1

    def test_commit_cas_failure(self, store):
        store.commit(MID, 0, [put("a")])
        with pytest.raises(ConcurrentModificationError):
            store.commit(MID, 0, [put("b")])

    def test_snapshot_reads_committed(self, store):
        store.commit(MID, 0, [put("a", x=1)])
        snapshot = store.snapshot(MID)
        assert snapshot.get(Tables.ENTITIES, "a") == {"x": 1}

    def test_snapshot_is_stable_across_later_commits(self, store):
        store.commit(MID, 0, [put("a", x=1)])
        snapshot = store.snapshot(MID)
        store.commit(MID, 1, [put("a", x=2)])
        assert snapshot.get(Tables.ENTITIES, "a") == {"x": 1}
        assert store.snapshot(MID).get(Tables.ENTITIES, "a") == {"x": 2}

    def test_snapshot_at_past_version(self, store):
        store.commit(MID, 0, [put("a", x=1)])
        store.commit(MID, 1, [put("a", x=2)])
        old = store.snapshot(MID, at_version=1)
        assert old.get(Tables.ENTITIES, "a") == {"x": 1}

    def test_snapshot_at_future_version_rejected(self, store):
        with pytest.raises(ConcurrentModificationError):
            store.snapshot(MID, at_version=5)

    def test_delete_tombstones(self, store):
        store.commit(MID, 0, [put("a")])
        store.commit(MID, 1, [WriteOp.delete(Tables.ENTITIES, "a")])
        assert store.snapshot(MID).get(Tables.ENTITIES, "a") is None
        # but the older snapshot still sees it
        assert store.snapshot(MID, at_version=1).get(Tables.ENTITIES, "a") is not None

    def test_scan_returns_live_rows_only(self, store):
        store.commit(MID, 0, [put("a"), put("b")])
        store.commit(MID, 1, [WriteOp.delete(Tables.ENTITIES, "a")])
        rows = dict(store.snapshot(MID).scan(Tables.ENTITIES))
        assert set(rows) == {"b"}

    def test_scan_is_versioned(self, store):
        store.commit(MID, 0, [put("a", x=1)])
        store.commit(MID, 1, [put("a", x=2), put("b", x=9)])
        rows = dict(store.snapshot(MID, at_version=1).scan(Tables.ENTITIES))
        assert rows == {"a": {"x": 1}}

    def test_tables_are_independent(self, store):
        store.commit(MID, 0, [WriteOp.put(Tables.GRANTS, "g1", {"p": "x"})])
        snapshot = store.snapshot(MID)
        assert snapshot.get(Tables.ENTITIES, "g1") is None
        assert snapshot.get(Tables.GRANTS, "g1") == {"p": "x"}

    def test_changes_since(self, store):
        store.commit(MID, 0, [put("a")])
        store.commit(MID, 1, [put("b"), WriteOp.delete(Tables.ENTITIES, "a")])
        changes = store.changes_since(MID, 1)
        assert {(c.key, c.deleted) for c in changes} == {("b", False), ("a", True)}
        assert all(c.version == 2 for c in changes)

    def test_changes_since_latest_is_empty(self, store):
        store.commit(MID, 0, [put("a")])
        assert store.changes_since(MID, 1) == []

    def test_multi_metastore_isolation(self, store):
        store.create_metastore_slot("ms-2")
        store.commit(MID, 0, [put("a", x=1)])
        assert store.current_version("ms-2") == 0
        assert store.snapshot("ms-2").get(Tables.ENTITIES, "a") is None

    def test_atomic_batch(self, store):
        store.commit(MID, 0, [put("a", x=1), put("b", x=2), put("c", x=3)])
        snapshot = store.snapshot(MID)
        assert all(
            snapshot.get(Tables.ENTITIES, k) is not None for k in "abc"
        )
        assert store.current_version(MID) == 1

    def test_compact_keeps_latest(self, store):
        store.commit(MID, 0, [put("a", x=1)])
        store.commit(MID, 1, [put("a", x=2)])
        store.commit(MID, 2, [put("a", x=3)])
        removed = store.compact(MID, min_version=3)
        assert removed >= 2
        assert store.snapshot(MID).get(Tables.ENTITIES, "a") == {"x": 3}


class TestRangeScans:
    """scan_prefix / scan_range / count: ordering, MVCC pinning,
    tombstones, and empty ranges — identical on all three backends."""

    KEYS = ["a/1", "a/2", "a/10", "b/1", "b/2", "c"]

    def _seed(self, store):
        store.commit(MID, 0, [put(k) for k in self.KEYS])

    def test_prefix_matches_and_orders(self, store):
        self._seed(store)
        snapshot = store.snapshot(MID)
        keys = [k for k, _ in snapshot.scan_prefix(Tables.ENTITIES, "a/")]
        assert keys == ["a/1", "a/10", "a/2"]  # lexicographic, not numeric

    def test_prefix_no_match_is_empty(self, store):
        self._seed(store)
        snapshot = store.snapshot(MID)
        assert list(snapshot.scan_prefix(Tables.ENTITIES, "zz")) == []

    def test_range_half_open(self, store):
        self._seed(store)
        snapshot = store.snapshot(MID)
        keys = [k for k, _ in snapshot.scan_range(Tables.ENTITIES, "a/2", "b/2")]
        assert keys == ["a/2", "b/1"]  # start inclusive, end exclusive

    def test_range_unbounded_end(self, store):
        self._seed(store)
        snapshot = store.snapshot(MID)
        keys = [k for k, _ in snapshot.scan_range(Tables.ENTITIES, "b/2", None)]
        assert keys == ["b/2", "c"]

    def test_range_empty_interval(self, store):
        self._seed(store)
        snapshot = store.snapshot(MID)
        assert list(snapshot.scan_range(Tables.ENTITIES, "b/1", "b/1")) == []

    def test_range_values_round_trip(self, store):
        store.commit(MID, 0, [put("a/1", x=1), put("a/2", x=2)])
        snapshot = store.snapshot(MID)
        assert dict(snapshot.scan_prefix(Tables.ENTITIES, "a/")) == {
            "a/1": {"x": 1},
            "a/2": {"x": 2},
        }

    def test_range_is_version_pinned(self, store):
        store.commit(MID, 0, [put("a/1", x=1)])
        old = store.snapshot(MID)
        store.commit(MID, 1, [put("a/1", x=2), put("a/2", x=9)])
        assert dict(old.scan_prefix(Tables.ENTITIES, "a/")) == {"a/1": {"x": 1}}
        assert dict(store.snapshot(MID).scan_prefix(Tables.ENTITIES, "a/")) == {
            "a/1": {"x": 2},
            "a/2": {"x": 9},
        }

    def test_range_skips_tombstones(self, store):
        self._seed(store)
        store.commit(MID, 1, [WriteOp.delete(Tables.ENTITIES, "a/2")])
        snapshot = store.snapshot(MID)
        keys = [k for k, _ in snapshot.scan_prefix(Tables.ENTITIES, "a/")]
        assert keys == ["a/1", "a/10"]
        # a snapshot before the delete still sees the row
        before = store.snapshot(MID, at_version=1)
        assert "a/2" in dict(before.scan_prefix(Tables.ENTITIES, "a/"))

    def test_count_total_and_prefix(self, store):
        self._seed(store)
        snapshot = store.snapshot(MID)
        assert snapshot.count(Tables.ENTITIES) == len(self.KEYS)
        assert snapshot.count(Tables.ENTITIES, "a/") == 3
        assert snapshot.count(Tables.ENTITIES, "zz") == 0

    def test_count_excludes_tombstones(self, store):
        self._seed(store)
        store.commit(MID, 1, [WriteOp.delete(Tables.ENTITIES, "b/1")])
        assert store.snapshot(MID).count(Tables.ENTITIES, "b/") == 1

    def test_flat_backends_report_no_tree_index(self, store):
        self._seed(store)
        snapshot = store.snapshot(MID)
        if isinstance(store, TreeCatMetadataStore):
            assert snapshot.has_tree_index
        else:
            assert not snapshot.has_tree_index
            assert snapshot.child_id("p", "TABLE", "t") is None
            assert snapshot.children_ids("p") is None
            assert snapshot.count_children("p") is None


def entity(key, parent, kind, name, state="ACTIVE"):
    return WriteOp.put(
        Tables.ENTITIES, key,
        {"id": key, "parent_id": parent, "kind": kind, "name": name,
         "state": state},
    )


class TestTreeIndex:
    """The treecat backend's transactional (parent, kind, name) index."""

    @pytest.fixture
    def tree(self):
        backend = TreeCatMetadataStore()
        backend.create_metastore_slot(MID)
        backend.commit(MID, 0, [
            entity("cat1", None, "CATALOG", "sales"),
            entity("sch1", "cat1", "SCHEMA", "raw"),
            entity("sch2", "cat1", "SCHEMA", "curated"),
            entity("tbl1", "sch1", "TABLE", "orders"),
            entity("vol1", "sch1", "VOLUME", "orders"),  # same name, other kind
        ])
        return backend

    def test_child_id_resolves(self, tree):
        snapshot = tree.snapshot(MID)
        assert snapshot.child_id("cat1", "SCHEMA", "raw") == "sch1"
        assert snapshot.child_id("sch1", "TABLE", "orders") == "tbl1"
        assert snapshot.child_id("sch1", "VOLUME", "orders") == "vol1"
        assert snapshot.child_id("cat1", "SCHEMA", "nope") is None

    def test_children_ids_by_kind(self, tree):
        snapshot = tree.snapshot(MID)
        assert snapshot.children_ids("cat1", "SCHEMA") == ["sch2", "sch1"]  # by name
        assert set(snapshot.children_ids("sch1")) == {"tbl1", "vol1"}
        assert snapshot.count_children("cat1") == 2

    def test_rename_moves_index_slot(self, tree):
        tree.commit(MID, 1, [entity("sch1", "cat1", "SCHEMA", "bronze")])
        snapshot = tree.snapshot(MID)
        assert snapshot.child_id("cat1", "SCHEMA", "raw") is None
        assert snapshot.child_id("cat1", "SCHEMA", "bronze") == "sch1"
        # the pre-rename snapshot still resolves the old name
        old = tree.snapshot(MID, at_version=1)
        assert old.child_id("cat1", "SCHEMA", "raw") == "sch1"
        assert old.child_id("cat1", "SCHEMA", "bronze") is None

    def test_soft_delete_hides_unless_included(self, tree):
        tree.commit(MID, 1, [entity("tbl1", "sch1", "TABLE", "orders",
                                    state="DELETED")])
        snapshot = tree.snapshot(MID)
        assert snapshot.child_id("sch1", "TABLE", "orders") is None
        assert snapshot.children_ids("sch1", "TABLE") == []
        assert snapshot.children_ids("sch1", "TABLE",
                                     include_deleted=True) == ["tbl1"]
        assert snapshot.count_children("sch1") == 1  # the volume

    def test_recreate_after_soft_delete_coexists(self, tree):
        tree.commit(MID, 1, [entity("tbl1", "sch1", "TABLE", "orders",
                                    state="DELETED")])
        tree.commit(MID, 2, [entity("tbl2", "sch1", "TABLE", "orders")])
        snapshot = tree.snapshot(MID)
        assert snapshot.child_id("sch1", "TABLE", "orders") == "tbl2"
        assert set(snapshot.children_ids("sch1", "TABLE",
                                         include_deleted=True)) == {"tbl1", "tbl2"}

    def test_hard_delete_tombstones_index(self, tree):
        tree.commit(MID, 1, [WriteOp.delete(Tables.ENTITIES, "vol1")])
        snapshot = tree.snapshot(MID)
        assert snapshot.child_id("sch1", "VOLUME", "orders") is None
        assert snapshot.children_ids("sch1", include_deleted=True) == ["tbl1"]

    def test_same_batch_rename_indexes_final_state(self, tree):
        tree.commit(MID, 1, [
            entity("sch1", "cat1", "SCHEMA", "tmp"),
            entity("sch1", "cat1", "SCHEMA", "final"),
        ])
        snapshot = tree.snapshot(MID)
        assert snapshot.child_id("cat1", "SCHEMA", "raw") is None
        assert snapshot.child_id("cat1", "SCHEMA", "tmp") is None
        assert snapshot.child_id("cat1", "SCHEMA", "final") == "sch1"

    def test_index_rows_absent_from_changelog(self, tree):
        tables = {c.table for c in tree.changes_since(MID, 0)}
        assert tables == {Tables.ENTITIES}

    def test_index_survives_compaction(self, tree):
        tree.commit(MID, 1, [entity("sch1", "cat1", "SCHEMA", "bronze")])
        tree.compact(MID, min_version=2)
        snapshot = tree.snapshot(MID)
        assert snapshot.child_id("cat1", "SCHEMA", "bronze") == "sch1"
        assert snapshot.child_id("cat1", "SCHEMA", "raw") is None

    def test_range_scan_counters(self, tree):
        snapshot = tree.snapshot(MID)
        before = tree.range_scan_count
        snapshot.child_id("cat1", "SCHEMA", "raw")
        list(snapshot.scan_prefix(Tables.ENTITIES, "sch"))
        assert tree.range_scan_count == before + 2


class TestMemorySpecific:
    def test_read_and_commit_counters(self):
        store = InMemoryMetadataStore()
        store.create_metastore_slot(MID)
        store.commit(MID, 0, [put("a")])
        store.snapshot(MID)
        assert store.commit_count == 1
        assert store.read_count == 1

    def test_row_version_count_and_compaction(self):
        store = InMemoryMetadataStore()
        store.create_metastore_slot(MID)
        for i in range(5):
            store.commit(MID, i, [put("a", x=i)])
        assert store.row_version_count(MID) == 5
        store.compact(MID, min_version=5)
        assert store.row_version_count(MID) == 1

    def test_approximate_size(self):
        store = InMemoryMetadataStore()
        store.create_metastore_slot(MID)
        store.commit(MID, 0, [put("a", payload="x" * 100)])
        assert store.approximate_size_bytes(MID) > 100


# -- property test: linearized model equivalence --------------------------------

MODEL_KEYS = ["a", "a/1", "a/2", "ab", "b/1", "b/2"]
MODEL_PREFIXES = ["", "a", "a/", "b/", "c"]


def _check_against_model(store, version, expected):
    snapshot = store.snapshot(MID, at_version=version)
    rows = list(snapshot.scan(Tables.ENTITIES))
    assert dict(rows) == expected
    if isinstance(store, TreeCatMetadataStore):
        assert [k for k, _ in rows] == sorted(expected)
    for key in MODEL_KEYS:
        assert snapshot.get(Tables.ENTITIES, key) == expected.get(key)
    for prefix in MODEL_PREFIXES:
        under = sorted(k for k in expected if k.startswith(prefix))
        assert list(snapshot.scan_prefix(Tables.ENTITIES, prefix)) == [
            (k, expected[k]) for k in under
        ]
        assert snapshot.count(Tables.ENTITIES, prefix) == len(under)


@settings(max_examples=60, deadline=None)
@given(
    batches=st.lists(
        st.lists(
            st.tuples(
                st.sampled_from(["put", "delete"]),
                st.sampled_from(MODEL_KEYS),
                st.integers(0, 99),
            ),
            min_size=1,
            max_size=3,
        ),
        min_size=1,
        max_size=20,
    ),
    data=st.data(),
)
def test_memory_store_matches_naive_model(batches, data):
    """Applying a serial history, every intermediate snapshot of every
    backend must match a naive dict replayed to that version — point
    reads, prefix scans and counts alike; after a compaction, every
    snapshot at or after its ``min_version`` still must."""
    stores = {name: make() for name, make in BACKENDS.items()}
    try:
        for store in stores.values():
            store.create_metastore_slot(MID)
        model_history = [{}]
        model = {}
        for i, batch in enumerate(batches):
            writes = []
            for op, key, value in batch:
                if op == "put":
                    writes.append(WriteOp.put(Tables.ENTITIES, key, {"v": value}))
                    model[key] = {"v": value}
                else:
                    writes.append(WriteOp.delete(Tables.ENTITIES, key))
                    model.pop(key, None)
            for store in stores.values():
                store.commit(MID, i, writes)
            model_history.append(dict(model))
        for version, expected in enumerate(model_history):
            for store in stores.values():
                _check_against_model(store, version, expected)
        min_version = data.draw(st.integers(0, len(batches)), label="min_version")
        for store in stores.values():
            store.compact(MID, min_version)
            for version in range(min_version, len(model_history)):
                _check_against_model(store, version, model_history[version])
    finally:
        stores["sqlite"].close()


# -- reads never write -------------------------------------------------------------


@pytest.mark.parametrize("backend", ["memory", "treecat"])
def test_reading_an_unknown_table_leaves_the_store_unchanged(backend):
    store = BACKENDS[backend]()
    store.create_metastore_slot(MID)
    store.commit(MID, 0, [entity("c1", None, "CATALOG", "sales")])
    versions = store.row_version_count(MID)
    tables = set(store._slot(MID).tables)
    snapshot = store.snapshot(MID)
    assert snapshot.get("ghost", "k") is None
    assert snapshot.multi_get("ghost", ["k"]) == {}
    assert list(snapshot.scan_prefix("ghost", "k")) == []
    assert snapshot.count("ghost", "k") == 0
    assert store.row_version_count(MID) == versions
    assert set(store._slot(MID).tables) == tables
