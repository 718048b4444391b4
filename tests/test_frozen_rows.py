"""Frozen rows: a stored row is shared by every reader and cannot change.

A caller that mutates a returned row gets a ``TypeError``, never a silent
change to the store; copies (``dict``, ``copy.deepcopy``, ``pickle``) are
plain and mutable; and an entity row decodes once per row version.
"""

from __future__ import annotations

import copy
import json
import pickle

import pytest

from repro.core.frozen import FrozenList, FrozenRow, freeze, thaw
from repro.core.model.entity import Entity, SecurableKind
from repro.core.persistence.branching import (
    branch_key,
    branch_snapshot,
    commit_to_branch,
    create_branch,
)
from repro.core.persistence.memory import InMemoryMetadataStore
from repro.core.persistence.sqlite import SqliteMetadataStore
from repro.core.persistence.store import Tables, WriteOp
from repro.core.persistence.treecat import TreeCatMetadataStore
from repro.core.service.catalog_service import UnityCatalogService
from repro.core.view import SnapshotView

MID = "m"

#: an entity row with the nesting a table has: spec -> columns -> dicts
ROW = {
    "id": "t1",
    "kind": "TABLE",
    "name": "orders",
    "metastore_id": MID,
    "parent_id": "s1",
    "owner": "alice",
    "created_at": 1.0,
    "updated_at": 1.0,
    "state": "ACTIVE",
    "comment": "",
    "storage_path": None,
    "properties": {"k": "v"},
    "spec": {
        "table_type": "MANAGED",
        "columns": [{"name": "id", "type": "INT"}, {"name": "a", "type": "INT"}],
    },
    "deleted_at": None,
}

#: every way to change a row, its spec, a column list or a column dict
MUTATIONS = {
    "set": lambda row: row.__setitem__("name", "x"),
    "del": lambda row: row.__delitem__("name"),
    "update": lambda row: row.update(name="x"),
    "pop": lambda row: row.pop("name"),
    "popitem": lambda row: row.popitem(),
    "setdefault": lambda row: row.setdefault("new", 1),
    "clear": lambda row: row.clear(),
    "ior": lambda row: row.__ior__({"name": "x"}),
    "spec-set": lambda row: row["spec"].__setitem__("table_type", "VIEW"),
    "spec-update": lambda row: row["spec"].update(table_type="VIEW"),
    "properties-set": lambda row: row["properties"].__setitem__("k", "w"),
    "columns-append": lambda row: row["spec"]["columns"].append({}),
    "columns-extend": lambda row: row["spec"]["columns"].extend([{}]),
    "columns-insert": lambda row: row["spec"]["columns"].insert(0, {}),
    "columns-set": lambda row: row["spec"]["columns"].__setitem__(0, {}),
    "columns-del": lambda row: row["spec"]["columns"].__delitem__(0),
    "columns-pop": lambda row: row["spec"]["columns"].pop(),
    "columns-remove": lambda row: row["spec"]["columns"].remove(
        row["spec"]["columns"][0]),
    "columns-clear": lambda row: row["spec"]["columns"].clear(),
    "columns-sort": lambda row: row["spec"]["columns"].sort(key=str),
    "columns-reverse": lambda row: row["spec"]["columns"].reverse(),
    "columns-iadd": lambda row: row["spec"]["columns"].__iadd__([{}]),
    "column-set": lambda row: row["spec"]["columns"][0].__setitem__("name", "x"),
}


def _assert_immutable(row, original):
    for name, mutate in MUTATIONS.items():
        with pytest.raises(TypeError):
            mutate(row)
        assert row == original, name


def _assert_plain(value):
    """Plain dicts and lists all the way down."""
    if isinstance(value, dict):
        assert type(value) is dict
        for item in value.values():
            _assert_plain(item)
    elif isinstance(value, list):
        assert type(value) is list
        for item in value:
            _assert_plain(item)


def _memory_reads(store):
    """Each read path of a memory-engine snapshot, returning ROW's copy."""
    return {
        "get": lambda: store.snapshot(MID).get(Tables.ENTITIES, "t1"),
        "multi_get": lambda: store.snapshot(MID).multi_get(
            Tables.ENTITIES, ["t1"])["t1"],
        "scan": lambda: dict(store.snapshot(MID).scan(Tables.ENTITIES))["t1"],
        "scan_prefix": lambda: dict(store.snapshot(MID).scan_prefix(
            Tables.ENTITIES, "t"))["t1"],
    }


@pytest.fixture(params=["memory", "treecat"])
def store(request):
    store = (InMemoryMetadataStore() if request.param == "memory"
             else TreeCatMetadataStore())
    store.create_metastore_slot(MID)
    store.commit(MID, 0, [WriteOp.put(Tables.ENTITIES, "t1", ROW)])
    return store


class TestReturnedRowsAreImmutable:
    @pytest.mark.parametrize("read", ["get", "multi_get", "scan", "scan_prefix"])
    def test_store_reads(self, store, read):
        fetch = _memory_reads(store)[read]
        _assert_immutable(fetch(), ROW)
        assert fetch() == ROW  # a re-read returns the original

    def test_reads_share_the_stored_row(self, store):
        reads = [fetch() for fetch in _memory_reads(store).values()]
        assert all(row is reads[0] for row in reads)

    def test_tree_index_rows(self, store):
        [(_, entry)] = store.snapshot(MID).scan_prefix("__tree_index__", "")
        with pytest.raises(TypeError):
            entry["state"] = "DELETED"

    def test_a_writers_value_is_frozen_once(self, store):
        value = dict(ROW, name="renamed")
        op = WriteOp.put(Tables.ENTITIES, "t1", value)
        store.commit(MID, 1, [op])
        assert store.snapshot(MID).get(Tables.ENTITIES, "t1") is op.value
        value["name"] = "changed after the write"  # the caller's dict is not
        assert op.value["name"] == "renamed"       # the stored row

    def test_a_hand_built_op_is_frozen_at_commit(self, store):
        store.commit(MID, 1, [WriteOp(Tables.ENTITIES, "t2", dict(ROW, id="t2"))])
        row = store.snapshot(MID).get(Tables.ENTITIES, "t2")
        _assert_immutable(row, dict(ROW, id="t2"))

    def test_branch_snapshot_over_a_memory_store(self, store):
        create_branch(store, MID, "c", "dev")
        bkey = branch_key("c", "dev")
        version = store.current_version(MID)
        commit_to_branch(store, MID, bkey, version, [
            WriteOp.put(Tables.ENTITIES, "t2", dict(ROW, id="t2")),
        ])
        snapshot = branch_snapshot(store, MID, bkey)
        for key, expected in (("t1", ROW), ("t2", dict(ROW, id="t2"))):
            reads = [
                snapshot.get(Tables.ENTITIES, key),
                snapshot.multi_get(Tables.ENTITIES, [key])[key],
                dict(snapshot.scan(Tables.ENTITIES))[key],
                dict(snapshot.scan_prefix(Tables.ENTITIES, key))[key],
            ]
            for row in reads:
                _assert_immutable(row, expected)
            assert snapshot.get(Tables.ENTITIES, key) == expected


def test_cache_node_rows_are_immutable():
    service = UnityCatalogService()
    service.directory.add_user("alice")
    mid = service.create_metastore("main", owner="alice").id
    catalog = service.create_securable(mid, "alice", SecurableKind.CATALOG, "c")
    node = service.cache_node(mid)
    row = node.view().get(Tables.ENTITIES, catalog.id)
    original = thaw(row)
    for mutate in (MUTATIONS["set"], MUTATIONS["spec-set"],
                   MUTATIONS["properties-set"]):
        with pytest.raises(TypeError):
            mutate(row)
    assert node.view().get(Tables.ENTITIES, catalog.id) == original
    with pytest.raises(TypeError):
        service.get_securable(mid, "alice", SecurableKind.CATALOG,
                              "c").spec["x"] = 1
    assert service.get_securable(mid, "alice", SecurableKind.CATALOG,
                                 "c").spec == original["spec"]


class TestCopiesArePlain:
    @pytest.fixture
    def row(self, store):
        return store.snapshot(MID).get(Tables.ENTITIES, "t1")

    def test_dict_copy_is_a_mutable_equal_dict(self, row):
        plain = dict(row)
        assert type(plain) is dict and plain == row
        plain["name"] = "x"
        assert row["name"] == "orders"

    @pytest.mark.parametrize("copier", [
        copy.deepcopy,
        lambda row: pickle.loads(pickle.dumps(row)),
        lambda row: pickle.loads(pickle.dumps(row, protocol=0)),
    ], ids=["deepcopy", "pickle", "pickle-protocol-0"])
    def test_deep_copies_are_plain_all_the_way_down(self, row, copier):
        plain = copier(row)
        assert plain == row
        _assert_plain(plain)
        plain["spec"]["columns"][0]["name"] = "x"
        plain["spec"]["columns"].append({})
        assert row == ROW

    def test_json_is_byte_identical(self, row):
        assert json.dumps(row) == json.dumps(ROW)
        assert json.dumps(row, sort_keys=True, indent=1) == json.dumps(
            ROW, sort_keys=True, indent=1)


def test_freeze_is_free_on_a_frozen_value():
    frozen = freeze(ROW)
    assert type(frozen) is FrozenRow and type(frozen["spec"]["columns"]) is FrozenList
    assert freeze(frozen) is frozen
    rebuilt = freeze(dict(frozen, name="x"))
    assert rebuilt["spec"] is frozen["spec"]  # only the new top level is built
    assert freeze(("a", [1])) == ("a", [1])
    assert type(freeze(("a", [1]))[1]) is FrozenList


class TestDecodeOnce:
    def test_a_frozen_row_decodes_once_and_shares_its_spec(self):
        row = freeze(ROW)
        entity = Entity.from_dict(row)
        assert Entity.from_dict(row) is entity
        assert entity.spec is row["spec"] and entity.properties is row["properties"]
        plain = Entity.from_dict(ROW)
        assert plain == entity and plain is not Entity.from_dict(ROW)
        assert type(plain.spec) is dict and plain.spec is not ROW["spec"]

    def test_warm_node_returns_one_entity_per_row_version(self):
        service = UnityCatalogService()
        service.directory.add_user("alice")
        mid = service.create_metastore("main", owner="alice").id
        catalog = service.create_securable(
            mid, "alice", SecurableKind.CATALOG, "c", comment="old")
        node = service.cache_node(mid)

        def entity(snapshot):
            return Entity.from_dict(snapshot.get(Tables.ENTITIES, catalog.id))

        pinned = node.view()
        before = entity(pinned)
        assert entity(pinned) is before
        assert entity(node.view()) is before

        service.update_securable(mid, "alice", SecurableKind.CATALOG, "c",
                                 comment="new")
        after = entity(node.view())
        assert after.comment == "new" and after is not before
        assert entity(node.view()) is after
        # a snapshot pinned before the update still sees the old version
        assert entity(pinned) is before
        assert before.comment == "old"

    def test_sqlite_rows_decode_fresh(self, tmp_path):
        store = SqliteMetadataStore(str(tmp_path / "catalog.db"))
        try:
            store.create_metastore_slot(MID)
            store.commit(MID, 0, [WriteOp.put(Tables.ENTITIES, "t1", ROW)])
            view = SnapshotView(store.snapshot(MID), registry=None)
            first = view.entity_by_id("t1")
            assert view.entity_by_id("t1") is first  # decoded once per view
            assert type(store.snapshot(MID).get(Tables.ENTITIES, "t1")) is dict
            first.spec["table_type"] = "VIEW"  # this view's private decode
            fresh = SnapshotView(store.snapshot(MID), registry=None)
            second = fresh.entity_by_id("t1")
            assert second == Entity.from_dict(ROW) and second is not first
            assert second.spec["table_type"] == "MANAGED"
            stored = store.snapshot(MID).get(Tables.ENTITIES, "t1")
            assert stored["spec"]["table_type"] == "MANAGED"
        finally:
            store.close()


class TestRenderAndStore:
    def test_to_dict_renders_plain_containers_once_per_spec(self):
        entity = Entity.from_dict(freeze(ROW))
        rendered = entity.to_dict()
        _assert_plain(rendered)
        assert rendered == ROW
        assert entity.plain_spec is entity.plain_spec  # thawed once
        renamed = entity.with_updates(updated_at=2.0, name="renamed")
        assert renamed.plain_spec is entity.plain_spec  # the spec is shared
        rendered["spec"]["table_type"] = "VIEW"  # a fresh top level
        assert entity.to_dict()["spec"]["table_type"] == "MANAGED"

    def test_to_row_shares_a_frozen_spec(self):
        row = freeze(ROW)
        updated = Entity.from_dict(row).with_updates(updated_at=2.0, comment="c")
        stored = updated.to_row()
        assert type(stored) is FrozenRow and stored == dict(ROW, updated_at=2.0,
                                                              comment="c")
        assert stored["spec"] is row["spec"]
        assert WriteOp.put(Tables.ENTITIES, "t1", stored).value is stored

    def test_to_row_freezes_a_plain_entity(self):
        entity = Entity.from_dict(ROW)
        stored = entity.to_row()
        _assert_immutable(stored, ROW)
        entity.spec["table_type"] = "VIEW"  # the entity's own copy
        assert stored["spec"]["table_type"] == "MANAGED"
