"""Direct coverage of the MetastoreView layer (snapshot-backed path)."""

import pytest

from repro.cloudstore.object_store import StoragePath
from repro.core.assets.builtin import builtin_registry
from repro.core.auth.privileges import Privilege, PrivilegeGrant
from repro.core.model.entity import Entity, SecurableKind, new_entity_id
from repro.core.persistence import branching
from repro.core.persistence.memory import InMemoryMetadataStore
from repro.core.persistence.sqlite import SqliteMetadataStore
from repro.core.persistence.treecat import TreeCatMetadataStore
from repro.core.persistence.store import Tables, WriteOp
from repro.core.view import SnapshotView

MID = "m1"


@pytest.fixture(params=["memory", "treecat", "sqlite", "treecat-branch"])
def world(request, tmp_path):
    # same view semantics, and tree-index range reads, on the in-memory
    # engine (by either name), on SQLite, and on a branch
    if request.param == "memory":
        store = InMemoryMetadataStore()
    elif request.param == "sqlite":
        store = SqliteMetadataStore(str(tmp_path / "world.db"))
    else:
        store = TreeCatMetadataStore()
    store.create_metastore_slot(MID)
    registry = builtin_registry()

    def entity(kind, name, parent, path=None, spec=None):
        e = Entity(
            id=new_entity_id(), kind=kind, name=name, metastore_id=MID,
            parent_id=parent, owner="admin", created_at=0.0, updated_at=0.0,
            storage_path=path, spec=spec or {},
        )
        return e

    metastore = Entity(
        id=MID, kind=SecurableKind.METASTORE, name="m", metastore_id=MID,
        parent_id=None, owner="admin", created_at=0.0, updated_at=0.0,
    )
    catalog = entity(SecurableKind.CATALOG, "cat", MID)
    schema = entity(SecurableKind.SCHEMA, "sch", catalog.id)
    table = entity(SecurableKind.TABLE, "t", schema.id,
                   path="s3://b/tables/t",
                   spec={"table_type": "EXTERNAL"})
    volume = entity(SecurableKind.VOLUME, "t", schema.id,  # same name, ok
                    path="s3://b/volumes/t",
                    spec={"volume_type": "EXTERNAL"})
    location = entity(SecurableKind.EXTERNAL_LOCATION, "loc", MID,
                      path="s3://b", spec={"credential_name": "c"})
    version = 0
    for e in (metastore, catalog, schema, table, volume, location):
        store.commit(MID, version, [WriteOp.put(Tables.ENTITIES, e.id,
                                                e.to_dict())])
        version += 1
    grant = PrivilegeGrant(table.id, "bob", Privilege.SELECT, "admin", 0.0)
    version = store.commit(MID, version, [WriteOp.put(Tables.GRANTS, grant.key,
                                                      grant.to_dict())])
    if request.param == "treecat-branch":
        # the branch rewrites the table (overlay row in the base's slot);
        # the trunk then hard-deletes the volume, which the branch must
        # not see
        ref = branching.create_branch(store, MID, "cat", "dev")
        version = branching.commit_to_branch(
            store, MID, ref.key, version + 1,
            [WriteOp.put(Tables.ENTITIES, table.id, table.to_dict())])
        store.commit(MID, version, [WriteOp.delete(Tables.ENTITIES, volume.id)])
        snapshot = branching.branch_snapshot(store, MID, ref.key)
    else:
        snapshot = store.snapshot(MID)
    view = SnapshotView(snapshot, registry)
    yield view, dict(metastore=metastore, catalog=catalog, schema=schema,
                     table=table, volume=volume, location=location), store
    if request.param == "sqlite":
        store.close()


class TestSnapshotView:
    def test_entity_by_id(self, world):
        view, entities, _ = world
        assert view.entity_by_id(entities["table"].id).name == "t"
        assert view.entity_by_id("nope") is None

    def test_entity_by_name_respects_namespace_groups(self, world):
        view, entities, _ = world
        schema_id = entities["schema"].id
        table = view.entity_by_name(schema_id, "tabular", "t")
        volume = view.entity_by_name(schema_id, "volume", "t")
        assert table.kind is SecurableKind.TABLE
        assert volume.kind is SecurableKind.VOLUME
        assert view.entity_by_name(schema_id, "tabular", "missing") is None

    def test_children_by_kind(self, world):
        view, entities, _ = world
        schema_id = entities["schema"].id
        assert len(view.children(schema_id)) == 2
        assert [c.kind for c in view.children(schema_id,
                                              SecurableKind.VOLUME)] == [
            SecurableKind.VOLUME
        ]

    def test_ancestors_and_full_name(self, world):
        view, entities, _ = world
        table = entities["table"]
        chain = [e.name for e in view.ancestors(table)]
        assert chain == ["sch", "cat", "m"]
        assert view.full_name(table) == "cat.sch.t"

    def test_full_name_of_root_securable(self, world):
        view, entities, _ = world
        assert view.full_name(entities["location"]) == "loc"

    def test_resolve_path_governed_kinds_only(self, world):
        view, entities, _ = world
        # tables resolve
        hit = view.resolve_path(StoragePath.parse("s3://b/tables/t/part"))
        assert hit.id == entities["table"].id
        # external locations do not claim the path space
        assert view.resolve_path(StoragePath.parse("s3://b/other")) is None

    def test_overlapping_assets(self, world):
        view, entities, _ = world
        overlaps = view.overlapping_assets(StoragePath.parse("s3://b/tables"))
        assert overlaps == [entities["table"].id]

    def test_grants_on(self, world):
        view, entities, _ = world
        grants = view.grants_on(entities["table"].id)
        assert [(g.principal, g.privilege) for g in grants] == [
            ("bob", Privilege.SELECT)
        ]
        assert view.grants_on(entities["schema"].id) == []

    def test_resolve_path_builds_trie_once(self, world):
        view, entities, store = world
        view.resolve_path(StoragePath.parse("s3://b/tables/t"))
        rows_after_first = store.scan_row_count
        # the trie is memoized on the (immutable) snapshot view: repeated
        # path lookups must not rescan the entity table
        view.resolve_path(StoragePath.parse("s3://b/tables/t/part"))
        view.overlapping_assets(StoragePath.parse("s3://b/tables"))
        assert store.scan_row_count == rows_after_first

    def test_tree_backend_resolves_without_full_scans(self, world):
        view, entities, store = world
        before = store.scan_row_count
        view.entity_by_name(entities["schema"].id, "tabular", "t")
        view.children(entities["schema"].id)
        view.grants_on(entities["table"].id)
        assert store.range_scan_count > 0
        # range reads touch a handful of index rows, not the whole estate
        assert store.scan_row_count - before <= 8

    def test_soft_deleted_entities_hidden(self, world):
        view, entities, _ = world
        # fresh store state with the table soft-deleted
        store = InMemoryMetadataStore()
        store.create_metastore_slot("m2")
        dead = entities["table"].soft_deleted(at=1.0)
        dead = Entity.from_dict({**dead.to_dict(), "metastore_id": "m2"})
        store.commit("m2", 0, [WriteOp.put(Tables.ENTITIES, dead.id,
                                           dead.to_dict())])
        fresh = SnapshotView(store.snapshot("m2"), builtin_registry())
        assert fresh.entity_by_id(dead.id) is None
        assert list(fresh.entities()) == []
