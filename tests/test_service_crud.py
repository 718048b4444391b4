"""Service CRUD: namespaces, manifests, storage allocation, lifecycle."""

import pytest

from repro.cloudstore.object_store import StoragePath
from repro.core.model.entity import EntityState, SecurableKind
from repro.core.auth.privileges import Privilege
from repro.core.persistence.store import Tables
from repro.core.service.catalog_service import UnityCatalogService
from repro.errors import (
    AlreadyExistsError,
    InvalidRequestError,
    NotFoundError,
    PathConflictError,
    PermissionDeniedError,
    ThrottledError,
)
from repro.faults import FaultInjector


@pytest.fixture
def mid(service, metastore_id):
    service.create_securable(metastore_id, "alice", SecurableKind.CATALOG, "cat")
    service.create_securable(metastore_id, "alice", SecurableKind.SCHEMA, "cat.sch")
    return metastore_id


def make_table(service, mid, name="cat.sch.t", table_type="MANAGED", **kwargs):
    spec = {"table_type": table_type,
            "columns": [{"name": "id", "type": "INT"}]}
    spec.update(kwargs.pop("spec", {}))
    return service.create_securable(mid, "alice", SecurableKind.TABLE, name,
                                    spec=spec, **kwargs)


class TestMetastores:
    def test_create_and_lookup(self, service):
        entity = service.create_metastore("m1", owner="alice")
        assert service.metastore_id("m1") == entity.id

    def test_duplicate_name_rejected(self, service, metastore_id):
        with pytest.raises(AlreadyExistsError):
            service.create_metastore("main", owner="alice")

    def test_unknown_owner_rejected(self, service):
        with pytest.raises(NotFoundError):
            service.create_metastore("m2", owner="ghost")

    def test_metastores_are_isolated_namespaces(self, service, mid):
        other = service.create_metastore("other", owner="alice")
        # same catalog name can exist in both metastores
        service.create_securable(other.id, "alice", SecurableKind.CATALOG, "cat")
        with pytest.raises(NotFoundError):
            service.get_securable(other.id, "alice", SecurableKind.SCHEMA,
                                  "cat.sch")


class TestCreate:
    def test_three_level_namespace(self, service, mid):
        table = make_table(service, mid)
        view = service.view(mid)
        assert view.full_name(table) == "cat.sch.t"

    def test_name_uniqueness_within_group(self, service, mid):
        make_table(service, mid)
        with pytest.raises(AlreadyExistsError):
            make_table(service, mid)

    def test_view_and_table_share_namespace(self, service, mid):
        """'two table-like assets cannot have the same name in a schema'"""
        make_table(service, mid)
        with pytest.raises(AlreadyExistsError):
            service.create_securable(
                mid, "alice", SecurableKind.TABLE, "cat.sch.t",
                spec={"table_type": "VIEW", "view_definition": "SELECT 1 AS x"},
            )

    def test_volume_may_share_name_with_table(self, service, mid):
        make_table(service, mid)
        service.create_securable(mid, "alice", SecurableKind.VOLUME,
                                 "cat.sch.t", spec={"volume_type": "MANAGED"})

    def test_missing_parent_raises(self, service, mid):
        with pytest.raises(NotFoundError):
            make_table(service, mid, name="cat.nosuch.t")

    def test_spec_validated_by_manifest(self, service, mid):
        with pytest.raises(InvalidRequestError):
            service.create_securable(mid, "alice", SecurableKind.TABLE,
                                     "cat.sch.bad", spec={"table_type": "NOPE"})

    def test_managed_table_gets_allocated_path(self, service, mid):
        table = make_table(service, mid)
        assert table.storage_path.startswith("s3://unity-managed/")
        assert mid in table.storage_path

    def test_managed_table_rejects_explicit_path(self, service, mid):
        with pytest.raises(InvalidRequestError):
            make_table(service, mid, name="cat.sch.t2",
                       storage_path="s3://somewhere/x")

    def test_view_has_no_storage(self, service, mid):
        view_entity = service.create_securable(
            mid, "alice", SecurableKind.TABLE, "cat.sch.v",
            spec={"table_type": "VIEW", "view_definition": "SELECT 1 AS x"},
        )
        assert view_entity.storage_path is None


class TestExternalStorage:
    @pytest.fixture
    def location(self, service, mid):
        service.create_securable(
            mid, "alice", SecurableKind.STORAGE_CREDENTIAL, "cred",
            spec={"root_secret": service.sts.root_secret},
        )
        return service.create_securable(
            mid, "alice", SecurableKind.EXTERNAL_LOCATION, "landing",
            storage_path="s3://external-bucket/landing",
            spec={"credential_name": "cred"},
        )

    def test_external_table_requires_path(self, service, mid, location):
        with pytest.raises(InvalidRequestError):
            make_table(service, mid, name="cat.sch.ext", table_type="EXTERNAL")

    def test_external_table_requires_covering_location(self, service, mid, location):
        with pytest.raises(PermissionDeniedError):
            make_table(service, mid, name="cat.sch.ext", table_type="EXTERNAL",
                       storage_path="s3://uncovered/x")

    def test_external_table_in_location(self, service, mid, location):
        table = make_table(service, mid, name="cat.sch.ext",
                           table_type="EXTERNAL",
                           storage_path="s3://external-bucket/landing/t1")
        assert table.storage_path == "s3://external-bucket/landing/t1"

    def test_one_asset_per_path_enforced(self, service, mid, location):
        make_table(service, mid, name="cat.sch.ext", table_type="EXTERNAL",
                   storage_path="s3://external-bucket/landing/t1")
        # same path
        with pytest.raises(PathConflictError):
            make_table(service, mid, name="cat.sch.ext2", table_type="EXTERNAL",
                       storage_path="s3://external-bucket/landing/t1")
        # nested path
        with pytest.raises(PathConflictError):
            make_table(service, mid, name="cat.sch.ext3", table_type="EXTERNAL",
                       storage_path="s3://external-bucket/landing/t1/sub")
        # enclosing path
        with pytest.raises(PathConflictError):
            make_table(service, mid, name="cat.sch.ext4", table_type="EXTERNAL",
                       storage_path="s3://external-bucket/landing")

    def test_location_overlap_rejected(self, service, mid, location):
        with pytest.raises(PathConflictError):
            service.create_securable(
                mid, "alice", SecurableKind.EXTERNAL_LOCATION, "nested",
                storage_path="s3://external-bucket/landing/sub",
                spec={"credential_name": "cred"},
            )

    def test_location_requires_known_credential(self, service, mid):
        with pytest.raises(NotFoundError):
            service.create_securable(
                mid, "alice", SecurableKind.EXTERNAL_LOCATION, "bad",
                storage_path="s3://x/y", spec={"credential_name": "ghost"},
            )

    def test_create_table_privilege_on_location(self, service, mid, location):
        """Creating an external table needs CREATE TABLE on the location."""
        service.grant(mid, "alice", SecurableKind.CATALOG, "cat", "bob",
                      Privilege.USE_CATALOG)
        service.grant(mid, "alice", SecurableKind.SCHEMA, "cat.sch", "bob",
                      Privilege.USE_SCHEMA)
        service.grant(mid, "alice", SecurableKind.SCHEMA, "cat.sch", "bob",
                      Privilege.CREATE_TABLE)
        with pytest.raises(PermissionDeniedError):
            service.create_securable(
                mid, "bob", SecurableKind.TABLE, "cat.sch.bobt",
                storage_path="s3://external-bucket/landing/bobt",
                spec={"table_type": "EXTERNAL"},
            )
        service.grant(mid, "alice", SecurableKind.EXTERNAL_LOCATION, "landing",
                      "bob", Privilege.CREATE_TABLE)
        service.create_securable(
            mid, "bob", SecurableKind.TABLE, "cat.sch.bobt",
            storage_path="s3://external-bucket/landing/bobt",
            spec={"table_type": "EXTERNAL"},
        )


class TestUpdate:
    def test_update_comment(self, service, mid):
        make_table(service, mid)
        updated = service.update_securable(
            mid, "alice", SecurableKind.TABLE, "cat.sch.t", comment="hello"
        )
        assert updated.comment == "hello"

    def test_update_merges_properties(self, service, mid):
        make_table(service, mid, properties={"a": "1"})
        updated = service.update_securable(
            mid, "alice", SecurableKind.TABLE, "cat.sch.t",
            properties={"b": "2"},
        )
        assert updated.properties == {"a": "1", "b": "2"}

    def test_update_spec_validated(self, service, mid):
        make_table(service, mid)
        with pytest.raises(InvalidRequestError):
            service.update_securable(
                mid, "alice", SecurableKind.TABLE, "cat.sch.t",
                spec_changes={"table_type": "EXTERNAL"},
            )

    def test_modify_privilege_sufficient_for_update(self, service, mid):
        """'MODIFY is sufficient to update a table's comment field'"""
        make_table(service, mid)
        service.grant(mid, "alice", SecurableKind.CATALOG, "cat", "bob",
                      Privilege.USE_CATALOG)
        service.grant(mid, "alice", SecurableKind.SCHEMA, "cat.sch", "bob",
                      Privilege.USE_SCHEMA)
        with pytest.raises(PermissionDeniedError):
            service.update_securable(mid, "bob", SecurableKind.TABLE,
                                     "cat.sch.t", comment="x")
        service.grant(mid, "alice", SecurableKind.TABLE, "cat.sch.t", "bob",
                      Privilege.MODIFY)
        service.update_securable(mid, "bob", SecurableKind.TABLE, "cat.sch.t",
                                 comment="x")

    def test_transfer_ownership(self, service, mid):
        make_table(service, mid)
        updated = service.transfer_ownership(
            mid, "alice", SecurableKind.TABLE, "cat.sch.t", "carol"
        )
        assert updated.owner == "carol"


class TestDeleteAndGc:
    def test_soft_delete_hides_entity(self, service, mid):
        make_table(service, mid)
        service.delete_securable(mid, "alice", SecurableKind.TABLE, "cat.sch.t")
        with pytest.raises(NotFoundError):
            service.get_securable(mid, "alice", SecurableKind.TABLE,
                                  "cat.sch.t")

    def test_name_reusable_after_delete(self, service, mid):
        make_table(service, mid)
        service.delete_securable(mid, "alice", SecurableKind.TABLE, "cat.sch.t")
        make_table(service, mid)  # same name again

    def test_delete_requires_cascade_for_children(self, service, mid):
        make_table(service, mid)
        with pytest.raises(InvalidRequestError):
            service.delete_securable(mid, "alice", SecurableKind.SCHEMA,
                                     "cat.sch")

    def test_cascade_deletes_subtree(self, service, mid):
        make_table(service, mid)
        deleted = service.delete_securable(
            mid, "alice", SecurableKind.CATALOG, "cat", cascade=True
        )
        # catalog + schema + table
        assert len(deleted) == 3
        assert all(e.state is EntityState.DELETED for e in deleted)

    def test_delete_requires_admin(self, service, mid):
        make_table(service, mid)
        service.grant(mid, "alice", SecurableKind.CATALOG, "cat", "bob",
                      Privilege.USE_CATALOG)
        service.grant(mid, "alice", SecurableKind.SCHEMA, "cat.sch", "bob",
                      Privilege.USE_SCHEMA)
        service.grant(mid, "alice", SecurableKind.TABLE, "cat.sch.t", "bob",
                      Privilege.SELECT)
        with pytest.raises(PermissionDeniedError):
            service.delete_securable(mid, "bob", SecurableKind.TABLE,
                                     "cat.sch.t")

    def test_purge_releases_managed_storage(self, service, mid, clock):
        table = make_table(service, mid)
        # put a data object under the managed path
        path = StoragePath.parse(table.storage_path).child("part-0")
        service.object_store.put(path, b"rows")
        service.delete_securable(mid, "alice", SecurableKind.TABLE, "cat.sch.t")
        report = service.purge_deleted(mid)
        assert report.purged_entities == 1
        assert report.deleted_objects == 1
        assert not service.object_store.exists(path)

    def test_purge_respects_retention(self, service, mid, clock):
        make_table(service, mid)
        service.delete_securable(mid, "alice", SecurableKind.TABLE, "cat.sch.t")
        report = service.purge_deleted(mid, older_than_seconds=3600)
        assert report.purged_entities == 0
        clock.advance(3601)
        report = service.purge_deleted(mid, older_than_seconds=3600)
        assert report.purged_entities == 1

    def test_purge_drops_grants(self, service, mid):
        make_table(service, mid)
        service.grant(mid, "alice", SecurableKind.TABLE, "cat.sch.t", "bob",
                      Privilege.SELECT)
        service.delete_securable(mid, "alice", SecurableKind.TABLE, "cat.sch.t")
        report = service.purge_deleted(mid)
        assert report.purged_grants == 1

    def test_path_freed_after_purge(self, service, mid):
        service.create_securable(
            mid, "alice", SecurableKind.STORAGE_CREDENTIAL, "cred",
            spec={"root_secret": service.sts.root_secret},
        )
        service.create_securable(
            mid, "alice", SecurableKind.EXTERNAL_LOCATION, "landing",
            storage_path="s3://external-bucket/landing",
            spec={"credential_name": "cred"},
        )
        make_table(service, mid, name="cat.sch.ext", table_type="EXTERNAL",
                   storage_path="s3://external-bucket/landing/t1")
        service.delete_securable(mid, "alice", SecurableKind.TABLE,
                                 "cat.sch.ext")
        service.purge_deleted(mid)
        # the path can be claimed by a new asset now
        make_table(service, mid, name="cat.sch.ext2", table_type="EXTERNAL",
                   storage_path="s3://external-bucket/landing/t1")


class TestPurgeRetries:
    """``purge_deleted``'s build runs again on each commit retry: it must
    count once, and release storage only once the commit has landed."""

    @pytest.fixture
    def faulty(self, clock):
        faults = FaultInjector(clock, seed=3)
        service = UnityCatalogService(clock=clock, faults=faults)
        service.directory.add_user("alice")
        mid = service.create_metastore("main", owner="alice").id
        service.create_securable(mid, "alice", SecurableKind.CATALOG, "cat")
        service.create_securable(mid, "alice", SecurableKind.SCHEMA, "cat.sch")
        table = make_table(service, mid)
        data = StoragePath.parse(table.storage_path).child("part-0")
        service.object_store.put(data, b"rows")
        service.delete_securable(mid, "alice", SecurableKind.TABLE, "cat.sch.t")
        return service, mid, faults, table, data

    def test_a_retried_purge_counts_once(self, faulty):
        service, mid, faults, _, data = faulty
        faults.fail_next("store.commit", count=1)
        report = service.purge_deleted(mid)
        assert (report.purged_entities, report.deleted_objects) == (1, 1)
        assert not service.object_store.exists(data)

    def test_a_failed_purge_keeps_the_storage_of_what_it_kept(self, faulty):
        service, mid, faults, table, data = faulty
        faults.fail_next("store.commit", count=10)
        with pytest.raises(ThrottledError):
            service.purge_deleted(mid)
        row = service.store.snapshot(mid).get(Tables.ENTITIES, table.id)
        assert row["state"] == EntityState.DELETED.value
        assert service.object_store.exists(data)
        faults.clear()
        report = service.purge_deleted(mid)
        assert (report.purged_entities, report.deleted_objects) == (1, 1)
        assert not service.object_store.exists(data)

    def test_a_release_failing_after_the_commit_is_audited(self, faulty):
        """Once the rows are purged no later purge finds their paths: a
        failed release must not stop the others, and the audit names it."""
        service, mid, faults, table, data = faulty
        other = make_table(service, mid, name="cat.sch.u")
        other_data = StoragePath.parse(other.storage_path).child("part-0")
        service.object_store.put(other_data, b"rows")
        service.delete_securable(mid, "alice", SecurableKind.TABLE, "cat.sch.u")
        faults.fail_next("list", prefix=StoragePath.parse(table.storage_path))
        with pytest.raises(ThrottledError):
            service.purge_deleted(mid)
        assert service.store.snapshot(mid).get(Tables.ENTITIES, table.id) is None
        assert not service.object_store.exists(other_data)
        assert service.object_store.exists(data)
        (record,) = service.audit.query(action="purge_deleted")
        assert record.details == {"purged": 2, "unreleased": [table.storage_path]}

    def test_a_purge_reads_the_policies_once(self, service, mid, monkeypatch):
        tables = 200
        for i in range(tables):
            make_table(service, mid, name=f"cat.sch.t{i}")
            service.set_row_filter(mid, "alice", f"cat.sch.t{i}", "f", "id > 0")
        service.delete_securable(mid, "alice", SecurableKind.SCHEMA, "cat.sch",
                                 cascade=True)
        policy_rows = []
        raw_snapshot = service.raw_snapshot

        class CountingPolicies:
            def __init__(self, inner):
                self._inner = inner

            def scan(self, table):
                for key, value in self._inner.scan(table):
                    if table == Tables.POLICIES:
                        policy_rows.append(key)
                    yield key, value

            def __getattr__(self, name):
                return getattr(self._inner, name)

        monkeypatch.setattr(service, "raw_snapshot",
                            lambda mid: CountingPolicies(raw_snapshot(mid)))
        report = service.purge_deleted(mid)
        assert report.purged_entities == tables + 1
        assert 0 < len(policy_rows) <= 2 * tables
        assert service.store.snapshot(mid).count(Tables.POLICIES) == 0


class TestModelHierarchy:
    def test_model_and_versions(self, service, mid):
        service.create_securable(mid, "alice", SecurableKind.REGISTERED_MODEL,
                                 "cat.sch.m")
        v1 = service.create_securable(
            mid, "alice", SecurableKind.MODEL_VERSION, "cat.sch.m.v1",
            spec={"version": 1},
        )
        assert v1.storage_path.endswith("/v1")
        # version path nests under the model's managed directory
        model = service.get_securable(mid, "alice",
                                      SecurableKind.REGISTERED_MODEL,
                                      "cat.sch.m")
        assert v1.storage_path.startswith(model.storage_path)

    def test_four_level_resolution(self, service, mid):
        service.create_securable(mid, "alice", SecurableKind.REGISTERED_MODEL,
                                 "cat.sch.m")
        service.create_securable(mid, "alice", SecurableKind.MODEL_VERSION,
                                 "cat.sch.m.v1", spec={"version": 1})
        entity = service.get_securable(mid, "alice",
                                       SecurableKind.MODEL_VERSION,
                                       "cat.sch.m.v1")
        assert entity.spec["version"] == 1

    def test_deleting_model_cascades_versions(self, service, mid):
        service.create_securable(mid, "alice", SecurableKind.REGISTERED_MODEL,
                                 "cat.sch.m")
        service.create_securable(mid, "alice", SecurableKind.MODEL_VERSION,
                                 "cat.sch.m.v1", spec={"version": 1})
        deleted = service.delete_securable(
            mid, "alice", SecurableKind.REGISTERED_MODEL, "cat.sch.m",
            cascade=True,
        )
        assert len(deleted) == 2
