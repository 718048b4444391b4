"""Cross-module integration scenarios and failure injection."""

import threading

import pytest

from repro.clock import SimClock
from repro.cloudstore.object_store import ObjectStore, StoragePath
from repro.core.model.entity import SecurableKind
from repro.core.auth.privileges import Privilege
from repro.core.persistence.sqlite import SqliteMetadataStore
from repro.core.search import SearchService
from repro.core.service.catalog_service import UnityCatalogService
from repro.core.sharing import DeltaSharingClient, DeltaSharingServer
from repro.engine.session import EngineSession
from repro.errors import (
    ConcurrentModificationError,
)

from tests.conftest import grant_table_access

TABLE = "sales.q1.orders"


class TestLifeOfAQuery:
    """The paper's section 3.4 walkthrough, step by step, on one stack."""

    def test_all_eight_steps(self, service, populated):
        mid = populated["metastore_id"]
        grant_table_access(service, mid, "bob")
        service.grant(mid, "alice", SecurableKind.TABLE, TABLE, "bob",
                      Privilege.MODIFY)

        # (1) parse + find securable references happens in the session;
        # (2) metadata resolution and access control in one batched call
        resolution = service.resolve_for_query(mid, "bob", [TABLE])
        asset = resolution.assets[TABLE]
        assert asset.columns and asset.fgac.is_empty

        # (4)+(5) credential vending: short-lived, downscoped
        credential = asset.credential
        assert credential.scope.url() == asset.storage_url
        assert credential.expires_at > service.clock.now()

        # (6) storage access with the vended token only
        from repro.cloudstore.client import StorageClient
        from repro.deltalog.table import DeltaTable

        client = StorageClient(service.object_store, service.sts, credential)
        table = DeltaTable(client, StoragePath.parse(asset.storage_url),
                           clock=service.clock)
        assert table.row_count() == 4

        # (8) results through the engine (3: plan, 7: no FGAC here)
        bob = EngineSession(service, mid, "bob", clock=service.clock)
        result = bob.sql(f"SELECT COUNT(*) AS n FROM {TABLE}")
        assert result.rows == [{"n": 4}]

        # audit trail captured resolution + vending for bob
        actions = {r.action for r in service.audit.query(principal="bob")}
        assert "resolve_query" in actions


class TestSqliteBackedService:
    """The whole stack over the durable SQLite backend."""

    def test_end_to_end_on_sqlite(self, tmp_path):
        clock = SimClock()
        store = SqliteMetadataStore(str(tmp_path / "uc.db"))
        service = UnityCatalogService(store=store, clock=clock)
        service.directory.add_user("alice")
        mid = service.create_metastore("main", owner="alice").id
        service.create_securable(mid, "alice", SecurableKind.CATALOG, "c")
        service.create_securable(mid, "alice", SecurableKind.SCHEMA, "c.s")
        session = EngineSession(service, mid, "alice", trusted=True,
                                clock=clock)
        session.sql("CREATE TABLE c.s.t (x INT)")
        session.sql("INSERT INTO c.s.t VALUES (1), (2), (3)")
        assert session.sql("SELECT SUM(x) AS s FROM c.s.t").rows == [{"s": 6}]
        # metadata survives in the backend independent of the cache
        assert store.current_version(mid) > 0


class TestConcurrency:
    def test_parallel_creates_all_land(self, service, metastore_id):
        """Many threads racing to create securables: the optimistic commit
        loop retries through CAS conflicts and every create lands."""
        mid = metastore_id
        service.create_securable(mid, "alice", SecurableKind.CATALOG, "cat")
        service.create_securable(mid, "alice", SecurableKind.SCHEMA, "cat.s")
        errors = []

        def worker(index: int) -> None:
            try:
                service.create_securable(
                    mid, "alice", SecurableKind.TABLE, f"cat.s.t{index}",
                    spec={"table_type": "MANAGED"},
                )
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        tables = service.list_securables(mid, "alice", SecurableKind.TABLE,
                                         "cat.s")
        assert len(tables) == 16

    def test_parallel_grants_on_same_table(self, service, populated):
        mid = populated["metastore_id"]
        for i in range(12):
            service.directory.add_user(f"user{i}")
        errors = []

        def worker(index: int) -> None:
            try:
                service.grant(mid, "alice", SecurableKind.TABLE, TABLE,
                              f"user{index}", Privilege.SELECT)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        grants = service.grants_on(mid, "alice", SecurableKind.TABLE, TABLE)
        assert len(grants) == 12


class _FlakyObjectStore(ObjectStore):
    """Fails every Nth put with a transient error (before any mutation)."""

    def __init__(self, every: int):
        super().__init__()
        self._every = every
        self._puts = 0

    def put(self, path, data, *, if_absent=False):
        self._puts += 1
        if self._puts % self._every == 0:
            raise ConcurrentModificationError("transient storage error")
        return super().put(path, data, if_absent=if_absent)


class TestFailureInjection:
    def test_delta_commits_survive_flaky_storage(self):
        """Writers retry through transient storage failures; committed
        state never contains partial log entries."""
        from repro.cloudstore.client import StorageClient
        from repro.cloudstore.sts import AccessLevel, StsTokenIssuer
        from repro.deltalog.table import DeltaTable

        clock = SimClock()
        store = _FlakyObjectStore(every=7)
        store.create_bucket("s3", "b")
        sts = StsTokenIssuer(clock=clock)
        root = StoragePath.parse("s3://b/t")
        credential = sts.mint(sts.root_secret, root, AccessLevel.READ_WRITE,
                              ttl_seconds=10**6)
        client = StorageClient(store, sts, credential)
        table = DeltaTable.create(client, root, "tid",
                                  [{"name": "x", "type": "INT"}], clock=clock)
        written = 0
        for i in range(30):
            try:
                table.append([{"x": i}])
                written += 1
            except ConcurrentModificationError:
                pass  # transient; a real engine would retry the job
        # every committed version is fully readable, no torn state
        rows = table.read_all()
        assert len(rows) == written
        assert table.snapshot().total_rows == written

    def test_cache_recovers_from_racing_writers(self, service, metastore_id):
        """Out-of-band backend writes (another node) never corrupt reads."""
        mid = metastore_id
        service.create_securable(mid, "alice", SecurableKind.CATALOG, "cat")
        node = service.cache_node(mid)
        # another node commits behind this node's back
        from repro.core.model.entity import Entity, new_entity_id
        from repro.core.persistence.store import Tables, WriteOp

        rogue = Entity(
            id=new_entity_id(), kind=SecurableKind.CATALOG, name="rogue",
            metastore_id=mid, parent_id=mid, owner="alice",
            created_at=0.0, updated_at=0.0,
        )
        service.store.commit(mid, node.known_version,
                             [WriteOp.put(Tables.ENTITIES, rogue.id,
                                          rogue.to_dict())])
        # the service read path reconciles transparently
        catalogs = service.list_securables(mid, "alice", SecurableKind.CATALOG)
        assert {c.name for c in catalogs} == {"cat", "rogue"}
        # and the next write succeeds after internal retry
        service.create_securable(mid, "alice", SecurableKind.CATALOG, "cat2")


class TestMutateExhaustion:
    def test_persistent_conflicts_surface_cleanly(self, service, metastore_id):
        """If the backend conflicts on every attempt (pathological), the
        write loop gives up with a ConcurrentModificationError instead of
        spinning forever."""
        mid = metastore_id
        original_commit = service.store.commit

        def always_conflict(*args, **kwargs):
            raise ConcurrentModificationError("induced")

        service.store.commit = always_conflict
        try:
            with pytest.raises(ConcurrentModificationError):
                service.create_securable(mid, "alice", SecurableKind.CATALOG,
                                         "doomed")
        finally:
            service.store.commit = original_commit
        # the service remains usable afterwards
        service.create_securable(mid, "alice", SecurableKind.CATALOG, "fine")


class TestDiscoveryPipeline:
    def test_event_to_search_to_lineage_to_gc(self, service, populated):
        """The full second-tier loop: events feed search; lineage guards
        deletion; GC releases storage."""
        mid = populated["metastore_id"]
        session = populated["session"]
        search = SearchService(service)
        search.sync(mid)

        session.sql(f"CREATE VIEW sales.q1.report AS SELECT id FROM {TABLE}")
        search.sync(mid)
        assert search.search(mid, "alice", "report")

        # lineage says the base table has downstream dependents
        assert service.lineage.has_downstream(mid, TABLE)

        # drop the view; the index and lineage check update
        session.sql("DROP TABLE sales.q1.report")
        search.sync(mid)
        assert not search.search(mid, "alice", "report")

        # purge and confirm managed storage is gone
        table = service.get_securable(mid, "alice", SecurableKind.TABLE, TABLE)
        service.delete_securable(mid, "alice", SecurableKind.TABLE, TABLE)
        report = service.purge_deleted(mid)
        assert report.purged_entities >= 1
        prefix = StoragePath.parse(table.storage_path)
        assert service.object_store.list(prefix) == []


class TestConcurrentDeltaWriters:
    def test_racing_appends_all_land_exactly_once(self):
        """Multiple threads appending through separate table handles: the
        put-if-absent commit protocol serializes them with no lost or
        duplicated rows."""
        from repro.cloudstore.client import StorageClient
        from repro.cloudstore.sts import AccessLevel, StsTokenIssuer
        from repro.deltalog.table import DeltaTable

        clock = SimClock()
        store = ObjectStore()
        store.create_bucket("s3", "b")
        sts = StsTokenIssuer(clock=clock)
        root = StoragePath.parse("s3://b/hot")
        credential = sts.mint(sts.root_secret, root, AccessLevel.READ_WRITE,
                              ttl_seconds=10**6)

        DeltaTable.create(StorageClient(store, sts, credential), root, "tid",
                          [{"name": "x", "type": "INT"}], clock=clock)
        errors = []

        def writer(index: int) -> None:
            try:
                handle = DeltaTable(StorageClient(store, sts, credential),
                                    root, clock=clock)
                for j in range(5):
                    handle.append([{"x": index * 100 + j}])
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        reader = DeltaTable(StorageClient(store, sts, credential), root,
                            clock=clock)
        values = sorted(r["x"] for r in reader.read_all())
        expected = sorted(i * 100 + j for i in range(6) for j in range(5))
        assert values == expected
        assert reader.version() == 30  # one commit per append


class TestHttpConcurrency:
    def test_parallel_http_clients(self, service, populated):
        """The threading HTTP server handles concurrent REST clients."""
        from repro.core.service.http_server import (
            UnityCatalogHttpClient,
            UnityCatalogHttpServer,
        )

        with UnityCatalogHttpServer(service) as server:
            host, port = server.address
            results = []

            def worker(index: int) -> None:
                with UnityCatalogHttpClient(host, port, "alice") as client:
                    body = client.request(
                        "GET", "/api/2.1/unity-catalog/tables/" + TABLE,
                        params={"metastore": "main"},
                    )
                results.append(body["name"])

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert results == ["orders"] * 8


class TestSharingAfterChanges:
    def test_share_tracks_optimize_and_vacuum(self, service, populated):
        """External recipients keep reading correctly across OPTIMIZE."""
        mid = populated["metastore_id"]
        sharing = DeltaSharingServer(service, mid)
        sharing.create_share("alice", "s")
        sharing.create_recipient("alice", "partner", "tok")
        sharing.add_table_to_share("alice", "s", TABLE)
        sharing.grant_share("alice", "s", "partner")
        client = DeltaSharingClient(sharing, "tok", service.object_store,
                                    service.sts)
        assert len(client.read_table("s", TABLE)) == 4

        # provider maintenance rewrites the files
        from repro.cloudstore.client import StorageClient
        from repro.cloudstore.sts import AccessLevel
        from repro.deltalog.table import DeltaTable

        credential = service.vend_credentials(
            mid, "alice", SecurableKind.TABLE, TABLE, AccessLevel.READ_WRITE
        )
        table_entity = service.get_securable(mid, "alice",
                                             SecurableKind.TABLE, TABLE)
        delta = DeltaTable(
            StorageClient(service.object_store, service.sts, credential),
            StoragePath.parse(table_entity.storage_path), clock=service.clock,
        )
        delta.optimize(target_rows_per_file=2)
        service.clock.advance(1)
        delta.vacuum(0)
        assert len(client.read_table("s", TABLE)) == 4
