"""Sharding service, catalog nodes over one shared store, and the HMS
simulator."""

import random

import pytest

from repro.clock import SimClock
from repro.core.auth.principals import PrincipalDirectory
from repro.core.auth.privileges import Privilege
from repro.core.model.entity import SecurableKind
from repro.core.persistence.memory import InMemoryMetadataStore
from repro.core.persistence.sqlite import SqliteMetadataStore
from repro.core.service.catalog_service import UnityCatalogService
from repro.core.service.rest import RestApi
from repro.core.sharding import ShardingService
from repro.hms.metastore import HiveMetastore, HiveTable, StorageDescriptor
from repro.errors import (
    AlreadyExistsError,
    InvalidRequestError,
    NotFoundError,
    PermissionDeniedError,
)


class TestShardingService:
    def test_assignment_is_deterministic(self):
        sharding = ShardingService()
        for node in ("n1", "n2", "n3"):
            sharding.add_node(node)
        assert sharding.owner_of("m1") == sharding.owner_of("m1")

    def test_no_nodes_raises(self):
        with pytest.raises(NotFoundError):
            ShardingService().owner_of("m1")

    def test_duplicate_node_rejected(self):
        sharding = ShardingService()
        sharding.add_node("n1")
        with pytest.raises(InvalidRequestError):
            sharding.add_node("n1")

    def test_remove_unknown_node_raises(self):
        with pytest.raises(NotFoundError):
            ShardingService().remove_node("nope")

    def test_rendezvous_minimal_movement(self):
        """Removing one node only moves the metastores it owned."""
        sharding = ShardingService()
        for node in ("n1", "n2", "n3", "n4"):
            sharding.add_node(node)
        metastores = [f"m{i}" for i in range(200)]
        before = sharding.assignment(metastores)
        sharding.remove_node("n4")
        after = sharding.assignment(metastores)
        moved = [m for m in metastores if before[m] != after[m]]
        assert all(before[m] == "n4" for m in moved)
        assert moved  # n4 did own something

    def test_load_roughly_balanced(self):
        sharding = ShardingService()
        for node in ("n1", "n2", "n3", "n4"):
            sharding.add_node(node)
        metastores = [f"m{i}" for i in range(400)]
        load = sharding.load(metastores)
        assert min(load.values()) > 0
        assert max(load.values()) < 3 * min(load.values())


def _peer(store, directory, **kwargs):
    """One catalog service process over a store shared with its peers.
    The principal directory is injected: it is per-process state."""
    return UnityCatalogService(store=store, directory=directory,
                               clock=SimClock(), **kwargs)


@pytest.fixture(params=["memory", "sqlite"])
def open_store(request, tmp_path):
    """Opens the one shared store again: the same memory store object,
    or a new connection to the same SQLite file."""
    if request.param == "memory":
        store = InMemoryMetadataStore()
        yield lambda: store
        return
    opened = []

    def open_sqlite():
        opened.append(SqliteMetadataStore(str(tmp_path / "catalog.db")))
        return opened[-1]

    yield open_sqlite
    for store in opened:
        store.close()


@pytest.fixture
def directory():
    directory = PrincipalDirectory()
    directory.add_user("admin")
    directory.add_user("reader")
    return directory


def _outcome(call):
    try:
        return "ok", call()
    except (NotFoundError, AlreadyExistsError, PermissionDeniedError) as exc:
        return "error", type(exc).__name__


def _resolution(service, mid, tables):
    res = service.resolve_for_query(mid, "reader", tables,
                                    include_credentials=False)
    return res.metastore_version, {
        name: (asset.entity, asset.columns, asset.storage_url)
        for name, asset in res.assets.items()
    }


def _observe(service, mid):
    """What the reader sees: every table by name, the schema listing, and
    a batched resolution of the first two tables."""
    return (
        [_outcome(lambda i=i: service.get_securable(
            mid, "reader", SecurableKind.TABLE, f"c.s.t{i}"))
         for i in range(6)],
        _outcome(lambda: sorted(e.name for e in service.list_securables(
            mid, "reader", SecurableKind.TABLE, "c.s"))),
        _outcome(lambda: _resolution(service, mid, ["c.s.t0", "c.s.t1"])),
    )


def _script_step(service, mid, rng):
    """One random write: create a table, or rename, grant, revoke or drop
    one that exists."""
    kind = SecurableKind.TABLE
    live = sorted(e.name for e in service.list_securables(
        mid, "admin", kind, "c.s"))
    op = rng.choice(("create", "rename", "grant", "revoke", "drop")
                    if live else ("create",))
    name = rng.choice(live) if op != "create" else f"t{rng.randrange(6)}"
    table = f"c.s.{name}"
    calls = {
        "create": lambda: service.create_securable(
            mid, "admin", kind, table, spec={"table_type": "MANAGED"}),
        "rename": lambda: service.rename_securable(
            mid, "admin", kind, table, f"t{rng.randrange(6)}"),
        "grant": lambda: service.grant(
            mid, "admin", kind, table, "reader", Privilege.SELECT),
        "revoke": lambda: service.revoke(
            mid, "admin", kind, table, "reader", Privilege.SELECT),
        "drop": lambda: service.delete_securable(mid, "admin", kind, table),
    }
    _outcome(calls[op])


def _seed_estate(service, mid):
    service.create_securable(mid, "admin", SecurableKind.CATALOG, "c")
    service.create_securable(mid, "admin", SecurableKind.SCHEMA, "c.s")
    service.grant(mid, "admin", SecurableKind.CATALOG, "c", "reader",
                  Privilege.USE_CATALOG)
    service.grant(mid, "admin", SecurableKind.SCHEMA, "c.s", "reader",
                  Privilege.USE_SCHEMA)


class TestNodesOverOneStore:
    """Catalog services are caches over one shared store (sections 4.5
    and 5): which metastores exist is read from the store, so a restarted
    service and a peer serve every metastore in it, each through its own
    cache node."""

    def test_reopened_service_serves_the_metastores_in_its_store(
            self, open_store, directory):
        first = _peer(open_store(), directory)
        zeta = first.create_metastore("zeta", owner="admin").id
        alpha = first.create_metastore("alpha", owner="admin").id
        first.create_securable(alpha, "admin", SecurableKind.CATALOG, "c")
        assert first.metastore_ids() == [alpha, zeta]  # name order

        second = _peer(open_store(), directory)
        assert second.metastore_ids() == [alpha, zeta]
        assert second.metastore_id("alpha") == alpha
        with pytest.raises(NotFoundError):
            second.metastore_id("beta")
        with pytest.raises(AlreadyExistsError):
            second.create_metastore("alpha", owner="admin")
        assert second.metastore_ids() == [alpha, zeta]

        second.get_securable(alpha, "admin", SecurableKind.CATALOG, "c")
        node = second.cache_node(alpha)
        assert node is not None  # the first read attached a node
        assert node.stats.hits > 0 and node.stats.misses == 0
        reads = node.stats.version_checks
        second.get_securable(alpha, "admin", SecurableKind.CATALOG, "c")
        assert node.stats.version_checks == reads + 1
        assert second.cache_node(alpha) is node

    @pytest.mark.parametrize("seed", [3, 17])
    def test_two_cached_nodes_agree_with_an_uncached_one(
            self, open_store, directory, seed):
        """A seeded script alternates writes between two cache-on nodes;
        after every step both answer exactly as a cache-off node does."""
        a = _peer(open_store(), directory)
        mid = a.create_metastore("m", owner="admin").id
        _seed_estate(a, mid)
        b = _peer(open_store(), directory)
        uncached = _peer(open_store(), directory, enable_cache=False)
        assert b.metastore_id("m") == mid
        rng = random.Random(seed)
        for step in range(30):
            _script_step(a if step % 2 == 0 else b, mid, rng)
            expected = _observe(uncached, mid)
            assert _observe(a, mid) == expected, step
            assert _observe(b, mid) == expected, step
        for service in (a, b):
            node = service.cache_node(mid)
            assert node is not None and node.stats.hits > 0
        assert uncached.cache_node(mid) is None

    def test_stale_router_dual_ownership_stays_consistent(
            self, open_store, directory):
        """B believes it owns the metastore and skips the per-read version
        probe. A's writes make B's node stale; B's next write fails the
        version CAS, reconciles, retries and converges (section 4.5)."""
        a = _peer(open_store(), directory)
        mid = a.create_metastore("m", owner="admin").id
        _seed_estate(a, mid)
        b = _peer(open_store(), directory, read_version_check=False)
        uncached = _peer(open_store(), directory, enable_cache=False)
        assert b.metastore_id("m") == mid
        rng = random.Random(5)
        for step in range(12):
            _script_step(a, mid, rng)
            b.update_securable(mid, "admin", SecurableKind.CATALOG, "c",
                               comment=f"step {step}")
            assert _observe(b, mid) == _observe(uncached, mid), step
        conflicts = b.obs.metrics.get("uc_store_commit_conflicts_total")
        assert conflicts.value >= 1
        assert b.cache_node(mid).stats.commit_conflicts >= 1


    def test_a_metastore_is_never_renamed_or_deleted(
            self, open_store, directory):
        """``rename_securable`` and ``delete_securable`` refuse the
        METASTORE kind through the facade and through REST, audit the
        refusal, and leave every service over the store agreeing on
        which metastores exist."""
        first = _peer(open_store(), directory)
        mid = first.create_metastore("m1", owner="admin").id
        second = _peer(open_store(), directory)
        assert second.metastore_id("m1") == mid
        metastore = SecurableKind.METASTORE

        def refused_and_audited(action, call):
            before = len(first.audit)
            with pytest.raises(InvalidRequestError, match="create_metastore"):
                call()
            [record] = list(first.audit)[before:]
            assert (record.action, record.allowed) == (action, False)
            assert record.details["error"] == "INVALID_PARAMETER_VALUE"

        refused_and_audited("rename_securable", lambda: first.rename_securable(
            mid, "admin", metastore, "m1", "m2"))
        refused_and_audited("delete_securable", lambda: first.delete_securable(
            mid, "admin", metastore, "m1", cascade=True))

        api = RestApi(first)
        path = "/api/2.1/unity-catalog/metastores/m1"
        for method, body, action in (
            ("PATCH", {"new_name": "m2"}, "rename_securable"),
            ("DELETE", None, "delete_securable"),
        ):
            before = len(first.audit)
            status, reply = api.handle(method, path, principal="admin",
                                       params={"metastore": "m1"}, body=body)
            assert (status, reply["message"]) == (400, "use create_metastore")
            [record] = list(first.audit)[before:]
            assert (record.action, record.allowed) == (action, False)

        fresh = _peer(open_store(), directory)
        for service in (first, second, fresh):
            assert service.metastore_ids() == [mid]
            assert service.metastore_id("m1") == mid
            with pytest.raises(NotFoundError):
                service.metastore_id("m2")
            with pytest.raises(AlreadyExistsError):
                service.create_metastore("m1", owner="admin")
        m2 = first.create_metastore("m2", owner="admin").id
        with pytest.raises(AlreadyExistsError):
            second.create_metastore("m2", owner="admin")
        for service in (first, second, fresh):
            assert service.metastore_ids() == [mid, m2]


class TestHiveMetastore:
    @pytest.fixture
    def hms(self):
        metastore = HiveMetastore()
        metastore.create_database("db", "s3://w/db")
        return metastore

    def _table(self, name="t"):
        return HiveTable(
            database="db", name=name,
            columns=[{"name": "a", "type": "INT"}],
            storage=StorageDescriptor(location=f"s3://w/db/{name}"),
        )

    def test_create_and_get_table(self, hms):
        hms.create_table(self._table())
        table = hms.get_table("db", "t")
        assert table.storage.location == "s3://w/db/t"

    def test_duplicate_table_rejected(self, hms):
        hms.create_table(self._table())
        with pytest.raises(AlreadyExistsError):
            hms.create_table(self._table())

    def test_table_in_missing_db_rejected(self, hms):
        with pytest.raises(NotFoundError):
            hms.create_table(HiveTable(database="nope", name="t"))

    def test_list_tables(self, hms):
        hms.create_table(self._table("b"))
        hms.create_table(self._table("a"))
        assert hms.get_all_tables("db") == ["a", "b"]

    def test_drop_table(self, hms):
        hms.create_table(self._table())
        hms.drop_table("db", "t")
        with pytest.raises(NotFoundError):
            hms.get_table("db", "t")

    def test_drop_database_requires_cascade(self, hms):
        hms.create_table(self._table())
        with pytest.raises(InvalidRequestError):
            hms.drop_database("db")
        hms.drop_database("db", cascade=True)
        assert hms.get_all_databases() == []

    def test_partitions(self, hms):
        hms.create_table(self._table())
        hms.add_partition("db", "t", {"ds": "2024-01-01"})
        assert hms.get_partitions("db", "t") == [{"ds": "2024-01-01"}]

    def test_alter_table(self, hms):
        hms.create_table(self._table())
        table = hms.get_table("db", "t")
        table.columns.append({"name": "b", "type": "STRING"})
        hms.alter_table("db", "t", table)
        assert len(hms.get_table("db", "t").columns) == 2

    def test_db_query_accounting(self, hms):
        """HMS metadata calls are chatty — the property the Figure 10(a)
        cost model builds on."""
        hms.create_table(self._table())
        before = hms.stats.db_queries
        hms.get_table("db", "t")
        assert hms.stats.db_queries - before == 3  # TBLS + SDS + COLUMNS

    def test_no_governance_in_hms(self, hms):
        """HMS hands out raw locations to anyone — no principals, grants,
        or credential vending exist in its API (the paper's contrast)."""
        hms.create_table(self._table())
        table = hms.get_table("db", "t")
        assert table.storage.location  # raw path, no token required
        assert not hasattr(hms, "grant")
        assert not hasattr(hms, "vend_credentials")
