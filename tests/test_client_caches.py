"""Client-pushed metadata caching and the RINK credential cache."""


from repro.core.cache.ttl import TtlCache
from repro.core.model.entity import SecurableKind
from repro.core.service.catalog_service import UnityCatalogService
from repro.cloudstore.sts import AccessLevel
from repro.engine.session import EngineSession

TABLE = "sales.q1.orders"


class TestClientMetadataCache:
    def test_repeated_queries_reuse_resolution(self, service, populated):
        mid = populated["metastore_id"]
        session = EngineSession(service, mid, "alice", trusted=True,
                                clock=service.clock, metadata_cache_ttl=120)
        for _ in range(5):
            session.sql(f"SELECT COUNT(*) AS n FROM {TABLE}")
        assert session.resolve_calls == 1

    def test_cache_expires_after_ttl(self, service, populated, clock):
        mid = populated["metastore_id"]
        session = EngineSession(service, mid, "alice", trusted=True,
                                clock=clock, metadata_cache_ttl=60)
        session.sql(f"SELECT COUNT(*) AS n FROM {TABLE}")
        clock.advance(61)
        session.sql(f"SELECT COUNT(*) AS n FROM {TABLE}")
        assert session.resolve_calls == 2

    def test_cache_dropped_near_credential_expiry(self, service, populated,
                                                  clock):
        """Even within the TTL, a resolution with an almost-expired token
        is not reused — engines only reuse credentials in-validity."""
        mid = populated["metastore_id"]
        session = EngineSession(service, mid, "alice", trusted=True,
                                clock=clock, metadata_cache_ttl=10**6)
        session.sql(f"SELECT COUNT(*) AS n FROM {TABLE}")
        clock.advance(14 * 60 + 30)  # token (15min) nearly out
        session.sql(f"SELECT COUNT(*) AS n FROM {TABLE}")
        assert session.resolve_calls == 2

    def test_disabled_by_default(self, service, populated):
        mid = populated["metastore_id"]
        session = EngineSession(service, mid, "alice", trusted=True,
                                clock=service.clock)
        session.sql(f"SELECT COUNT(*) AS n FROM {TABLE}")
        session.sql(f"SELECT COUNT(*) AS n FROM {TABLE}")
        assert session.resolve_calls == 2

    def test_different_statements_different_entries(self, service, populated):
        mid = populated["metastore_id"]
        session = populated["session"]
        cached = EngineSession(service, mid, "alice", trusted=True,
                               clock=service.clock, metadata_cache_ttl=120)
        session.sql("CREATE TABLE sales.q1.other (x INT)")
        cached.sql(f"SELECT COUNT(*) AS n FROM {TABLE}")
        cached.sql("SELECT COUNT(*) AS n FROM sales.q1.other")
        assert cached.resolve_calls == 2


class TestRinkCredentialCache:
    def test_tokens_survive_service_restart(self, clock):
        """Two service instances (restart) sharing one RINK cache: the
        second serves the cached token without re-minting."""
        rink = TtlCache(ttl_seconds=600, clock=clock)

        def build_service():
            svc = UnityCatalogService(clock=clock, rink_cache=rink)
            return svc

        first = build_service()
        first.directory.add_user("alice")
        mid = first.create_metastore("m", owner="alice").id
        first.create_securable(mid, "alice", SecurableKind.CATALOG, "c")
        first.create_securable(mid, "alice", SecurableKind.SCHEMA, "c.s")
        entity = first.create_securable(
            mid, "alice", SecurableKind.TABLE, "c.s.t",
            spec={"table_type": "MANAGED"},
        )
        token_1 = first.vend_credentials(mid, "alice", SecurableKind.TABLE,
                                         "c.s.t", AccessLevel.READ)

        # "restart": a new service process over the same backing store,
        # STS, and RINK cache
        second = UnityCatalogService(
            store=first.store, clock=clock, sts=first.sts,
            object_store=first.object_store, directory=first.directory,
            rink_cache=rink,
        )
        minted_before = second.vendor.stats.minted
        token_2 = second.vend_credentials(mid, "alice", SecurableKind.TABLE,
                                          "c.s.t", AccessLevel.READ)
        assert token_2.token == token_1.token
        assert second.vendor.stats.minted == minted_before

    def test_without_rink_restart_remints(self, clock):
        first = UnityCatalogService(clock=clock)
        first.directory.add_user("alice")
        mid = first.create_metastore("m", owner="alice").id
        first.create_securable(mid, "alice", SecurableKind.CATALOG, "c")
        first.create_securable(mid, "alice", SecurableKind.SCHEMA, "c.s")
        first.create_securable(mid, "alice", SecurableKind.TABLE, "c.s.t",
                               spec={"table_type": "MANAGED"})
        token_1 = first.vend_credentials(mid, "alice", SecurableKind.TABLE,
                                         "c.s.t", AccessLevel.READ)
        second = UnityCatalogService(
            store=first.store, clock=clock, sts=first.sts,
            object_store=first.object_store, directory=first.directory,
        )
        token_2 = second.vend_credentials(mid, "alice", SecurableKind.TABLE,
                                          "c.s.t", AccessLevel.READ)
        assert token_2.token != token_1.token
