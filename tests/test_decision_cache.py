"""The version-pinned hot-path caches (decision + resolution).

The fast path is an optimization layered on the node cache: every test
here checks the same invariant from a different angle — a cached answer
is only ever served while it is still the answer the slow path would
compute. Invalidation is selective (grant changes drop only the touched
principal x subtree, renames only the touched names), so the second half
of each test asserts that *unrelated* entries survived.
"""

from __future__ import annotations

import time
from random import Random

import pytest

from repro.core.auth.authorizer import AccessDecision
from repro.core.auth.privileges import Privilege
from repro.core.auth.abac import AbacEffect, TagCondition
from repro.core.cache import decisions as decisions_module
from repro.core.cache.decisions import HotPathCaches
from repro.core.model.entity import Entity, SecurableKind
from repro.core.persistence.memory import InMemoryMetadataStore
from repro.core.persistence.sqlite import SqliteMetadataStore
from repro.core.persistence.store import Tables, WriteOp
from repro.core.service.catalog_service import UnityCatalogService
from repro.core.sharding import ShardingService
from repro.engine.session import EngineSession
from repro.errors import NotFoundError, PermissionDeniedError

TABLE = "sales.q1.orders"
OTHER = "sales.q1.refunds"


@pytest.fixture
def ctx(service, populated):
    mid = populated["metastore_id"]
    populated["session"].sql(
        "CREATE TABLE sales.q1.refunds (id INT, amount INT)"
    )
    # bob can read both tables through the usual grant chain
    service.grant(mid, "alice", SecurableKind.CATALOG, "sales", "bob",
                  Privilege.USE_CATALOG)
    service.grant(mid, "alice", SecurableKind.SCHEMA, "sales.q1", "bob",
                  Privilege.USE_SCHEMA)
    for table in (TABLE, OTHER):
        service.grant(mid, "alice", SecurableKind.TABLE, table, "bob",
                      Privilege.SELECT)
    return service, mid


def _bundle(service, mid):
    bundle = service.hot_caches(mid)
    assert bundle is not None, "fast path should be on by default"
    return bundle


def _query(service, mid, principal, table=TABLE):
    return service.resolve_for_query(mid, principal, [table],
                                     engine_trusted=True)


class TestDecisionCache:
    def test_warm_queries_hit_both_caches(self, ctx):
        service, mid = ctx
        bundle = _bundle(service, mid)
        _query(service, mid, "bob")
        hits0 = (bundle.stats.authz_hits, bundle.stats.resolution_hits)
        misses0 = (bundle.stats.authz_misses, bundle.stats.resolution_misses)
        _query(service, mid, "bob")
        assert bundle.stats.authz_hits > hits0[0]
        assert bundle.stats.resolution_hits > hits0[1]
        assert (bundle.stats.authz_misses,
                bundle.stats.resolution_misses) == misses0

    def test_revoke_flips_cached_decision(self, ctx):
        service, mid = ctx
        _query(service, mid, "bob")  # cache the allow
        service.revoke(mid, "alice", SecurableKind.TABLE, TABLE, "bob",
                       Privilege.SELECT)
        with pytest.raises(PermissionDeniedError):
            _query(service, mid, "bob")
        service.grant(mid, "alice", SecurableKind.TABLE, TABLE, "bob",
                      Privilege.SELECT)
        _query(service, mid, "bob")  # and back again at the next version

    def test_revoke_retains_unrelated_entries(self, ctx):
        service, mid = ctx
        bundle = _bundle(service, mid)
        _query(service, mid, "bob", OTHER)
        service.revoke(mid, "alice", SecurableKind.TABLE, TABLE, "bob",
                       Privilege.SELECT)
        misses0 = bundle.stats.authz_misses
        _query(service, mid, "bob", OTHER)  # untouched subtree: still warm
        assert bundle.stats.authz_misses == misses0

    def test_rename_invalidates_resolution(self, ctx):
        service, mid = ctx
        _query(service, mid, "bob")
        service.rename_securable(mid, "alice", SecurableKind.TABLE, TABLE,
                                 "orders_v2")
        with pytest.raises(NotFoundError):
            _query(service, mid, "bob")
        _query(service, mid, "bob", "sales.q1.orders_v2")

    def test_drop_invalidates_resolution(self, ctx):
        service, mid = ctx
        _query(service, mid, "bob", OTHER)
        service.delete_securable(mid, "alice", SecurableKind.TABLE, OTHER)
        with pytest.raises(NotFoundError):
            _query(service, mid, "bob", OTHER)

    def test_ownership_transfer_flips_decision(self, ctx):
        service, mid = ctx
        service.directory.add_user("dave")
        with pytest.raises(PermissionDeniedError):
            _query(service, mid, "dave")  # cache the denial
        service.grant(mid, "alice", SecurableKind.CATALOG, "sales", "dave",
                      Privilege.USE_CATALOG)
        service.grant(mid, "alice", SecurableKind.SCHEMA, "sales.q1", "dave",
                      Privilege.USE_SCHEMA)
        service.transfer_ownership(mid, "alice", SecurableKind.TABLE, TABLE,
                                   "dave")
        _query(service, mid, "dave")  # owner now; no stale denial

    def test_abac_policy_change_flips_fgac(self, ctx):
        service, mid = ctx
        service.set_tag(mid, "alice", SecurableKind.TABLE, TABLE, "pii", "yes")
        assert _query(service, mid, "bob").asset(TABLE).fgac.is_empty
        policy = service.create_abac_policy(
            mid, "alice", name="pii-filter",
            scope_kind=SecurableKind.METASTORE, scope_name=None,
            condition=TagCondition("pii", "yes"),
            effect=AbacEffect.FILTER_ROWS, predicate_sql="amount < 100",
        )
        assert not _query(service, mid, "bob").asset(TABLE).fgac.is_empty
        service.drop_abac_policy(mid, "alice", policy.policy_id)
        assert _query(service, mid, "bob").asset(TABLE).fgac.is_empty

    def test_group_membership_change_invalidates(self, ctx):
        service, mid = ctx
        service.grant(mid, "alice", SecurableKind.CATALOG, "sales",
                      "engineers", Privilege.USE_CATALOG)
        service.grant(mid, "alice", SecurableKind.SCHEMA, "sales.q1",
                      "engineers", Privilege.USE_SCHEMA)
        service.grant(mid, "alice", SecurableKind.TABLE, TABLE, "engineers",
                      Privilege.SELECT)
        _query(service, mid, "carol")  # via engineers membership
        service.directory.remove_member("engineers", "carol")
        with pytest.raises(PermissionDeniedError):
            _query(service, mid, "carol")
        service.directory.add_member("engineers", "carol")
        _query(service, mid, "carol")

    def test_cross_node_write_is_not_served_stale(self, ctx):
        """A write that bypasses this node's write-through (a second
        service instance on the shared store — dual ownership during a
        sharding handoff) must be observed at the next read."""
        service, mid = ctx
        _query(service, mid, "bob")
        other = UnityCatalogService(
            store=service.store, directory=service.directory,
            registry=service.registry, clock=service.clock,
            enable_cache=False,
        )
        other.revoke(mid, "alice", SecurableKind.TABLE, TABLE, "bob",
                     Privilege.SELECT)
        with pytest.raises(PermissionDeniedError):
            _query(service, mid, "bob")

    def test_direct_store_commit_is_not_served_stale(self, ctx):
        """Even a raw store commit (no service, no change events) is
        picked up: sync replays the change log, never trusts the bundle."""
        service, mid = ctx
        _query(service, mid, "bob")
        entity = service.get_securable(mid, "alice", SecurableKind.TABLE,
                                       TABLE)
        key = f"{entity.id}/bob/{Privilege.SELECT.value}"
        service.store.commit(mid, service.store.current_version(mid),
                             [WriteOp.delete(Tables.GRANTS, key)])
        with pytest.raises(PermissionDeniedError):
            _query(service, mid, "bob")

    def test_pinned_snapshot_views_skip_the_cache(self, ctx):
        """A view older than the bundle must recompute, not fast-path."""
        service, mid = ctx
        bundle = _bundle(service, mid)
        _query(service, mid, "bob")
        old_view = service.view(mid)
        service.grant(mid, "alice", SecurableKind.TABLE, TABLE, "carol",
                      Privilege.SELECT)
        assert bundle.sync(service.view(mid).version)
        assert not bundle.sync(old_view.version)


class TestStalePut:
    """A put carries the version its answer was computed at."""

    def test_answer_computed_before_a_commit_is_not_cached_after_it(self, ctx):
        """A reader that synced the bundle, lost the CPU to a writer and
        then finished against its older view keeps its own answer — but
        the bundle, which has already invalidated past that version,
        must not learn it."""
        service, mid = ctx
        service.revoke(mid, "alice", SecurableKind.TABLE, TABLE, "bob",
                       Privilege.SELECT)
        service.transfer_ownership(mid, "alice", SecurableKind.TABLE, TABLE,
                                   "bob")
        # the reader: a view, the entity, the bundle synced to that view
        view = service.view(mid)
        entity = service._resolve(view, mid, SecurableKind.TABLE, TABLE)
        cache = service._hot_caches_for(mid, view)
        # the writer: bob gives the table away; note_commit moves the bundle
        service.transfer_ownership(mid, "bob", SecurableKind.TABLE, TABLE,
                                   "alice")
        assert cache.version == view.version + 1
        # the reader resumes: right for its view ...
        decision = service.authorizer.authorize(view, entity, "read_data",
                                                "bob", cache)
        assert decision == AccessDecision(True, "owner of securable")
        # ... and nobody after it is served that answer
        with pytest.raises(PermissionDeniedError):
            _query(service, mid, "bob")

    def test_stale_resolutions_and_chains_are_not_kept_either(self, ctx):
        service, mid = ctx
        bundle = _bundle(service, mid)
        view = service.view(mid)
        entity = service._resolve(view, mid, SecurableKind.TABLE, TABLE)
        service.update_securable(mid, "alice", SecurableKind.TABLE, OTHER,
                                 comment="moves the bundle on")
        before = bundle.sizes()
        assert [link.id for link in bundle.chain(view, entity)][0] == entity.id
        bundle.put_resolution(SecurableKind.TABLE, "sales.q1.stale", entity,
                              [mid, entity.id], view.version)
        assert bundle.sizes() == before


class TestScopes:
    """What a write drops, and what it leaves warm."""

    @pytest.fixture
    def warm(self, ctx):
        service, mid = ctx
        service.directory.add_user("dave")  # a stranger: no grants at all

        def get(principal, kind=SecurableKind.TABLE, name=OTHER):
            """(allowed, evaluated afresh) for one point read."""
            evaluations = service.authorizer.evaluations
            try:
                service.get_securable(mid, principal, kind, name)
                allowed = True
            except PermissionDeniedError:
                allowed = False
            return allowed, service.authorizer.evaluations > evaluations

        return service, mid, get

    def test_comment_edit_drops_only_that_tables_entries(self, warm):
        service, mid, get = warm
        assert get("bob") == (True, True)     # an allow found on the chain
        assert get("dave") == (False, True)   # a denial on a leaf kind
        assert get("bob", name=TABLE) == (True, True)
        service.update_securable(mid, "alice", SecurableKind.TABLE, TABLE,
                                 comment="edited")
        assert get("bob") == (True, False)    # the sibling's entries: hits
        assert get("dave") == (False, False)
        assert get("bob", name=TABLE) == (True, True)

    def test_create_under_a_schema_drops_a_strangers_denial_on_it(self, warm):
        service, mid, get = warm
        schema = (SecurableKind.SCHEMA, "sales.q1")
        assert get("dave", *schema) == (False, True)
        assert get("dave", *schema) == (False, False)
        EngineSession(service, mid, "alice", trusted=True, clock=service.clock).sql(
            "CREATE TABLE sales.q1.fresh (id INT)")
        # the denial looked beneath the schema, so what appears there counts
        assert get("dave", *schema) == (False, True)
        service.grant(mid, "alice", SecurableKind.TABLE, "sales.q1.fresh",
                      "dave", Privilege.SELECT)
        assert get("dave", *schema) == (True, True)

    def test_descendant_grant_visibility_follows_the_descendant(self, warm):
        service, mid, get = warm
        schema = (SecurableKind.SCHEMA, "sales.q1")
        service.grant(mid, "alice", SecurableKind.TABLE, OTHER, "dave",
                      Privilege.SELECT)
        assert get("dave", *schema) == (True, True)  # through the table
        service.delete_securable(mid, "alice", SecurableKind.TABLE, OTHER)
        assert get("dave", *schema) == (False, True)


# -- the index itself ---------------------------------------------------------


class _Tree:
    """A fixed hierarchy standing in for a view: ids are full names."""

    def __init__(self, catalogs=2, schemas=2, tables=3):
        self.version = 0
        self.entities: dict[str, Entity] = {}
        self._add("m", SecurableKind.METASTORE, None)
        for c in range(catalogs):
            self._add(f"c{c}", SecurableKind.CATALOG, "m")
            for s in range(schemas):
                self._add(f"c{c}.s{s}", SecurableKind.SCHEMA, f"c{c}")
                for t in range(tables):
                    self._add(f"c{c}.s{s}.t{t}", SecurableKind.TABLE, f"c{c}.s{s}")

    def _add(self, name, kind, parent):
        self.entities[name] = Entity(
            id=name, kind=kind, name=name, metastore_id="m", parent_id=parent,
            owner="admin", created_at=0.0, updated_at=0.0)

    def ancestors(self, entity):
        out = []
        while entity.parent_id is not None:
            entity = self.entities[entity.parent_id]
            out.append(entity)
        return out

    def chain_ids(self, securable_id):
        entity = self.entities[securable_id]
        return frozenset([securable_id, *(a.id for a in self.ancestors(entity))])


def _new_bundle(generation=lambda: 0):
    return HotPathCaches("m", 0, lambda version: [], generation)


def _assert_indexes_exact(bundle):
    """Every index holds exactly the live keys; no empty set is left."""
    index, decisions = bundle._index, bundle.decisions
    filed: dict[str, tuple[set, set]] = {}
    for key in decisions._entries:
        filed.setdefault(key[1], (set(), set()))[0].add(key)
    for key, entity in bundle.resolutions._entries.items():
        filed.setdefault(entity.id, (set(), set()))[1].add(key)
    for securable_id in bundle._chains:
        filed.setdefault(securable_id, (set(), set()))
    assert set(index._filed) == set(filed)
    holders: dict[str, set] = {}
    for securable_id, record in index._filed.items():
        assert record.decisions == filed[securable_id][0]
        assert len(record.names) == len(set(record.names))
        assert set(record.names) == filed[securable_id][1]
        assert record.chained == (securable_id in bundle._chains)
        for member in record.chain_ids:
            holders.setdefault(member, set()).add(securable_id)
    assert index._holders == holders
    by_identity: dict[str, set] = {}
    for key, entry in decisions._entries.items():
        if entry.subtree:
            for identity in entry.identities:
                by_identity.setdefault(identity, set()).add(key)
    assert decisions._subtree_by_identity == by_identity


class TestChainIndex:
    @pytest.mark.parametrize("seed", range(8))
    def test_indexes_stay_exact_and_match_the_linear_scan(self, seed, monkeypatch):
        """Random put / overwrite / invalidate / clear / cap eviction:
        after every step the indexes are exact, and what survived is what
        the old scan over all entries would have kept."""
        cap = 48
        monkeypatch.setattr(decisions_module, "_MAX_ENTRIES", cap)
        rng = Random(seed)
        generation = [0]
        tree, bundle = _Tree(), _new_bundle(lambda: generation[0])
        ids = list(tree.entities)
        users = {f"u{i}": frozenset({f"u{i}", f"g{i % 2}"}) for i in range(4)}
        #: the reference: key -> (identities, subtree), in insertion order
        model: dict[tuple, tuple[frozenset, bool]] = {}
        names: dict[tuple, str] = {}

        def make_room(entries):
            for old in list(entries)[:max(1, cap // 8)] if len(entries) >= cap else ():
                del entries[old]

        for _ in range(600):
            roll = rng.random()
            securable_id = rng.choice(ids)
            if roll < 0.45:
                user = rng.choice(list(users))
                key = (user, securable_id, rng.choice(("read", "visible", "gates")))
                subtree = rng.random() < 0.3
                bundle.put_decision(key, AccessDecision(True, "x"), users[user],
                                    tree, tree.entities[securable_id], subtree)
                if model.pop(key, None) is None:
                    make_room(model)
                model[key] = (users[user], subtree)
            elif roll < 0.6:
                key = (rng.choice((SecurableKind.TABLE, SecurableKind.VOLUME)),
                       securable_id)
                bundle.put_resolution(*key, tree.entities[securable_id],
                                      tree.chain_ids(securable_id), tree.version)
                if names.pop(key, None) is None:
                    make_room(names)
                names[key] = securable_id
            elif roll < 0.8:
                changed = rng.choice(ids)
                bundle.note_commit(
                    [WriteOp.put(Tables.ENTITIES, changed, {})], tree.version + 1)
                tree.version += 1
                for key in [k for k, (_, subtree) in model.items()
                            if subtree or changed in tree.chain_ids(k[1])]:
                    del model[key]
                for key in [k for k, sid in names.items()
                            if changed in tree.chain_ids(sid)]:
                    del names[key]
            elif roll < 0.95:
                grantee = rng.choice(("u0", "u1", "g0", "g1"))
                bundle.note_commit(
                    [WriteOp.put(Tables.GRANTS, f"{securable_id}/{grantee}/SELECT",
                                 {})], tree.version + 1)
                tree.version += 1
                for key in [k for k, (identities, subtree) in model.items()
                            if grantee in identities and (
                                subtree or securable_id in tree.chain_ids(k[1]))]:
                    del model[key]
            elif roll < 0.98:
                generation[0] += 1      # a directory change: decisions go
                assert bundle.sync(tree.version)
                model.clear()
            else:
                bundle.note_commit(     # a tag change: decisions go
                    [WriteOp.put(Tables.TAGS, securable_id, {})], tree.version + 1)
                tree.version += 1
                model.clear()
            _assert_indexes_exact(bundle)
            assert list(bundle.decisions._entries) == list(model)
            assert list(bundle.resolutions._entries) == list(names)
            assert max(bundle.sizes().values()) <= cap

        for securable_id in ids:  # and nothing is left behind at the end
            bundle.note_commit(
                [WriteOp.put(Tables.ENTITIES, securable_id, {})], tree.version + 1)
            tree.version += 1
        assert bundle.sizes() == {"decisions": 0, "resolutions": 0, "chains": 0}
        assert not bundle._index._filed and not bundle._index._holders
        assert not bundle.decisions._subtree_by_identity

    def test_a_full_cache_evicts_an_eighth_not_everything(self, monkeypatch):
        cap = 64
        monkeypatch.setattr(decisions_module, "_MAX_ENTRIES", cap)
        tree, bundle = _Tree(catalogs=2, schemas=4, tables=16), _new_bundle()
        tables = [e for e in tree.entities.values()
                  if e.kind is SecurableKind.TABLE]
        identities = frozenset({"u"})
        for table in tables[:cap + 1]:
            bundle.put_decision(("u", table.id, "read"), AccessDecision(True, "x"),
                                identities, tree, table)
            bundle.put_resolution(SecurableKind.TABLE, table.id, table,
                                  tree.chain_ids(table.id), tree.version)
        for size in bundle.sizes().values():
            assert cap * 3 // 4 <= size <= cap
        # the oldest went, the newest stayed
        assert bundle.get_decision(("u", tables[0].id, "read")) is None
        assert bundle.get_decision(("u", tables[cap].id, "read")) is not None
        assert bundle.get_resolution(SecurableKind.TABLE, tables[cap - 1].id)
        _assert_indexes_exact(bundle)

    def test_invalidation_cost_does_not_grow_with_unrelated_entries(self):
        """The scaling guard: one entity's invalidation beside 40,000
        unrelated entries costs at most 5x what it costs beside 1,000
        (the scan it replaced: ~40x)."""
        def best_of_five(unrelated: int) -> float:
            bundle = _new_bundle()
            decisions = bundle.decisions
            value, identities = AccessDecision(True, "x"), frozenset({"u"})
            for i in range(unrelated):
                table = f"c.s{i // 50}.t{i}"
                decisions.put((f"u{i % 4}", table, "read"), value, identities,
                              (table, f"c.s{i // 50}", "c", "m"), False)
            targets = [f"d.s.t{i}" for i in range(50)]
            best = float("inf")
            for _ in range(5):
                for table in targets:
                    for user in ("a", "b", "c"):
                        decisions.put((user, table, "read"), value, identities,
                                      (table, "d.s", "d", "m"), False)
                start = time.perf_counter()
                for table in targets:
                    assert decisions.invalidate(frozenset({table}), []) == 3
                best = min(best, time.perf_counter() - start)
            assert len(decisions) == unrelated
            return best

        small, large = best_of_five(1_000), best_of_five(40_000)
        assert large <= 5 * small, (small, large)


@pytest.fixture(params=["memory", "sqlite"])
def raw_store(request):
    store = (InMemoryMetadataStore() if request.param == "memory"
             else SqliteMetadataStore(":memory:"))
    store.create_metastore_slot("m1")
    yield store
    if request.param == "sqlite":
        store.close()


class TestMultiGet:
    def test_returns_present_keys_only(self, raw_store):
        raw_store.commit("m1", 0, [
            WriteOp.put(Tables.ENTITIES, "a", {"v": 1}),
            WriteOp.put(Tables.ENTITIES, "b", {"v": 2}),
        ])
        got = raw_store.snapshot("m1").multi_get(
            Tables.ENTITIES, ["a", "b", "ghost"]
        )
        assert got == {"a": {"v": 1}, "b": {"v": 2}}
        assert raw_store.multi_get_count == 1

    def test_respects_snapshot_version(self, raw_store):
        raw_store.commit("m1", 0, [WriteOp.put(Tables.ENTITIES, "a", {"v": 1})])
        pinned = raw_store.snapshot("m1")
        raw_store.commit("m1", 1, [
            WriteOp.put(Tables.ENTITIES, "a", {"v": 2}),
            WriteOp.put(Tables.ENTITIES, "b", {"v": 2}),
        ])
        assert pinned.multi_get(Tables.ENTITIES, ["a", "b"]) == {"a": {"v": 1}}
        fresh = raw_store.snapshot("m1").multi_get(Tables.ENTITIES, ["a", "b"])
        assert fresh == {"a": {"v": 2}, "b": {"v": 2}}

    def test_empty_key_list(self, raw_store):
        assert raw_store.snapshot("m1").multi_get(Tables.ENTITIES, []) == {}


class TestShardingOwnerMemo:
    def test_memo_matches_fresh_computation_and_clears(self):
        sharding = ShardingService()
        for node in ("n1", "n2", "n3"):
            sharding.add_node(node)
        owner = sharding.owner_of("m-42")
        assert sharding.owner_of("m-42") == owner  # memoized
        sharding.remove_node(owner)
        reassigned = sharding.owner_of("m-42")
        assert reassigned != owner
        sharding.add_node(owner)
        assert sharding.owner_of("m-42") == owner  # rendezvous is stable
