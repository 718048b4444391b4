"""A snapshot view reads each row once, and never sees a later commit.

``SnapshotView`` memoizes what it reads for its own lifetime: decoded
entities, each securable's grants and auxiliary rows. These tests count
the reads that reach the backing snapshot during real requests (the
kernel builds one view per request) and check that a view opened before
a commit keeps answering from its own version.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.auth.privileges import Privilege
from repro.core.model.entity import SecurableKind
from repro.core.persistence.branching import branch_snapshot
from repro.core.persistence.sqlite import SqliteMetadataStore
from repro.core.persistence.store import Tables
from repro.core.service import kernel
from repro.core.service.catalog_service import UnityCatalogService
from repro.core.service.rest import ServiceRouter
from repro.core.view import SnapshotView

BASE = "/api/2.1/unity-catalog"
ADMIN = "admin"
READER = "rita"
TABLES = [f"c.s.t{i}" for i in range(4)]
SPEC = {"table_type": "MANAGED", "format": "DELTA",
        "columns": [{"name": "id", "type": "BIGINT"}]}


class CountingSnapshot:
    """Counts the point reads and prefix scans that reach a snapshot."""

    def __init__(self, inner):
        self._inner = inner
        self.point_reads: Counter = Counter()
        self.prefix_scans: Counter = Counter()

    def get(self, table, key):
        self.point_reads[(table, key)] += 1
        return self._inner.get(table, key)

    def scan_prefix(self, table, prefix):
        self.prefix_scans[(table, prefix)] += 1
        return self._inner.scan_prefix(table, prefix)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class CountingView(SnapshotView):
    """A snapshot view over a counting snapshot that counts its lookups."""

    built: list["CountingView"] = []

    def __init__(self, snapshot, registry):
        super().__init__(CountingSnapshot(snapshot), registry)
        self.lookups: Counter = Counter()
        CountingView.built.append(self)

    @property
    def counts(self) -> CountingSnapshot:
        return self._snapshot

    def entity_by_id(self, entity_id):
        self.lookups["entity_by_id"] += 1
        return super().entity_by_id(entity_id)

    def grants_on(self, securable_id):
        self.lookups["grants_on"] += 1
        return super().grants_on(securable_id)


@pytest.fixture(params=["memory", "sqlite", "branch"])
def estate(request, tmp_path):
    """(service, metastore id, branch or None): caches off, one catalog,
    one schema, four tables, and a reader whose access comes only through
    group grants."""
    store = None
    if request.param != "memory":
        store = SqliteMetadataStore(str(tmp_path / "catalog.db"))
    service = UnityCatalogService(store=store, enable_cache=False)
    directory = service.directory
    directory.add_user(ADMIN)
    directory.add_user(READER)
    directory.add_group("readers")
    directory.add_member("readers", READER)
    mid = service.create_metastore("main", owner=ADMIN).id
    service.create_securable(mid, ADMIN, SecurableKind.CATALOG, "c")
    service.create_securable(mid, ADMIN, SecurableKind.SCHEMA, "c.s")
    for name in TABLES:
        service.create_securable(mid, ADMIN, SecurableKind.TABLE, name, spec=SPEC)
    service.grant(mid, ADMIN, SecurableKind.CATALOG, "c", "readers",
                  Privilege.USE_CATALOG)
    service.grant(mid, ADMIN, SecurableKind.SCHEMA, "c.s", "readers",
                  Privilege.USE_SCHEMA)
    service.grant(mid, ADMIN, SecurableKind.SCHEMA, "c.s", "readers",
                  Privilege.SELECT)
    branch = None
    if request.param == "branch":
        service.create_branch(mid, ADMIN, "c", "dev")
        branch = "c@dev"
    yield service, mid, branch
    if store is not None:
        store.close()


def _requests(service, branch):
    router = ServiceRouter(service)
    pin = {"branch": branch} if branch else {}
    status, body = router.handle(
        "GET", f"{BASE}/tables/{TABLES[0]}", principal=READER,
        params={"metastore": "main", **pin})
    assert status == 200, body
    status, body = router.handle(
        "POST", f"{BASE}/resolve", principal=READER, params=pin,
        body={"metastore": "main", "tables": TABLES, "engine_trusted": True})
    assert status == 200, body
    assert sorted(body["assets"]) == TABLES


def test_a_request_reads_each_entity_and_grant_range_once(estate, monkeypatch):
    service, _, branch = estate
    monkeypatch.setattr(CountingView, "built", [])
    monkeypatch.setattr(kernel, "SnapshotView", CountingView)
    _requests(service, branch)

    views = CountingView.built
    assert views, "the requests read no snapshot view"
    reads = Counter()
    for view in views:
        entity_reads = {k: n for (t, k), n in view.counts.point_reads.items()
                        if t == Tables.ENTITIES}
        grant_scans = {p: n for (t, p), n in view.counts.prefix_scans.items()
                       if t == Tables.GRANTS}
        assert entity_reads and max(entity_reads.values()) == 1, entity_reads
        assert grant_scans and max(grant_scans.values()) == 1, grant_scans
        reads["entity_by_id"] += sum(entity_reads.values())
        reads["grants_on"] += sum(grant_scans.values())
    # the authorizer asks again for what it already has: the memo answers
    lookups = sum((view.lookups for view in views), Counter())
    assert lookups["entity_by_id"] > reads["entity_by_id"]
    assert lookups["grants_on"] > reads["grants_on"]


def _open_view(service, mid, branch):
    if branch is None:
        view = service.view(mid)
        assert type(view) is SnapshotView
        return view
    return SnapshotView(branch_snapshot(service.store, mid, branch),
                        service.registry)


def test_a_view_keeps_its_version_across_a_commit(estate):
    service, mid, branch = estate
    name = TABLES[0].replace("c", branch, 1) if branch else TABLES[0]
    table = service.get_securable(mid, ADMIN, SecurableKind.TABLE, name)
    service.grant(mid, ADMIN, SecurableKind.TABLE, name, READER, Privilege.SELECT)
    pinned = _open_view(service, mid, branch)
    before = pinned.entity_by_id(table.id)
    assert before.comment == table.comment
    assert _granted(pinned, table.id) == [Privilege.SELECT]

    service.update_securable(mid, ADMIN, SecurableKind.TABLE, name,
                             comment="after")
    service.grant(mid, ADMIN, SecurableKind.TABLE, name, READER,
                  Privilege.MODIFY)

    assert pinned.entity_by_id(table.id) is before
    assert before.comment != "after"
    assert _granted(pinned, table.id) == [Privilege.SELECT]
    fresh = _open_view(service, mid, branch)
    assert fresh.version > pinned.version
    assert fresh.entity_by_id(table.id).comment == "after"
    assert _granted(fresh, table.id) == [Privilege.MODIFY, Privilege.SELECT]


def _granted(view, securable_id):
    return sorted((g.privilege for g in view.grants_on(securable_id)
                   if g.principal == READER), key=lambda p: p.value)


def test_grants_on_hands_out_a_list_the_memo_does_not_share(estate):
    service, mid, branch = estate
    view = _open_view(service, mid, branch)
    schema = view.entity_by_id(
        service.get_securable(mid, ADMIN, SecurableKind.SCHEMA,
                              f"{branch or 'c'}.s").id)
    grants = view.grants_on(schema.id)
    assert len(grants) == 2
    grants.clear()
    assert len(view.grants_on(schema.id)) == 2
