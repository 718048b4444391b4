"""Change events derived from the store's change log (paper section 4.4).

The bus reads ``store.changes_since`` and types one event per changed
row, so every service over a store sees every commit: a peer sharing the
store and a new process reopening it alike.
"""

import pytest

from repro.clock import SimClock
from repro.core.auth.abac import AbacEffect, TagCondition
from repro.core.auth.privileges import Privilege
from repro.core.events import ChangeType
from repro.core.model.entity import SecurableKind
from repro.core.persistence.memory import InMemoryMetadataStore
from repro.core.persistence.sqlite import SqliteMetadataStore
from repro.core.search import SearchService
from repro.core.service.catalog_service import UnityCatalogService
from repro.core.sharing import DeltaSharingServer
from repro.core.transactions import TransactionCoordinator

from tests.test_transactions import make_catalog_owned_table

ADMIN = "alice"  # make_catalog_owned_table writes as alice
COLUMNS = [{"name": "id", "type": "INT"}, {"name": "ssn", "type": "STRING"}]
TABLE_SPEC = {"table_type": "MANAGED", "columns": COLUMNS}


def _service(store=None) -> UnityCatalogService:
    svc = UnityCatalogService(store=store, clock=SimClock())
    svc.directory.add_user(ADMIN)
    svc.directory.add_user("bob")
    return svc


def _sales_web(svc) -> str:
    mid = svc.create_metastore("main", owner=ADMIN).id
    svc.create_securable(mid, ADMIN, SecurableKind.CATALOG, "sales")
    svc.create_securable(mid, ADMIN, SecurableKind.SCHEMA, "sales.web")
    return mid


def _found(search, mid, query) -> list[str]:
    return [hit.full_name for hit in search.search(mid, ADMIN, query)]


# -- R14: every service over a store sees every commit -----------------------------


def test_r14_a_peer_sees_the_events_of_writes_it_did_not_make():
    store = InMemoryMetadataStore()
    a, b = _service(store), _service(store)
    mid = _sales_web(a)
    assert b.get_securable(mid, ADMIN, SecurableKind.SCHEMA, "sales.web").name == "web"
    assert [(e.change, e.securable_kind, e.securable_name)
            for e in b.events.peek(mid)] == [
        (ChangeType.CREATED, "METASTORE", "main"),
        (ChangeType.CREATED, "CATALOG", "sales"),
        (ChangeType.CREATED, "SCHEMA", "sales.web"),
    ]
    search = SearchService(b)
    assert search.sync(mid) == 3
    assert search.lag(mid) == 0
    assert _found(search, mid, "web") == ["sales.web"]


def test_r14_a_reopened_sqlite_file_replays_its_events(tmp_path):
    path = str(tmp_path / "catalog.db")
    first = _service(SqliteMetadataStore(path))
    mid = _sales_web(first)
    written = [(e.change, e.securable_id) for e in first.events.peek(mid)]
    first.store.close()
    reopened = _service(SqliteMetadataStore(path))
    try:
        assert reopened.get_securable(
            mid, ADMIN, SecurableKind.SCHEMA, "sales.web").name == "web"
        assert [(e.change, e.securable_id)
                for e in reopened.events.peek(mid)] == written
        search = SearchService(reopened)
        assert search.sync(mid) == 3
        assert _found(search, mid, "web") == ["sales.web"]
    finally:
        reopened.store.close()


# -- R15: a merge reports the rows it lands on the trunk ---------------------------


def test_r15_a_table_merged_from_a_branch_reaches_search():
    svc = _service()
    mid = _sales_web(svc)
    search = SearchService(svc)
    svc.create_branch(mid, ADMIN, "sales", "dev")
    svc.create_securable(mid, ADMIN, SecurableKind.TABLE, "sales@dev.web.clicks",
                         spec=TABLE_SPEC)
    search.sync(mid)
    assert _found(search, mid, "clicks") == []  # the index covers the trunk
    svc.merge_branch(mid, ADMIN, "sales", "dev")
    search.sync(mid)
    assert _found(search, mid, "clicks") == ["sales.web.clicks"]
    # the branch's end is an event on its catalog, which stays indexed
    svc.create_branch(mid, ADMIN, "sales", "scratch")
    svc.delete_branch(mid, ADMIN, "sales", "scratch")
    search.sync(mid)
    assert "sales" in _found(search, mid, "sales")


# -- parity: the derived events of every mutation endpoint -------------------------
#
# Each step lists (change, kind, securable) as the endpoint's hand-written
# events had them before the events were derived from the change log.
# Where the derived list departs, the comment gives the hand-written one:
# the events are now one per changed row, as the store saw it.

EXPECTED = {
    "create_metastore": [("CREATED", "METASTORE", "MID")],
    "create catalog and schema": [("CREATED", "CATALOG", "CAT"),
                                  ("CREATED", "SCHEMA", "SCH")],
    "create table": [("CREATED", "TABLE", "TBL")],
    "update": [("UPDATED", "TABLE", "TBL")],
    "rename": [("UPDATED", "TABLE", "TBL")],
    "transfer": [("UPDATED", "TABLE", "TBL")],
    "grant": [("GRANT_CHANGED", "TABLE", "TBL")],
    "revoke": [("GRANT_CHANGED", "TABLE", "TBL")],
    "tag": [("TAG_CHANGED", "TABLE", "TBL")],
    "abac policy": [("POLICY_CHANGED", "CATALOG", "CAT")],
    "drop abac policy": [("POLICY_CHANGED", "CATALOG", "CAT")],
    "row filter": [("POLICY_CHANGED", "TABLE", "TBL")],
    "drop row filter": [("POLICY_CHANGED", "TABLE", "TBL")],
    "column mask": [("POLICY_CHANGED", "TABLE", "TBL")],
    "drop column mask": [("POLICY_CHANGED", "TABLE", "TBL")],
    "transaction commit": [("COMMIT", "TABLE", "TBL")],
    "create share": [("CREATED", "SHARE", "SHARE")],
    "add table to share": [("UPDATED", "SHARE", "SHARE")],
    "remove table from share": [("UPDATED", "SHARE", "SHARE")],
    "create branch": [("CREATED", "BRANCH", "CAT")],
    # hand-written: [("CREATED", "TABLE", "T2")]; the commit also moves
    # the branch ref's head
    "write on branch": [("CREATED", "TABLE", "T2"), ("UPDATED", "BRANCH", "CAT")],
    # hand-written: [("UPDATED", "BRANCH", "CAT")]; the merge lands the
    # table on the trunk and drops the ref
    "merge branch": [("CREATED", "TABLE", "T2"), ("DELETED", "BRANCH", "CAT")],
    "create branch again": [("CREATED", "BRANCH", "CAT")],
    "delete branch": [("DELETED", "BRANCH", "CAT")],
    "delete cascade": [("DELETED", "SCHEMA", "SCH"), ("DELETED", "TABLE", "TBL"),
                       ("DELETED", "TABLE", "T2")],
    # hand-written: one PURGED per entity; a purge also deletes the
    # purged table's grant, tag and row filter (see the test)
    "purge": None,
}


def _run_endpoints(svc):
    """Call every mutation endpoint once; yields ``(step, events)``."""
    names = {}
    seen = 0

    def events():
        nonlocal seen
        new = svc.events.peek(mid, seen)
        seen += len(new)
        return [(e.change.value, e.securable_kind, names.get(e.securable_id, "?"),
                 e.branch) for e in new]

    mid = svc.create_metastore("main", owner=ADMIN).id
    names[mid] = "MID"
    yield "create_metastore", events()
    names[svc.create_securable(mid, ADMIN, SecurableKind.CATALOG, "sales").id] = "CAT"
    names[svc.create_securable(mid, ADMIN, SecurableKind.SCHEMA, "sales.web").id] = "SCH"
    yield "create catalog and schema", events()
    table = make_catalog_owned_table(svc, mid, "sales.web.clicks", COLUMNS)
    names[table.id] = "TBL"
    yield "create table", events()
    svc.update_securable(mid, ADMIN, SecurableKind.TABLE, "sales.web.clicks",
                         comment="edited")
    yield "update", events()
    svc.rename_securable(mid, ADMIN, SecurableKind.TABLE, "sales.web.clicks", "views")
    yield "rename", events()
    svc.rename_securable(mid, ADMIN, SecurableKind.TABLE, "sales.web.views", "clicks")
    events()  # setup for the next step, not compared
    svc.transfer_ownership(mid, ADMIN, SecurableKind.TABLE, "sales.web.clicks", "bob")
    yield "transfer", events()
    svc.transfer_ownership(mid, ADMIN, SecurableKind.TABLE, "sales.web.clicks", ADMIN)
    events()  # setup for the next step, not compared
    svc.grant(mid, ADMIN, SecurableKind.TABLE, "sales.web.clicks", "bob",
              Privilege.SELECT)
    yield "grant", events()
    svc.revoke(mid, ADMIN, SecurableKind.TABLE, "sales.web.clicks", "bob",
               Privilege.SELECT)
    yield "revoke", events()
    svc.set_tag(mid, ADMIN, SecurableKind.TABLE, "sales.web.clicks", "pii", "true")
    yield "tag", events()
    policy = svc.create_abac_policy(
        mid, ADMIN, name="p", scope_kind=SecurableKind.CATALOG, scope_name="sales",
        condition=TagCondition("pii", "true"), effect=AbacEffect.GRANT,
        privilege=Privilege.SELECT, principals=["bob"])
    yield "abac policy", events()
    svc.drop_abac_policy(mid, ADMIN, policy.policy_id)
    yield "drop abac policy", events()
    svc.set_row_filter(mid, ADMIN, "sales.web.clicks", "f", "id > 0")
    yield "row filter", events()
    svc.drop_row_filter(mid, ADMIN, "sales.web.clicks", "f")
    yield "drop row filter", events()
    svc.set_column_mask(mid, ADMIN, "sales.web.clicks", "ssn", "'***'")
    yield "column mask", events()
    svc.drop_column_mask(mid, ADMIN, "sales.web.clicks", "ssn")
    yield "drop column mask", events()
    txn = TransactionCoordinator(svc, mid).begin(ADMIN)
    txn.append("sales.web.clicks", [{"id": 1, "ssn": "a"}])
    txn.commit()
    yield "transaction commit", events()
    sharing = DeltaSharingServer(svc, mid)
    names[sharing.create_share(ADMIN, "q").id] = "SHARE"
    yield "create share", events()
    sharing.add_table_to_share(ADMIN, "q", "sales.web.clicks")
    yield "add table to share", events()
    sharing.remove_table_from_share(ADMIN, "q", "sales.web.clicks")
    yield "remove table from share", events()
    svc.create_branch(mid, ADMIN, "sales", "dev")
    yield "create branch", events()
    names[svc.create_securable(mid, ADMIN, SecurableKind.TABLE, "sales@dev.web.logs",
                               spec=TABLE_SPEC).id] = "T2"
    yield "write on branch", events()
    svc.merge_branch(mid, ADMIN, "sales", "dev")
    yield "merge branch", events()
    svc.create_branch(mid, ADMIN, "sales", "dev")
    yield "create branch again", events()
    svc.update_securable(mid, ADMIN, SecurableKind.TABLE, "sales@dev.web.logs",
                         comment="scrapped")
    assert events() == [("UPDATED", "TABLE", "T2", "sales@dev"),
                        ("UPDATED", "BRANCH", "CAT", "sales@dev")]
    svc.delete_branch(mid, ADMIN, "sales", "dev")
    yield "delete branch", events()
    svc.grant(mid, ADMIN, SecurableKind.TABLE, "sales.web.clicks", "bob",
              Privilege.SELECT)
    svc.set_row_filter(mid, ADMIN, "sales.web.clicks", "f", "id > 0")
    events()  # setup for the next step, not compared
    svc.delete_securable(mid, ADMIN, SecurableKind.SCHEMA, "sales.web", cascade=True)
    yield "delete cascade", events()
    svc.purge_deleted(mid)
    # in the order the purge scans its entities
    assert sorted(events()) == sorted([
        ("PURGED", "SCHEMA", "SCH", None),
        ("PURGED", "TABLE", "TBL", None),
        ("GRANT_CHANGED", "TABLE", "TBL", None),
        ("TAG_CHANGED", "TABLE", "TBL", None),
        ("POLICY_CHANGED", "TABLE", "TBL", None),
        ("PURGED", "TABLE", "T2", None),
    ])
    yield "purge", None


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_derived_events_match_the_hand_written_ones(backend):
    store = SqliteMetadataStore(":memory:") if backend == "sqlite" else None
    svc = _service(store)
    steps = 0
    for step, events in _run_endpoints(svc):
        expected = EXPECTED[step]
        if expected is not None:
            # a branch's writes and its ref's events carry the branch
            assert events == [
                change + ("sales@dev" if change[1] == "BRANCH" or step == "write on branch"
                          else None,)
                for change in expected
            ], step
        steps += 1
    assert steps == len(EXPECTED)


def test_event_names_are_full_names_and_a_purge_names_the_row_it_removed():
    svc = _service()
    mid = _sales_web(svc)
    svc.create_securable(mid, ADMIN, SecurableKind.TABLE, "sales.web.clicks",
                         spec=TABLE_SPEC)
    svc.delete_securable(mid, ADMIN, SecurableKind.TABLE, "sales.web.clicks")
    svc.purge_deleted(mid)
    assert [(e.change, e.securable_name, e.metastore_version)
            for e in svc.events.peek(mid)[3:]] == [
        (ChangeType.CREATED, "sales.web.clicks", 4),
        (ChangeType.DELETED, "sales.web.clicks", 5),
        (ChangeType.PURGED, "sales.web.clicks", 6),
    ]


def test_the_write_path_publishes_nothing():
    """A write leaves the log unread; the first read of the bus derives it."""
    svc = _service()
    published = []
    publish = svc.events.publish
    svc.events.publish = lambda mid: published.append(mid) or publish(mid)
    mid = _sales_web(svc)
    assert published == []
    assert len(svc.events.peek(mid)) == 3
    assert published == [mid]


def test_an_unknown_metastore_has_no_events():
    svc = _service()
    assert svc.events.peek("nowhere") == []
    assert svc.events.lag("nowhere", "c") == 0


def test_concurrent_writers_and_readers_derive_each_commit_once():
    """Reads of the bus race writes and each other: every commit's event
    is appended once, in version order, with gapless sequences."""
    import sys
    import threading

    from repro.errors import ConcurrentModificationError

    svc = _service()
    mid = _sales_web(svc)
    names = [f"sales.s{i}" for i in range(40)]
    failures = []

    def write(chunk):
        try:
            for name in chunk:
                while True:
                    try:
                        svc.create_securable(mid, ADMIN, SecurableKind.SCHEMA, name)
                        break
                    except ConcurrentModificationError:
                        continue
        except Exception as exc:  # reported by the assertion below
            failures.append(exc)

    def read():
        try:
            for _ in range(100):
                svc.events.peek(mid)
                svc.events.poll(mid, "reader")
        except Exception as exc:
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=write, args=(names[i::3],)) for i in range(3)]
        threads += [threading.Thread(target=read) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    events = svc.events.peek(mid)
    assert [e.sequence for e in events] == list(range(len(events)))
    versions = [e.metastore_version for e in events]
    assert versions == sorted(set(versions))
    assert sorted(e.securable_name for e in events if e.securable_kind == "SCHEMA") \
        == sorted(["sales.web"] + names)
