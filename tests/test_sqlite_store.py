"""The SQLite store: one frozen row per row version, in a WAL-journalled file.

Every read hands out the one frozen row the store decoded for that
``(metastore, table, key, version)``; the map of decoded rows stays
within its bound and needs no invalidation, so reads at any version, after
any compaction, equal the memory store's. The file is journalled in WAL
mode with ``synchronous`` FULL: a process killed mid-commit loses no
acknowledged write, and a second store on the same file reads the first
one's commits.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.auth.privileges import Privilege
from repro.core.frozen import FrozenRow
from repro.core.model.entity import SecurableKind
from repro.core.persistence import sqlite
from repro.core.persistence.memory import InMemoryMetadataStore
from repro.core.persistence.sqlite import SqliteMetadataStore
from repro.core.persistence.store import Tables, WriteOp
from repro.core.service.catalog_service import UnityCatalogService
from repro.core.service.rest import ServiceRouter

MID = "m"
BASE = "/api/2.1/unity-catalog"


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "catalog.db")


def _put(key, **value):
    return WriteOp.put(Tables.ENTITIES, key, value)


# -- the decoded-row map ---------------------------------------------------------


def test_the_map_stays_within_its_bound_and_evicted_rows_decode_again_equal(path):
    store = SqliteMetadataStore(path)
    try:
        store.create_metastore_slot(MID)
        store.commit(MID, 0, [_put(f"k{i:02d}", n=i) for i in range(20)])
        with mock.patch.object(sqlite, "_DECODED_ROWS_MAX", 8):
            first = dict(store.snapshot(MID).scan(Tables.ENTITIES))
            assert store.decoded_rows == 8
            # the oldest twelve went; the newest eight are still shared
            again = dict(store.snapshot(MID).scan(Tables.ENTITIES))
            assert store.decoded_rows == 8
        assert again == first == {f"k{i:02d}": {"n": i} for i in range(20)}
        assert all(type(row) is FrozenRow for row in again.values())
        assert [k for k in first if again[k] is first[k]] == []  # FIFO, scanned in order
        newest = list(again)[-1]
        assert store.snapshot(MID).get(Tables.ENTITIES, newest) is again[newest]
    finally:
        store.close()


def test_a_scan_decodes_only_the_rows_its_caller_reaches(path):
    """A caller that stops at its first match (an authorizer looking for
    one grant) decodes one row, not the table."""
    store = SqliteMetadataStore(path)
    try:
        store.create_metastore_slot(MID)
        store.commit(MID, 0, [_put(f"k{i:02d}", n=i) for i in range(20)])
        snapshot = store.snapshot(MID)
        assert next(iter(snapshot.scan(Tables.ENTITIES)))[1] == {"n": 0}
        assert store.decoded_rows == 1
        assert next(iter(snapshot.scan_range(Tables.ENTITIES, "k05", None))) == (
            "k05", {"n": 5})
        assert store.decoded_rows == 2
    finally:
        store.close()


def _estate(store):
    """Caches off: one catalog, one schema, four tables a reader selects."""
    service = UnityCatalogService(store=store, enable_cache=False)
    service.directory.add_user("admin")
    service.directory.add_user("rita")
    mid = service.create_metastore("main", owner="admin").id
    service.create_securable(mid, "admin", SecurableKind.CATALOG, "c")
    service.create_securable(mid, "admin", SecurableKind.SCHEMA, "c.s")
    for i in range(4):
        service.create_securable(
            mid, "admin", SecurableKind.TABLE, f"c.s.t{i}",
            spec={"table_type": "MANAGED", "columns": [{"name": "id", "type": "INT"}]})
    for kind, name, privilege in [
            (SecurableKind.CATALOG, "c", Privilege.USE_CATALOG),
            (SecurableKind.SCHEMA, "c.s", Privilege.USE_SCHEMA),
            (SecurableKind.SCHEMA, "c.s", Privilege.SELECT)]:
        service.grant(mid, "admin", kind, name, "rita", privilege)
    router = ServiceRouter(service)

    def get_table():
        status, body = router.handle(
            "GET", f"{BASE}/tables/c.s.t0", principal="rita",
            params={"metastore": "main"})
        assert status == 200, body
    return service, get_table


def _gauge(service) -> float:
    for line in service.obs.metrics.render().splitlines():
        if line.startswith("uc_store_decoded_rows "):
            return float(line.split()[1])
    raise AssertionError("no uc_store_decoded_rows sample")


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_the_decoded_rows_gauge(backend, path):
    store = SqliteMetadataStore(path) if backend == "sqlite" else None
    service, get_table = _estate(store)
    try:
        get_table()
        assert _gauge(service) == service.store.decoded_rows
        assert (service.store.decoded_rows > 0) is (backend == "sqlite")
    finally:
        if store is not None:
            store.close()


def test_a_trunk_get_still_issues_twelve_statements(path):
    """The map spares decoding, not reading: the metastore version, three
    name lookups (catalog, schema, table), four entity reads (those three
    and the metastore) and the four grant ranges on the chain."""
    store = SqliteMetadataStore(path)
    service, get_table = _estate(store)
    try:
        get_table()  # every row this get reads is decoded now
        statements: list[str] = []
        store._conn.set_trace_callback(statements.append)
        try:
            get_table()
        finally:
            store._conn.set_trace_callback(None)
        assert len(statements) == 12, statements
        assert sum("tbl='grants'" in s for s in statements) == 4
    finally:
        store.close()


# -- reads equal the memory store's at any version, after any compaction ---------

KEYS = ["c1", "c2", "s1", "s2", "t1"]
NAMES = ["sales", "ops"]
#: what may sit under each key: entity-shaped rows, so the tree index moves
PARENTS = {"c": None, "s": "c1", "t": "s1"}
KINDS = {"c": "CATALOG", "s": "SCHEMA", "t": "TABLE"}

_op = st.one_of(
    st.tuples(st.just("put"), st.sampled_from(KEYS), st.sampled_from(NAMES),
              st.sampled_from(["ACTIVE", "DELETED"]), st.integers(0, 3)),
    st.tuples(st.just("delete"), st.sampled_from(KEYS)),
)
_step = st.one_of(
    st.tuples(st.just("commit"), st.lists(_op, min_size=1, max_size=3)),
    st.tuples(st.just("compact"), st.integers(0, 100)),
    st.tuples(st.just("read"), st.integers(0, 100)),
)


def _write(op) -> WriteOp:
    if op[0] == "delete":
        return WriteOp.delete(Tables.ENTITIES, op[1])
    _, key, name, state, n = op
    return _put(key, id=key, kind=KINDS[key[0]], name=name,
                parent_id=PARENTS[key[0]], state=state, spec={"n": [n]})


def _reads(store, version):
    snapshot = store.snapshot(MID, at_version=version)
    return (
        {key: snapshot.get(Tables.ENTITIES, key) for key in KEYS},
        snapshot.multi_get(Tables.ENTITIES, KEYS),
        sorted(snapshot.scan(Tables.ENTITIES)),
        list(snapshot.scan_prefix(Tables.ENTITIES, "s")),
        list(snapshot.scan_range(Tables.ENTITIES, "c2", "t1")),
        [snapshot.child_id(parent, kind, name) for name in NAMES
         for parent, kind in ((None, "CATALOG"), ("c1", "SCHEMA"), ("s1", "TABLE"))],
        [snapshot.children_ids(parent, None, include_deleted)
         for parent in (None, "c1", "s1") for include_deleted in (False, True)],
    )


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(_step, min_size=1, max_size=25),
       bound=st.sampled_from([3, sqlite._DECODED_ROWS_MAX]))
def test_sqlite_reads_equal_the_memory_stores(tmp_path_factory, steps, bound):
    path = str(tmp_path_factory.mktemp("model") / "catalog.db")
    memory, lite = InMemoryMetadataStore(), SqliteMetadataStore(path)
    try:
        with mock.patch.object(sqlite, "_DECODED_ROWS_MAX", bound):
            for store in (memory, lite):
                store.create_metastore_slot(MID)
            head = floor = 0
            for step in steps:
                if step[0] == "commit":
                    ops = [_write(op) for op in step[1]]
                    for store in (memory, lite):
                        store.commit(MID, head, ops)
                    head += 1
                elif step[0] == "compact":
                    floor = max(floor, step[1] % (head + 1))
                    for store in (memory, lite):
                        store.compact(MID, floor)
                version = floor + step[1] % (head - floor + 1) if step[0] == "read" else head
                assert _reads(lite, version) == _reads(memory, version)
                assert lite.decoded_rows <= bound
                # two reads of one row version share one frozen row
                snapshot = lite.snapshot(MID, at_version=version)
                for key in KEYS:
                    row = snapshot.get(Tables.ENTITIES, key)
                    assert row is None or snapshot.get(Tables.ENTITIES, key) is row
    finally:
        lite.close()


# -- the WAL file --------------------------------------------------------------------


def test_a_file_is_wal_journalled_and_fully_synchronous(path):
    store = SqliteMetadataStore(path)
    try:
        assert store._conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        assert store._conn.execute("PRAGMA synchronous").fetchone()[0] == 2  # FULL
    finally:
        store.close()


def test_an_in_memory_store_still_works():
    store = SqliteMetadataStore(":memory:")
    try:
        assert store._conn.execute("PRAGMA journal_mode").fetchone()[0] == "memory"
        store.create_metastore_slot(MID)
        version = store.commit(MID, 0, [_put("k", n=1)])
        assert store.snapshot(MID, at_version=version).get(Tables.ENTITIES, "k") == {"n": 1}
    finally:
        store.close()


def test_a_second_store_on_the_file_sees_the_first_ones_commits(path):
    first, second = SqliteMetadataStore(path), None
    try:
        first.create_metastore_slot(MID)
        first.commit(MID, 0, [_put("a", n=1)])
        second = SqliteMetadataStore(path)
        assert second.snapshot(MID).get(Tables.ENTITIES, "a") == {"n": 1}
        second.commit(MID, 1, [_put("a", n=2), _put("b", n=3)])
        snapshot = first.snapshot(MID)
        assert snapshot.version == 2
        assert dict(snapshot.scan(Tables.ENTITIES)) == {"a": {"n": 2}, "b": {"n": 3}}
        assert first.snapshot(MID, at_version=1).get(Tables.ENTITIES, "a") == {"n": 1}
    finally:
        first.close()
        if second is not None:
            second.close()


def test_a_store_reopened_after_close_reads_everything(path):
    store = SqliteMetadataStore(path)
    store.create_metastore_slot(MID)
    for version in range(5):
        store.commit(MID, version, [_put(f"k{version}", n=version)])
    before = [sorted(store.snapshot(MID, at_version=v).scan(Tables.ENTITIES))
              for v in range(6)]
    store.close()
    reopened = SqliteMetadataStore(path)
    try:
        assert reopened.current_version(MID) == 5
        assert [sorted(reopened.snapshot(MID, at_version=v).scan(Tables.ENTITIES))
                for v in range(6)] == before
    finally:
        reopened.close()


#: commits version n (a new row ``k{n}`` and the row ``last``) in a loop
#: and prints each version once its commit has returned
_WRITER = """
import sys
from repro.core.persistence.sqlite import SqliteMetadataStore
from repro.core.persistence.store import Tables, WriteOp
store = SqliteMetadataStore(sys.argv[1])
store.create_metastore_slot("m")
for n in range(1, 100000):
    store.commit("m", n - 1, [WriteOp.put(Tables.ENTITIES, f"k{n}", {"n": n}),
                              WriteOp.put(Tables.ENTITIES, "last", {"n": n})])
    print(n, flush=True)
"""


def _written(version: int) -> dict:
    rows = {f"k{n}": {"n": n} for n in range(1, version + 1)}
    if version:
        rows["last"] = {"n": version}
    return rows


def test_a_killed_writer_loses_no_acknowledged_commit(path):
    """SIGKILL a process mid-loop: the reopened file holds every version
    it acknowledged and equals a prefix of what it wrote."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    child = subprocess.Popen([sys.executable, "-c", _WRITER, path],
                             stdout=subprocess.PIPE, text=True, env=env)
    try:
        acknowledged = 0
        while acknowledged < 40:
            line = child.stdout.readline()
            assert line, f"the writer exited early ({child.poll()})"
            acknowledged = int(line)
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=30)
        assert child.returncode == -signal.SIGKILL
        # what it printed before the kill was acknowledged too
        acknowledged = max([acknowledged] + [int(n) for n in child.stdout.read().split()])
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=30)
        child.stdout.close()

    store = SqliteMetadataStore(path)
    try:
        head = store.current_version(MID)
        assert head >= acknowledged
        assert dict(store.snapshot(MID).scan(Tables.ENTITIES)) == _written(head)
        for version in (1, acknowledged // 2, acknowledged):
            assert dict(store.snapshot(MID, at_version=version).scan(
                Tables.ENTITIES)) == _written(version)
    finally:
        store.close()
