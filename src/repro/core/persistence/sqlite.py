"""SQLite-backed metadata store.

Demonstrates the paper's claim that the persistence contract maps onto a
standard relational database: rows are MVCC-versioned tuples in one
relation, metastore versions live in a second relation, and the commit
CAS runs inside a SQLite transaction.

Each commit also derives the TreeCat tree index
(:func:`~repro.core.persistence.store.tree_index_rows`) inside its
transaction and writes the index rows into the same relation under
``tbl='__tree_index__'``, at the commit's version. The key-ordered
``rows_key_range`` index makes a ``(parent, kind, name)`` lookup one SQL
range read, and ``AS OF`` reads and compaction treat the index rows like
any other. A file written before the store kept the index
(``PRAGMA user_version`` 0) gets it rebuilt on open.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from itertools import groupby
from typing import Any, Iterator, Optional

from repro.core.persistence.store import (
    TREE_INDEX,
    ChangeRecord,
    MetadataStore,
    Snapshot,
    Tables,
    WriteOp,
    prefix_end,
    tree_index_rows,
)
from repro.errors import (
    AlreadyExistsError,
    ConcurrentModificationError,
    NotFoundError,
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS metastore_versions (
    metastore_id TEXT PRIMARY KEY,
    version      INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS rows (
    metastore_id TEXT NOT NULL,
    tbl          TEXT NOT NULL,
    key          TEXT NOT NULL,
    version      INTEGER NOT NULL,
    value        TEXT,
    PRIMARY KEY (metastore_id, tbl, key, version)
);
CREATE INDEX IF NOT EXISTS rows_by_table
    ON rows (metastore_id, tbl, version);
-- key-ordered range index: (metastore_id, tbl, key) prefixes of the PK
-- make scan_prefix/scan_range single index-range reads; version rides
-- along so MVCC max-version resolution stays inside the index.
CREATE INDEX IF NOT EXISTS rows_key_range
    ON rows (metastore_id, tbl, key, version DESC);
-- changelog floor: compaction rewrites history below this version, so
-- changes_since must not re-derive records from the surviving rows
-- (memory/treecat truncate their changelogs; this is the SQL analogue).
CREATE TABLE IF NOT EXISTS compactions (
    metastore_id TEXT PRIMARY KEY,
    floor        INTEGER NOT NULL
);
"""

#: ``PRAGMA user_version`` of a file whose commits derive the tree index
_SCHEMA_VERSION = 1

_INSERT_ROW = (
    "INSERT OR REPLACE INTO rows (metastore_id, tbl, key, version, value)"
    " VALUES (?, ?, ?, ?, ?)"
)


def _dumps(value: Optional[dict]) -> Optional[str]:
    return json.dumps(value) if value is not None else None


def _loads(text: Optional[str]) -> Optional[dict]:
    return json.loads(text) if text is not None else None


class _SqliteSnapshot(Snapshot):
    def __init__(self, store: "SqliteMetadataStore", metastore_id: str, version: int):
        super().__init__(metastore_id, version)
        self._store = store

    def get(self, table: str, key: str) -> Optional[dict[str, Any]]:
        row = self._store._query_one(
            "SELECT value FROM rows"
            " WHERE metastore_id=? AND tbl=? AND key=? AND version<=?"
            " ORDER BY version DESC LIMIT 1",
            (self.metastore_id, table, key, self.version),
        )
        if row is None or row[0] is None:
            return None
        return json.loads(row[0])

    def multi_get(self, table: str, keys: list[str]) -> dict[str, dict[str, Any]]:
        if not keys:
            return {}
        placeholders = ",".join("?" for _ in keys)
        rows = self._store._query_all(
            "SELECT key, value FROM rows r"
            f" WHERE metastore_id=? AND tbl=? AND key IN ({placeholders})"
            "   AND version = ("
            "   SELECT MAX(version) FROM rows"
            "   WHERE metastore_id=r.metastore_id AND tbl=r.tbl"
            "     AND key=r.key AND version<=?)",
            (self.metastore_id, table, *keys, self.version),
        )
        self._store.multi_get_count += 1
        return {
            key: json.loads(value) for key, value in rows if value is not None
        }

    def scan(self, table: str) -> Iterator[tuple[str, dict[str, Any]]]:
        rows = self._store._query_all(
            "SELECT key, value FROM rows r"
            " WHERE metastore_id=? AND tbl=? AND version = ("
            "   SELECT MAX(version) FROM rows"
            "   WHERE metastore_id=r.metastore_id AND tbl=r.tbl"
            "     AND key=r.key AND version<=?)",
            (self.metastore_id, table, self.version),
        )
        live = [(k, v) for k, v in rows if v is not None]
        self._store.scan_row_count += len(live)
        for key, value in live:
            yield key, json.loads(value)

    def scan_range(
        self, table: str, start: str, end: Optional[str]
    ) -> Iterator[tuple[str, dict[str, Any]]]:
        where_end = " AND key<?" if end is not None else ""
        params: tuple = (self.metastore_id, table, start)
        if end is not None:
            params += (end,)
        rows = self._store._query_all(
            "SELECT key, value FROM rows r"
            f" WHERE metastore_id=? AND tbl=? AND key>=?{where_end}"
            "   AND version = ("
            "   SELECT MAX(version) FROM rows"
            "   WHERE metastore_id=r.metastore_id AND tbl=r.tbl"
            "     AND key=r.key AND version<=?)"
            " ORDER BY key",
            params + (self.version,),
        )
        live = [(k, v) for k, v in rows if v is not None]
        self._store.range_scan_count += 1
        self._store.scan_row_count += len(live)
        for key, value in live:
            yield key, json.loads(value)

    def count(self, table: str, prefix: str = "") -> int:
        end = prefix_end(prefix)
        where_end = " AND key<?" if end is not None else ""
        params: tuple = (self.metastore_id, table, prefix)
        if end is not None:
            params += (end,)
        row = self._store._query_one(
            "SELECT COUNT(*) FROM rows r"
            f" WHERE metastore_id=? AND tbl=? AND key>=?{where_end}"
            "   AND value IS NOT NULL AND version = ("
            "   SELECT MAX(version) FROM rows"
            "   WHERE metastore_id=r.metastore_id AND tbl=r.tbl"
            "     AND key=r.key AND version<=?)",
            params + (self.version,),
        )
        self._store.range_scan_count += 1
        return int(row[0])


class SqliteMetadataStore(MetadataStore):
    """A durable backend. Pass ``path=":memory:"`` for an ephemeral DB."""

    def __init__(self, path: str = ":memory:"):
        # one shared connection guarded by a lock: SQLite serializes writers
        # anyway and the catalog's writes are per-metastore serialized above.
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._lock = threading.RLock()
        self.multi_get_count = 0
        self.scan_row_count = 0
        self.range_scan_count = 0
        with self._lock:
            self._conn.executescript(_SCHEMA)
            (user_version,) = self._conn.execute("PRAGMA user_version").fetchone()
            if user_version < _SCHEMA_VERSION:
                self._rebuild_tree_index()
                self._conn.execute(f"PRAGMA user_version={_SCHEMA_VERSION}")
            self._conn.commit()

    # -- low-level helpers -------------------------------------------------

    def _query_one(self, sql: str, params: tuple) -> Optional[tuple]:
        with self._lock:
            cursor = self._conn.execute(sql, params)
            return cursor.fetchone()

    def _query_all(self, sql: str, params: tuple) -> list[tuple]:
        with self._lock:
            cursor = self._conn.execute(sql, params)
            return cursor.fetchall()

    def _latest_entity(self, metastore_id: str, key: str) -> Optional[dict]:
        """An entity's newest committed row (inside the open transaction)."""
        row = self._conn.execute(
            "SELECT value FROM rows WHERE metastore_id=? AND tbl=? AND key=?"
            " ORDER BY version DESC LIMIT 1",
            (metastore_id, Tables.ENTITIES, key),
        ).fetchone()
        return _loads(row[0]) if row is not None else None

    def _rebuild_tree_index(self) -> None:
        """Derive the tree index of a file written before the store kept
        one: replay every entity row version, in version order, through
        the commit's derivation (in the caller's transaction)."""
        self._conn.execute("DELETE FROM rows WHERE tbl=?", (TREE_INDEX,))
        rows = self._conn.execute(
            "SELECT metastore_id, version, key, value FROM rows WHERE tbl=?"
            " ORDER BY metastore_id, version",
            (Tables.ENTITIES,),
        ).fetchall()
        latest: dict[tuple[str, str], Optional[dict]] = {}
        for (metastore_id, version), batch in groupby(rows, key=lambda r: r[:2]):
            ops = [
                WriteOp(Tables.ENTITIES, key, _loads(value))
                for _, _, key, value in batch
            ]
            index = tree_index_rows(ops, lambda key: latest.get((metastore_id, key)))
            self._conn.executemany(_INSERT_ROW, [
                (metastore_id, table, key, version, _dumps(value))
                for table, key, value in index
            ])
            for op in ops:
                latest[(metastore_id, op.key)] = op.value

    # -- MetadataStore -------------------------------------------------------

    def create_metastore_slot(self, metastore_id: str) -> None:
        with self._lock:
            try:
                self._conn.execute(
                    "INSERT INTO metastore_versions (metastore_id, version) VALUES (?, 0)",
                    (metastore_id,),
                )
                self._conn.commit()
            except sqlite3.IntegrityError:
                self._conn.rollback()
                raise AlreadyExistsError(f"metastore slot exists: {metastore_id}")

    def metastore_ids(self) -> list[str]:
        rows = self._query_all("SELECT metastore_id FROM metastore_versions", ())
        return [row[0] for row in rows]

    def current_version(self, metastore_id: str) -> int:
        row = self._query_one(
            "SELECT version FROM metastore_versions WHERE metastore_id=?",
            (metastore_id,),
        )
        if row is None:
            raise NotFoundError(f"no such metastore slot: {metastore_id}")
        return int(row[0])

    def snapshot(self, metastore_id: str, at_version: Optional[int] = None) -> Snapshot:
        current = self.current_version(metastore_id)
        version = current if at_version is None else at_version
        if version > current:
            raise ConcurrentModificationError(
                f"snapshot version {version} is ahead of committed {current}"
            )
        return _SqliteSnapshot(self, metastore_id, version)

    def commit(self, metastore_id: str, expected_version: int, ops: list[WriteOp]) -> int:
        with self._lock:
            try:
                cursor = self._conn.execute(
                    "UPDATE metastore_versions SET version=version+1"
                    " WHERE metastore_id=? AND version=?",
                    (metastore_id, expected_version),
                )
                if cursor.rowcount == 0:
                    self._conn.rollback()
                    current = self.current_version(metastore_id)
                    raise ConcurrentModificationError(
                        f"metastore {metastore_id}: expected version "
                        f"{expected_version}, found {current}"
                    )
                new_version = expected_version + 1
                rows = [(op.table, op.key, op.value) for op in ops]
                # derived against pre-commit state, so before the inserts
                rows += tree_index_rows(
                    ops, lambda key: self._latest_entity(metastore_id, key)
                )
                self._conn.executemany(_INSERT_ROW, [
                    (metastore_id, table, key, new_version, _dumps(value))
                    for table, key, value in rows
                ])
                self._conn.commit()
                return new_version
            except sqlite3.Error:
                self._conn.rollback()
                raise

    def changes_since(self, metastore_id: str, from_version: int) -> list[ChangeRecord]:
        floor = self._query_one(
            "SELECT floor FROM compactions WHERE metastore_id=?",
            (metastore_id,),
        )
        since = max(from_version, int(floor[0]) if floor else 0)
        # index rows are derived state: a replica regenerates them
        rows = self._query_all(
            "SELECT version, tbl, key, value IS NULL FROM rows"
            " WHERE metastore_id=? AND version>? AND tbl<>? ORDER BY version",
            (metastore_id, since, TREE_INDEX),
        )
        return [
            ChangeRecord(version=int(v), table=t, key=k, deleted=bool(d))
            for v, t, k, d in rows
        ]

    def compact(self, metastore_id: str, min_version: int) -> int:
        with self._lock:
            cursor = self._conn.execute(
                "DELETE FROM rows WHERE metastore_id=? AND version < ("
                "  SELECT MAX(version) FROM rows r2"
                "  WHERE r2.metastore_id=rows.metastore_id AND r2.tbl=rows.tbl"
                "    AND r2.key=rows.key AND r2.version<=?)",
                (metastore_id, min_version),
            )
            removed = cursor.rowcount
            # a sole tombstone older than min_version can go entirely
            cursor = self._conn.execute(
                "DELETE FROM rows WHERE metastore_id=? AND value IS NULL"
                "  AND version<=? AND NOT EXISTS ("
                "  SELECT 1 FROM rows r2"
                "  WHERE r2.metastore_id=rows.metastore_id AND r2.tbl=rows.tbl"
                "    AND r2.key=rows.key AND r2.version>rows.version)",
                (metastore_id, min_version),
            )
            removed += cursor.rowcount
            self._conn.execute(
                "INSERT INTO compactions (metastore_id, floor) VALUES (?, ?)"
                " ON CONFLICT (metastore_id)"
                " DO UPDATE SET floor=MAX(floor, excluded.floor)",
                (metastore_id, min_version),
            )
            self._conn.commit()
            return removed

    def close(self) -> None:
        with self._lock:
            self._conn.close()
