"""In-memory MVCC metadata store: the one engine behind both in-memory
backends.

Each metastore slot keeps, per (table, key), an append-ordered history of
``(commit_version, value-or-None)`` pairs. A snapshot pinned at version V
sees, for each key, the newest pair with ``commit_version <= V``. Commits
take the slot's lock, CAS the metastore version, apply all ops at the new
version, and append to the change log — giving snapshot-isolated reads
and serializable writes at metastore granularity, exactly the contract the
paper's cache design assumes of its backing database.

This store keeps no key order: a prefix, range or count read is a
filtered full scan and is charged as one. :mod:`.treecat` subclasses it
with prefix-ordered tables and a tree index derived inside each commit.
"""

from __future__ import annotations

import copy
import json
import threading
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional

from repro.core.persistence.store import (
    ChangeRecord,
    MetadataStore,
    Snapshot,
    WriteOp,
    prefix_end,
)
from repro.errors import (
    AlreadyExistsError,
    ConcurrentModificationError,
    NotFoundError,
)

_NO_ROWS: dict = {}


def _visible(versions: list[tuple[int, Optional[dict]]], at: int) -> Optional[dict]:
    """Newest value committed at or before ``at`` (None if deleted/absent)."""
    for version, value in reversed(versions):
        if version <= at:
            return value
    return None


class _Table(dict):
    """One logical table: key -> ``[(version, value-or-None), ...]``
    ascending by version. Scans walk insertion order; a range read
    filters every key."""

    __slots__ = ()

    def append(self, key: str, version: int, value: Optional[dict]) -> None:
        versions = self.get(key)
        if versions is None:
            versions = self[key] = []
        versions.append((version, value))

    def scan_keys(self) -> Iterable[str]:
        return self

    def range_keys(self, start: str, end: Optional[str]) -> list[str]:
        """Keys in ``[start, end)``, ascending; ``end=None`` is unbounded."""
        return sorted(k for k in self if k >= start and (end is None or k < end))

    def compact(self, min_version: int) -> int:
        """Drop versions invisible at or after ``min_version``; returns
        how many went."""
        removed = 0
        for key in list(self):
            versions = self[key]
            # keep the newest version visible at min_version, plus
            # everything after it
            keep_from = 0
            for i, (version, _) in enumerate(versions):
                if version <= min_version:
                    keep_from = i
            removed += keep_from
            kept = versions[keep_from:]
            # a sole tombstone older than min_version can go entirely
            if len(kept) == 1 and kept[0][1] is None and kept[0][0] <= min_version:
                removed += 1
                del self[key]
            else:
                self[key] = kept
        return removed


@dataclass
class _Slot:
    #: the store's table class, instantiated on a table's first write
    new_table: type
    version: int = 0
    tables: dict[str, _Table] = field(default_factory=dict)
    changelog: list[ChangeRecord] = field(default_factory=list)
    lock: threading.RLock = field(default_factory=threading.RLock)

    def table(self, name: str) -> _Table:
        table = self.tables.get(name)
        if table is None:
            table = self.tables[name] = self.new_table()
        return table

    def read_table(self, name: str) -> _Table:
        """The named table, or an empty one: a read never creates a table."""
        table = self.tables.get(name)
        return table if table is not None else self.new_table()


class _MemorySnapshot(Snapshot):
    def __init__(self, slot: _Slot, metastore_id: str, version: int,
                 store: "InMemoryMetadataStore"):
        super().__init__(metastore_id, version)
        self._slot = slot
        self._store = store

    def get(self, table: str, key: str) -> Optional[dict[str, Any]]:
        with self._slot.lock:
            versions = self._slot.tables.get(table, _NO_ROWS).get(key)
            if not versions:
                return None
            value = _visible(versions, self.version)
            return copy.deepcopy(value) if value is not None else None

    def multi_get(self, table: str, keys: list[str]) -> dict[str, dict[str, Any]]:
        out: dict[str, dict[str, Any]] = {}
        with self._slot.lock:
            rows = self._slot.tables.get(table, _NO_ROWS)
            for key in keys:
                versions = rows.get(key)
                if not versions:
                    continue
                value = _visible(versions, self.version)
                if value is not None:
                    out[key] = copy.deepcopy(value)
        self._store.multi_get_count += 1
        return out

    def _live(self, rows: _Table, keys: Iterable[str]) -> list[tuple[str, dict]]:
        """Copies of the rows of ``keys`` visible at this snapshot
        (call under the slot lock)."""
        out = []
        for key in keys:
            value = _visible(rows[key], self.version)
            if value is not None:
                out.append((key, copy.deepcopy(value)))
        return out

    def scan(self, table: str) -> Iterator[tuple[str, dict[str, Any]]]:
        # materialized under the lock for a consistent iteration
        with self._slot.lock:
            rows = self._slot.read_table(table)
            out = self._live(rows, rows.scan_keys())
        self._store.scan_row_count += len(out)
        return iter(out)

    def scan_range(self, table: str, start: str, end: Optional[str]):
        with self._slot.lock:
            rows = self._slot.read_table(table)
            keys = rows.range_keys(start, end)
            out = self._live(rows, keys)
            self._store._charge_range(rows, keys)
        return iter(out)

    def count(self, table: str, prefix: str = "") -> int:
        # no row copies, but the same keys (and charge) as scan_prefix
        with self._slot.lock:
            rows = self._slot.read_table(table)
            keys = rows.range_keys(prefix, prefix_end(prefix))
            self._store._charge_range(rows, keys)
            return sum(
                1 for key in keys if _visible(rows[key], self.version) is not None
            )


class InMemoryMetadataStore(MetadataStore):
    """The default metadata backend for tests and benchmarks.

    ``read_count`` / ``multi_get_count`` / ``scan_row_count`` count
    logical DB reads so the cache benchmarks can attribute simulated
    latency to database round-trips.
    """

    _table_type: type = _Table
    _snapshot_type: type = _MemorySnapshot
    #: tables filled by :meth:`_derived_rows`, left out of size estimates
    _derived_tables: tuple[str, ...] = ()

    def __init__(self):
        self._slots: dict[str, _Slot] = {}
        self._global_lock = threading.RLock()
        self.read_count = 0
        self.commit_count = 0
        self.scan_row_count = 0
        self.multi_get_count = 0
        #: flat backend: never issues true range reads (fallback scans
        #: are charged to scan_row_count above)
        self.range_scan_count = 0

    def _slot(self, metastore_id: str) -> _Slot:
        try:
            return self._slots[metastore_id]
        except KeyError:
            raise NotFoundError(f"no such metastore slot: {metastore_id}")

    def _charge_range(self, rows: _Table, touched: list[str]) -> None:
        # no key order to exploit: a range read is a filtered full scan
        # that examines every row of the table, and is charged as one
        self.scan_row_count += len(rows)

    def _derived_rows(
        self, slot: _Slot, ops: list[WriteOp]
    ) -> Iterable[tuple[str, str, Optional[dict]]]:
        """``(table, key, value)`` rows a commit of ``ops`` implies beyond
        the ops themselves; computed against pre-commit state."""
        return ()

    # -- MetadataStore ------------------------------------------------------

    def create_metastore_slot(self, metastore_id: str) -> None:
        with self._global_lock:
            if metastore_id in self._slots:
                raise AlreadyExistsError(f"metastore slot exists: {metastore_id}")
            self._slots[metastore_id] = _Slot(self._table_type)

    def metastore_ids(self) -> list[str]:
        with self._global_lock:
            return list(self._slots)

    def current_version(self, metastore_id: str) -> int:
        slot = self._slot(metastore_id)
        with slot.lock:
            return slot.version

    def snapshot(self, metastore_id: str, at_version: Optional[int] = None) -> Snapshot:
        slot = self._slot(metastore_id)
        with slot.lock:
            version = slot.version if at_version is None else at_version
            if version > slot.version:
                raise ConcurrentModificationError(
                    f"snapshot version {version} is ahead of committed {slot.version}"
                )
            self.read_count += 1
            return self._snapshot_type(slot, metastore_id, version, self)

    def commit(self, metastore_id: str, expected_version: int, ops: list[WriteOp]) -> int:
        slot = self._slot(metastore_id)
        with slot.lock:
            if slot.version != expected_version:
                raise ConcurrentModificationError(
                    f"metastore {metastore_id}: expected version {expected_version}, "
                    f"found {slot.version}"
                )
            new_version = expected_version + 1
            derived = self._derived_rows(slot, ops)
            for op in ops:
                value = copy.deepcopy(op.value) if op.value is not None else None
                slot.table(op.table).append(op.key, new_version, value)
                slot.changelog.append(
                    ChangeRecord(
                        version=new_version,
                        table=op.table,
                        key=op.key,
                        deleted=op.value is None,
                    )
                )
            # derived rows are versioned like everything else, but stay
            # out of the change log: a replica rebuilds them from the ops
            # it replays through its own commit()
            for table, key, value in derived:
                slot.table(table).append(key, new_version, value)
            slot.version = new_version
            self.commit_count += 1
            return new_version

    def changes_since(self, metastore_id: str, from_version: int) -> list[ChangeRecord]:
        slot = self._slot(metastore_id)
        with slot.lock:
            return [c for c in slot.changelog if c.version > from_version]

    def compact(self, metastore_id: str, min_version: int) -> int:
        slot = self._slot(metastore_id)
        with slot.lock:
            removed = sum(t.compact(min_version) for t in slot.tables.values())
            slot.changelog = [c for c in slot.changelog if c.version > min_version]
        return removed

    # -- diagnostics ----------------------------------------------------------

    def row_version_count(self, metastore_id: str) -> int:
        """Total stored row versions, derived rows included (used by
        compaction tests)."""
        slot = self._slot(metastore_id)
        with slot.lock:
            return sum(
                len(versions)
                for table in slot.tables.values()
                for versions in table.values()
            )

    def approximate_size_bytes(self, metastore_id: str) -> int:
        """Rough serialized size of a metastore's live metadata, derived
        rows excluded.

        Used by the Figure 4 (working-set size) benchmark.
        """
        slot = self._slot(metastore_id)
        total = 0
        with slot.lock:
            for name, table in slot.tables.items():
                if name in self._derived_tables:
                    continue
                for versions in table.values():
                    value = versions[-1][1]
                    if value is not None:
                        total += len(json.dumps(value))
        return total
