"""In-memory MVCC metadata store: the one in-memory engine.

Each metastore slot keeps, per (table, key), an append-ordered history of
``(commit_version, value-or-None)`` pairs. A snapshot pinned at version V
sees, for each key, the newest pair with ``commit_version <= V``. Commits
take the slot's lock, CAS the metastore version, apply all ops at the new
version, and append to the change log — giving snapshot-isolated reads
and serializable writes at metastore granularity, exactly the contract the
paper's cache design assumes of its backing database.

Following TreeCat ("a standalone catalog engine for large data
systems", PAPERS.md), every table keeps its keys in one sorted list, and
each commit derives the tree index
(:func:`~repro.core.persistence.store.tree_index_rows`) from its entity
ops. So a prefix, range or count read is a bisect plus a short walk,
charged for the keys it touches, and name resolution, listing and
subtree walks are range reads over the index, independent of metastore
size. A full ``scan`` walks key order.

Rows are frozen (:mod:`repro.core.frozen`) and shared: the store keeps
the object the writer's ``WriteOp`` carries, and every read returns that
stored row itself, never a copy.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Iterable, Iterator, Optional

from repro.core.frozen import freeze
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

_NO_ROWS: dict = {}

#: the change log is ordered by version, so a cursor is a bisect
_version_of = attrgetter("version")


def _visible(versions: list[tuple[int, Optional[dict]]], at: int,
             default: Any = None) -> Optional[dict]:
    """Newest value committed at or before ``at`` (None if deleted), or
    ``default`` if the key has no version that old."""
    for version, value in reversed(versions):
        if version <= at:
            return value
    return default


class _Table(dict):
    """One logical table: key -> ``[(version, value-or-None), ...]``
    ascending by version, plus every key ever written (tombstoned keys
    stay until compaction) in ascending order, so a range read is a
    bisect plus a short walk."""

    __slots__ = ("ordered",)

    def __init__(self):
        super().__init__()
        self.ordered: list[str] = []

    def append(self, key: str, version: int, value: Optional[dict]) -> None:
        versions = self.get(key)
        if versions is None:
            versions = self[key] = []
            insort(self.ordered, key)
        versions.append((version, value))

    def drop(self, key: str) -> Optional[dict]:
        """Forget every version of ``key``; returns its newest value."""
        versions = self.pop(key, None)
        if versions is None:
            return None
        del self.ordered[bisect_left(self.ordered, key)]
        return versions[-1][1]

    def range_keys(self, start: str, end: Optional[str]) -> list[str]:
        """Keys in ``[start, end)``, ascending; ``end=None`` is unbounded."""
        lo = bisect_left(self.ordered, start)
        hi = bisect_left(self.ordered, end) if end is not None else len(self.ordered)
        return self.ordered[lo:hi]

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
        if len(self.ordered) != len(self):
            self.ordered = sorted(self)
        return removed


@dataclass
class _Slot:
    version: int = 0
    tables: dict[str, _Table] = field(default_factory=dict)
    changelog: list[ChangeRecord] = field(default_factory=list)
    lock: threading.RLock = field(default_factory=threading.RLock)
    #: entity id -> the fields of a dropped entity's newest row that its
    #: tree-index slot derives from, until an op on it moves the slot
    evicted: dict[str, dict] = field(default_factory=dict)

    def table(self, name: str) -> _Table:
        table = self.tables.get(name)
        if table is None:
            table = self.tables[name] = _Table()
        return table

    def read_table(self, name: str) -> _Table:
        """The named table, or an empty one: a read never creates a table."""
        table = self.tables.get(name)
        return table if table is not None else _Table()


class _MemorySnapshot(Snapshot):
    def __init__(self, slot: _Slot, metastore_id: str, version: int,
                 store: "InMemoryMetadataStore"):
        super().__init__(metastore_id, version)
        self._slot = slot
        self._store = store

    def get(self, table: str, key: str, default: Any = None) -> Optional[dict[str, Any]]:
        """The row visible at this snapshot: None if deleted, ``default``
        if the key has no version this old (never written, or written
        only after this snapshot)."""
        with self._slot.lock:
            versions = self._slot.tables.get(table, _NO_ROWS).get(key)
            if not versions:
                return default
            return _visible(versions, self.version, default)

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
                    out[key] = value
        self._store.multi_get_count += 1
        return out

    def _live(self, rows: _Table, keys: Iterable[str]) -> list[tuple[str, dict]]:
        """The rows of ``keys`` visible at this snapshot (call under the
        slot lock)."""
        out = []
        for key in keys:
            value = _visible(rows[key], self.version)
            if value is not None:
                out.append((key, value))
        return out

    def scan(self, table: str) -> Iterator[tuple[str, dict[str, Any]]]:
        # materialized under the lock for a consistent iteration
        with self._slot.lock:
            rows = self._slot.read_table(table)
            out = self._live(rows, rows.ordered)
        self._store.scan_row_count += len(out)
        return iter(out)

    def scan_range(self, table: str, start: str, end: Optional[str]):
        with self._slot.lock:
            rows = self._slot.read_table(table)
            keys = rows.range_keys(start, end)
            out = self._live(rows, keys)
            # one range read, charged for the keys it touched
            self._store.range_scan_count += 1
            self._store.scan_row_count += len(keys)
        return iter(out)

    def count(self, table: str, prefix: str = "") -> int:
        # no row list, but the same keys (and charge) as scan_prefix
        with self._slot.lock:
            rows = self._slot.read_table(table)
            keys = rows.range_keys(prefix, prefix_end(prefix))
            self._store.range_scan_count += 1
            self._store.scan_row_count += len(keys)
            return sum(
                1 for key in keys if _visible(rows[key], self.version) is not None
            )


class InMemoryMetadataStore(MetadataStore):
    """The default metadata backend for tests and benchmarks.

    ``read_count`` / ``multi_get_count`` / ``scan_row_count`` count
    logical DB reads so the cache benchmarks can attribute simulated
    latency to database round-trips.
    """

    def __init__(self):
        self._slots: dict[str, _Slot] = {}
        self._global_lock = threading.RLock()
        self.read_count = 0
        self.commit_count = 0
        self.scan_row_count = 0
        self.multi_get_count = 0
        self.range_scan_count = 0

    def _slot(self, metastore_id: str) -> _Slot:
        try:
            return self._slots[metastore_id]
        except KeyError:
            raise NotFoundError(f"no such metastore slot: {metastore_id}")

    # -- MetadataStore ------------------------------------------------------

    def create_metastore_slot(self, metastore_id: str) -> None:
        with self._global_lock:
            if metastore_id in self._slots:
                raise AlreadyExistsError(f"metastore slot exists: {metastore_id}")
            self._slots[metastore_id] = _Slot()

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
            return _MemorySnapshot(slot, metastore_id, version, self)

    def commit(self, metastore_id: str, expected_version: int, ops: list[WriteOp]) -> int:
        slot = self._slot(metastore_id)
        with slot.lock:
            if slot.version != expected_version:
                raise ConcurrentModificationError(
                    f"metastore {metastore_id}: expected version {expected_version}, "
                    f"found {slot.version}"
                )
            new_version = expected_version + 1
            self._install(slot, new_version, ops)
            slot.changelog.extend(
                ChangeRecord(version=new_version, table=op.table, key=op.key,
                             deleted=op.value is None)
                for op in ops
            )
            self.commit_count += 1
            return new_version

    def install(self, metastore_id: str, version: int, ops: list[WriteOp]) -> bool:
        """Apply ``ops`` at ``version``, with no version check and no
        change-log entry: how a cache node copies rows it knows were
        committed at ``version`` into its local store. ``version`` must
        not be older than the slot's.

        Such a copy's tree index keeps live slots only, all that a name
        lookup or a listing reads: a slot the ops vacate or soft-delete
        leaves it with its history, and ``install`` returns True (the
        index then holds no version before ``version``)."""
        slot = self._slot(metastore_id)
        with slot.lock:
            final = {key: row for _, key, row in self._install(slot, version, ops)}
            dead = [key for key, row in final.items()
                    if row is None or row["state"] != "ACTIVE"]
            for key in dead:
                slot.table(TREE_INDEX).drop(key)
            return bool(dead)

    @staticmethod
    def _install(slot: _Slot, version: int,
                 ops: list[WriteOp]) -> list[tuple[str, str, Optional[dict]]]:
        """Append ``ops`` and the tree-index rows they imply at
        ``version`` (call under the slot lock); returns those rows."""
        entities = slot.read_table(Tables.ENTITIES)

        def previous(key: str) -> Optional[dict]:
            versions = entities.get(key)
            return versions[-1][1] if versions else slot.evicted.pop(key, None)

        index = tree_index_rows(ops, previous)
        for op in ops:
            slot.table(op.table).append(op.key, version, freeze(op.value))
        # index rows are versioned like everything else, but stay out of
        # the change log: a replica rebuilds them from the ops it replays
        # through its own commit()
        for table, key, value in index:
            slot.table(table).append(key, version, value)
        slot.version = version
        return index

    def drop_row(self, metastore_id: str, table: str, key: str) -> Optional[dict]:
        """Forget every version of one row (a cache evicting it); returns
        its newest value. An entity's tree-index slot stays, and the next
        op on the entity still moves it."""
        slot = self._slot(metastore_id)
        with slot.lock:
            value = slot.read_table(table).drop(key)
            if table == Tables.ENTITIES and value is not None:
                slot.evicted[key] = {name: value.get(name) for name in
                                     ("id", "kind", "name", "parent_id", "state")}
            return value

    def changes_since(self, metastore_id: str, from_version: int) -> list[ChangeRecord]:
        slot = self._slot(metastore_id)
        with slot.lock:
            return slot.changelog[bisect_right(slot.changelog, from_version, key=_version_of):]

    def compact(self, metastore_id: str, min_version: int) -> int:
        slot = self._slot(metastore_id)
        with slot.lock:
            removed = sum(t.compact(min_version) for t in slot.tables.values())
            del slot.changelog[:bisect_right(slot.changelog, min_version, key=_version_of)]
        return removed

    # -- diagnostics ----------------------------------------------------------

    def row_version_count(self, metastore_id: str) -> int:
        """Total stored row versions, tree-index rows included (used by
        compaction tests)."""
        slot = self._slot(metastore_id)
        with slot.lock:
            return sum(
                len(versions)
                for table in slot.tables.values()
                for versions in table.values()
            )

    def approximate_size_bytes(self, metastore_id: str) -> int:
        """Rough serialized size of a metastore's live metadata, tree-index
        rows excluded.

        Used by the Figure 4 (working-set size) benchmark.
        """
        slot = self._slot(metastore_id)
        total = 0
        with slot.lock:
            for name, table in slot.tables.items():
                if name == TREE_INDEX:
                    continue
                for versions in table.values():
                    value = versions[-1][1]
                    if value is not None:
                        total += len(json.dumps(value))
        return total
