"""TreeCat-style hierarchical metadata store.

The catalog namespace is a three-level tree, but the flat store keeps it
as unordered key/value rows — so ``list schemas``, name resolution and
subtree operations scan the whole metastore. Following TreeCat
("a standalone catalog engine for large data systems", PAPERS.md), this
backend is the in-memory MVCC engine of :mod:`.memory` with two
additions: every table keeps its keys in a *prefix-ordered* sorted list,
and each commit derives a **tree index** — rows mapping

    ``parent_id ␟ kind ␟ name ␟ entity_id  →  {"id", "state"}``

— from the entity ops in the same batch. List/resolve/subtree reads then
become single range reads over the sorted key space:

* ``scan_prefix`` / ``scan_range`` / ``count`` — bisect into the sorted
  key list, touch (and charge) only the keys inside the range;
* ``child_id`` / ``children_ids`` / ``count_children`` — the shared
  :class:`~repro.core.persistence.store.Snapshot` primitives, each one
  range read over the index, independent of metastore size;
* full ``scan`` — key-ordered walk (deterministic iteration order).

The index derivation (:func:`~repro.core.persistence.store.tree_index_rows`)
is shared with the SQLite store. Index rows are row histories like any
other, so they time-travel with the entities they index: a snapshot
taken before a rename still resolves the old name. They stay out of the
change log (the index is derived state; replicas regenerate it by
replaying the entity ops through their own commit).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Optional

from repro.core.persistence.memory import (
    InMemoryMetadataStore,
    _MemorySnapshot,
    _Slot,
    _Table,
)
from repro.core.persistence.store import (
    TREE_INDEX,
    Tables,
    WriteOp,
    tree_index_rows,
)


class _OrderedTable(_Table):
    """A table that also keeps every key ever written (tombstoned keys
    stay until compaction) ascending, so range reads are bisect + short
    walk."""

    __slots__ = ("ordered",)

    def __init__(self):
        super().__init__()
        self.ordered: list[str] = []

    def append(self, key: str, version: int, value: Optional[dict]) -> None:
        if key not in self:
            insort(self.ordered, key)
        super().append(key, version, value)

    def scan_keys(self) -> list[str]:
        return self.ordered

    def range_keys(self, start: str, end: Optional[str]) -> list[str]:
        lo = bisect_left(self.ordered, start)
        hi = bisect_left(self.ordered, end) if end is not None else len(self.ordered)
        return self.ordered[lo:hi]

    def compact(self, min_version: int) -> int:
        removed = super().compact(min_version)
        if len(self.ordered) != len(self):
            self.ordered = sorted(self)
        return removed


class _TreeCatSnapshot(_MemorySnapshot):
    has_tree_index = True


class TreeCatMetadataStore(InMemoryMetadataStore):
    """The hierarchical backend: same engine, range reads for free."""

    _table_type = _OrderedTable
    _snapshot_type = _TreeCatSnapshot
    _derived_tables = (TREE_INDEX,)

    def _charge_range(self, rows: _Table, touched: list[str]) -> None:
        self.range_scan_count += 1
        self.scan_row_count += len(touched)

    def _derived_rows(
        self, slot: _Slot, ops: list[WriteOp]
    ) -> list[tuple[str, str, Optional[dict]]]:
        entities = slot.read_table(Tables.ENTITIES)

        def previous(key: str) -> Optional[dict]:
            versions = entities.get(key)
            return versions[-1][1] if versions else None

        return tree_index_rows(ops, previous)
