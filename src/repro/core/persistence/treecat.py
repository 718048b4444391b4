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
* ``child_id`` — point range over one ``(parent, kind, name)`` slot;
* ``children_ids`` / ``count_children`` — one range read per container,
  independent of metastore size;
* full ``scan`` — key-ordered walk (deterministic iteration order).

Index rows are row histories like any other, so they time-travel with
the entities they index: a snapshot taken before a rename still resolves
the old name. They stay out of the change log (the index is derived
state; replicas regenerate it by replaying the entity ops through their
own commit).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Optional

from repro.core.persistence.memory import (
    InMemoryMetadataStore,
    _MemorySnapshot,
    _prefix_end,
    _Slot,
    _Table,
    _visible,
)
from repro.core.persistence.store import Tables, WriteOp

#: key-segment separator: sorts below every printable character, so the
#: sorted key order groups a parent's slots before any longer sibling key
_SEP = "\x1f"

#: internal table holding the tree-index rows (never in ``Tables``, never
#: surfaced through the change log)
TREE_INDEX = "__tree_index__"


def _index_key(parent_id: Optional[str], kind: str, name: str,
               entity_id: str) -> str:
    """Tree-index row key. ``parent_id=None`` (the metastore root) maps
    to the empty segment. The entity id rides in the key so a
    soft-deleted entity and its recreated namesake coexist."""
    return _SEP.join((parent_id or "", kind, name, entity_id))


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

    def _index_entries(self, parent_id: Optional[str],
                       *segments: Optional[str]) -> list[dict]:
        """Live index values under ``parent_id ␟ segments… ␟`` (a None
        segment, i.e. any kind, is left out): one range read, charged
        for the keys it touches."""
        prefix = _SEP.join(
            [parent_id or ""] + [s for s in segments if s is not None]
        ) + _SEP
        with self._slot.lock:
            rows = self._slot.read_table(TREE_INDEX)
            keys = rows.range_keys(prefix, _prefix_end(prefix))
            self._store._charge_range(rows, keys)
            values = [_visible(rows[key], self.version) for key in keys]
        return [value for value in values if value is not None]

    def child_id(self, parent_id: str, kind: str, name: str) -> Optional[str]:
        for entry in self._index_entries(parent_id, kind, name):
            if entry["state"] == "ACTIVE":
                return entry["id"]
        return None

    def children_ids(
        self,
        parent_id: str,
        kind: Optional[str] = None,
        include_deleted: bool = False,
    ) -> Optional[list[str]]:
        return [
            entry["id"]
            for entry in self._index_entries(parent_id, kind)
            if include_deleted or entry["state"] == "ACTIVE"
        ]

    def count_children(
        self, parent_id: str, kind: Optional[str] = None
    ) -> Optional[int]:
        return sum(
            1 for entry in self._index_entries(parent_id, kind)
            if entry["state"] == "ACTIVE"
        )


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
        """Tree-index rows implied by this batch's entity writes.

        For every entity op: tombstone the index slot the entity's
        previous version occupied (if the slot moved — rename, reparent,
        hard delete) and write the slot its new version occupies.
        "Previous" means pre-commit state, with earlier ops in the same
        batch taken into account.
        """
        def slot_key(value: Optional[dict]) -> Optional[str]:
            # rows without the entity shape (raw contract tests, foreign
            # payloads) simply don't participate in the index
            if value is None or not {"id", "kind", "name"} <= value.keys():
                return None
            return _index_key(
                value.get("parent_id"), value["kind"], value["name"], value["id"]
            )

        index_rows: list[tuple[str, str, Optional[dict]]] = []
        entities = slot.read_table(Tables.ENTITIES)
        pending: dict[str, Optional[dict]] = {}
        for op in ops:
            if op.table != Tables.ENTITIES:
                continue
            if op.key in pending:
                previous = pending[op.key]
            else:
                versions = entities.get(op.key)
                previous = versions[-1][1] if versions else None
            pending[op.key] = op.value
            old_key = slot_key(previous)
            new_key = slot_key(op.value)
            if old_key is not None and old_key != new_key:
                index_rows.append((TREE_INDEX, old_key, None))
            if new_key is not None:
                index_rows.append((TREE_INDEX, new_key, {
                    "id": op.value["id"], "state": op.value.get("state", "ACTIVE"),
                }))
        return index_rows
