"""Metadata change events (paper section 4.4).

"Whenever metadata is modified, the core service propagates change
events, which are consumed by second-tier services to update their
indexes, graphs, or lineage models."

The events are a view over the store's change log, so every service
over a store sees every commit: its own, a peer's, or one made before a
restart. Nothing on the write path builds an event. ``publish`` reads
the commits the log has not yet seen and derives one event per changed
row of a catalog table, typed from the table and from the row at the
commit's version v and at v - 1. Consumers poll with a cursor (offset),
each at its own pace.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass
from itertools import groupby
from typing import Any, Callable, Optional

from repro.core.persistence import branching as br
from repro.core.persistence.store import ChangeRecord, MetadataStore, Snapshot, Tables
from repro.errors import NotFoundError


class ChangeType(enum.Enum):
    CREATED = "CREATED"
    UPDATED = "UPDATED"
    DELETED = "DELETED"
    PURGED = "PURGED"
    GRANT_CHANGED = "GRANT_CHANGED"
    TAG_CHANGED = "TAG_CHANGED"
    POLICY_CHANGED = "POLICY_CHANGED"
    COMMIT = "COMMIT"  # table-format commit on a catalog-owned table


@dataclass(frozen=True)
class ChangeEvent:
    """One changed row, stamped with the metastore version that changed
    it; ``branch`` is the ``catalog@branch`` key of a branch's write or
    ref, None on the trunk."""

    sequence: int
    metastore_id: str
    metastore_version: int
    change: ChangeType
    securable_id: str
    securable_kind: str
    securable_name: str
    branch: Optional[str] = None


#: the kind of a branch ref's events: a ref is a row, not an entity
_BRANCH_KIND = "BRANCH"

#: catalog table (other than entities) -> (change, the securable id of a
#: row, from its key and value)
_SECURABLE_OF: dict[str, tuple[ChangeType, Callable[[str, dict], Optional[str]]]] = {
    Tables.GRANTS: (ChangeType.GRANT_CHANGED, lambda key, row: row.get("securable_id")),
    Tables.TAGS: (ChangeType.TAG_CHANGED, lambda key, row: key),
    Tables.POLICIES: (ChangeType.POLICY_CHANGED,
                      lambda key, row: row.get("securable_id") or row.get("scope_id")),
    Tables.COMMITS: (ChangeType.COMMIT, lambda key, row: key),
    Tables.SHARES: (ChangeType.UPDATED, lambda key, row: row.get("share_id")),
}


def _change(before: Optional[dict[str, Any]], after: Optional[dict[str, Any]]) -> ChangeType:
    if before is None:
        return ChangeType.CREATED
    if after is None:
        return ChangeType.PURGED
    if after.get("state") == "DELETED" and before.get("state") != "DELETED":
        return ChangeType.DELETED
    return ChangeType.UPDATED


def _event(store: MetadataStore, metastore_id: str, record: ChangeRecord
           ) -> Optional[tuple]:
    """``(change, securable id, kind, full name, branch)`` of one changed
    row, or None for a row that makes no event."""
    table, bkey, v = record.table, None, record.version
    overlay = br.split_overlay_table(table)
    if overlay is not None:
        if record.deleted:
            # only a merge or a branch delete drops overlay rows: the ref's
            # own event reports the branch's end
            return None
        table, bkey = overlay
    if bkey is None:
        now, then = store.snapshot(metastore_id, v), store.snapshot(metastore_id, v - 1)
    else:
        now, then = (br.branch_snapshot(store, metastore_id, bkey, at) for at in (v, v - 1))
    before, after = then.get(table, record.key), now.get(table, record.key)
    row = after or before
    if table == Tables.BRANCHES:
        # a branch's events carry its catalog, found at v or, if the
        # commit removed it, at v - 1
        catalog_id = (now.child_id(metastore_id, "CATALOG", row["catalog"])
                      or then.child_id(metastore_id, "CATALOG", row["catalog"]))
        change = (ChangeType.CREATED if before is None
                  else ChangeType.DELETED if after is None else ChangeType.UPDATED)
        return catalog_id and (change, catalog_id, _BRANCH_KIND, record.key, record.key)
    if table == Tables.ENTITIES and row is not None and "kind" in row:
        change, securable_id = _change(before, after), record.key
    elif table in _SECURABLE_OF and row is not None:
        change, securable_of = _SECURABLE_OF[table]
        securable_id = securable_of(record.key, row)
    else:
        return None
    # the securable at v, or at v - 1 if the commit removed it
    for snapshot in (now, then):
        entity = snapshot.get(Tables.ENTITIES, securable_id or "")
        if entity is not None:
            return change, securable_id, entity["kind"], _full_name(snapshot, entity), bkey
    return None


def _full_name(snapshot: Snapshot, row: dict[str, Any]) -> str:
    names = [row["name"]]
    parent = snapshot.get(Tables.ENTITIES, row.get("parent_id") or "")
    while parent is not None and parent["kind"] != "METASTORE":
        names.append(parent["name"])
        parent = snapshot.get(Tables.ENTITIES, parent.get("parent_id") or "")
    return ".".join(reversed(names))


class ChangeEventBus:
    """Per-metastore event logs derived from one store, with consumer
    cursors. Two buses over one store hold equal logs."""

    def __init__(self, store: MetadataStore):
        self._store = store
        self._lock = threading.RLock()
        self._logs: dict[str, list[ChangeEvent]] = {}
        #: metastore -> the newest version whose events are in its log
        self._derived: dict[str, int] = {}
        self._cursors: dict[tuple[str, str], int] = {}

    def publish(self, metastore_id: str) -> list[ChangeEvent]:
        """Append the events of every commit the log has not yet seen; return
        the bus's own log (not a copy). No write calls it; every read does."""
        with self._lock:
            log = self._logs.setdefault(metastore_id, [])
            try:
                records = self._store.changes_since(
                    metastore_id, self._derived.get(metastore_id, 0))
            except NotFoundError:
                return log
            for version, group in groupby(records, key=lambda r: r.version):
                # a row written twice in one commit changed once
                for record in {(r.table, r.key): r for r in group}.values():
                    event = _event(self._store, metastore_id, record)
                    if event is not None:
                        log.append(ChangeEvent(len(log), metastore_id, version, *event))
                self._derived[metastore_id] = version
            return log

    def poll(
        self, metastore_id: str, consumer: str, max_events: int = 1000
    ) -> list[ChangeEvent]:
        """Return (and advance past) unseen events for ``consumer``."""
        with self._lock:
            cursor = self._cursors.get((metastore_id, consumer), 0)
            events = self.publish(metastore_id)[cursor:cursor + max_events]
            self._cursors[metastore_id, consumer] = cursor + len(events)
            return events

    def peek(self, metastore_id: str, since_sequence: int = 0) -> list[ChangeEvent]:
        """Read without advancing any cursor."""
        with self._lock:
            return self.publish(metastore_id)[since_sequence:]

    def lag(self, metastore_id: str, consumer: str) -> int:
        """How many events the consumer has not yet seen."""
        with self._lock:
            return (len(self.publish(metastore_id))
                    - self._cursors.get((metastore_id, consumer), 0))
