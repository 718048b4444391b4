"""Online shard rebalancing: migrate a catalog subtree between shards.

The migration is a small state machine built for zero read downtime:

``PLANNED → COPIED → FENCED → CUT_OVER → DONE``

* **copy** — bulk-copy a consistent snapshot of the subtree to the
  target shard while the source keeps serving reads *and* writes;
* **enter_fence** — fence the route key: reads keep hitting the source
  (the copy is not authoritative yet), and the next write cooperatively
  completes the cutover before it lands;
* **cutover** — take a second snapshot, apply the delta (rows changed
  since the copy, plus deletes) to the target, pin the route key to the
  target, and drop the fence — from here the target is authoritative;
* **cleanup** — delete the subtree rows from the source shard.

Because every step works on row-level exports keyed by stable entity
ids (ids never change across shards — replicated creates pre-mint
them), the copied rows are byte-identical to the source's and no
reference rewriting is needed.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.model.entity import SecurableKind
from repro.core.persistence.store import MetadataStore, Tables, WriteOp
from repro.errors import InvalidRequestError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .cluster import CatalogCluster

#: auxiliary tables whose rows ride along with an entity subtree, grants
#: aside (those are range reads under each entity id)
_AUX_TABLES = (Tables.TAGS, Tables.POLICIES, Tables.COMMITS, Tables.SHARES)

PLANNED = "PLANNED"
COPIED = "COPIED"
FENCED = "FENCED"
CUT_OVER = "CUT_OVER"
DONE = "DONE"


@dataclass
class SubtreeExport:
    """A consistent row-level snapshot of one catalog subtree."""

    root_id: str
    version: int
    rows: list[tuple[str, str, dict]]  # (table, key, value)

    def keys(self) -> set[tuple[str, str]]:
        return {(table, key) for table, key, _ in self.rows}


def export_subtree(store: MetadataStore, metastore_id: str,
                   root_id: str) -> SubtreeExport:
    """Export every row belonging to ``root_id``'s subtree.

    Soft-deleted entities are included — they still own storage the
    garbage collector must find. Auxiliary rows are matched either by a
    key segment (grants/tags/commits/shares key by entity id) or by an
    id-valued field (ABAC policies key by policy id but reference their
    scope and securable).
    """
    snapshot = store.snapshot(metastore_id)
    rows: list[tuple[str, str, dict]] = []
    # BFS over the tree index: one range read per container instead of a
    # whole-table scan per level (include_deleted — the subtree's
    # soft-deleted rows migrate too)
    ids = {root_id}
    frontier = [root_id]
    while frontier:
        next_frontier: list[str] = []
        for parent in frontier:
            for child in snapshot.children_ids(parent, include_deleted=True):
                if child not in ids:
                    ids.add(child)
                    next_frontier.append(child)
        frontier = next_frontier
    fetched = snapshot.multi_get(Tables.ENTITIES, sorted(ids))
    rows.extend((Tables.ENTITIES, k, v) for k, v in fetched.items())
    # grants key by "<securable_id>/...": one range read per entity
    for entity_id in sorted(ids):
        rows.extend(
            (Tables.GRANTS, key, value)
            for key, value in snapshot.scan_prefix(Tables.GRANTS, f"{entity_id}/")
        )
    for table in _AUX_TABLES:
        for key, value in snapshot.scan(table):
            in_key = any(segment in ids for segment in key.split("/"))
            in_value = (value.get("securable_id") in ids
                        or value.get("scope_id") in ids)
            if in_key or in_value:
                rows.append((table, key, value))
    return SubtreeExport(root_id=root_id, version=snapshot.version, rows=rows)


class CatalogMigration:
    """One catalog subtree moving from its current shard to ``target``."""

    def __init__(self, cluster: "CatalogCluster", metastore_id: str,
                 catalog_name: str, target_shard: str):
        self._cluster = cluster
        self.metastore_id = metastore_id
        self.catalog_name = catalog_name
        self.source_name = cluster.router.owner_for(metastore_id, catalog_name)
        self.target_name = target_shard
        cluster.shard_named(target_shard)  # validate early
        self.state = PLANNED
        self._first: Optional[SubtreeExport] = None
        self._second: Optional[SubtreeExport] = None
        self._root_id: Optional[str] = None
        #: serializes state transitions — two parallel writers hitting a
        #: fenced key both call :meth:`complete`; the loser must observe
        #: the cutover as already done, not double-fire it. Reentrant so
        #: :meth:`run`/:meth:`complete` can drive the individual steps.
        self._lock = threading.RLock()

    def _count(self, stage: str) -> None:
        self._cluster.count_migration_stage(stage)

    def _require(self, expected: str) -> None:
        if self.state != expected:
            raise InvalidRequestError(
                f"migration of {self.catalog_name} is {self.state}, "
                f"expected {expected}"
            )

    def _resolve_root(self) -> str:
        if self._root_id is None:
            source = self._cluster.shard_named(self.source_name)
            svc = source.service
            view = svc.view(self.metastore_id)
            entity = svc._resolve(view, self.metastore_id,
                                  SecurableKind.CATALOG, self.catalog_name)
            self._root_id = entity.id
        return self._root_id

    # -- state machine ---------------------------------------------------

    def copy(self) -> "CatalogMigration":
        """Bulk-copy the subtree; source stays fully readable/writable."""
        with self._lock:
            self._require(PLANNED)
            cluster, mid = self._cluster, self.metastore_id
            root_id = self._resolve_root()
            source = cluster.shard_named(self.source_name)
            target = cluster.shard_named(self.target_name)
            self._first = export_subtree(source.service.store, mid, root_id)

            def build(view):
                ops = [WriteOp.put(t, k, v) for t, k, v in self._first.rows]
                return ops, None, []

            target.service._mutate(mid, build)
            self.state = COPIED
        self._count("copy")
        return self

    def enter_fence(self) -> "CatalogMigration":
        """Fence the key: reads stay on the source, the next write
        triggers :meth:`complete` before it lands."""
        with self._lock:
            self._require(COPIED)
            self._cluster.router.fence(self.metastore_id, self.catalog_name,
                                       self)
            self.state = FENCED
        self._count("fence")
        return self

    def cutover(self) -> "CatalogMigration":
        """Apply the delta since :meth:`copy`, repoint the route key."""
        with self._lock:
            self._require(FENCED)
            cluster, mid = self._cluster, self.metastore_id
            source = cluster.shard_named(self.source_name)
            target = cluster.shard_named(self.target_name)
            self._second = export_subtree(source.service.store, mid,
                                          self._root_id)
            vanished = self._first.keys() - self._second.keys()

            def build(view):
                ops = [WriteOp.put(t, k, v) for t, k, v in self._second.rows]
                ops.extend(WriteOp.delete(t, k) for t, k in sorted(vanished))
                return ops, None, []

            target.service._mutate(mid, build)
            cluster.router.pin(mid, self.catalog_name, self.target_name)
            cluster.router.unfence(mid, self.catalog_name)
            self.state = CUT_OVER
        self._count("cutover")
        cluster.after_mutation([target], mid)
        return self

    def cleanup(self) -> "CatalogMigration":
        """Drop the now-stale subtree rows from the source shard."""
        with self._lock:
            self._require(CUT_OVER)
            cluster, mid = self._cluster, self.metastore_id
            source = cluster.shard_named(self.source_name)
            stale = sorted(self._second.keys())

            def build(view):
                return [WriteOp.delete(t, k) for t, k in stale], None, []

            source.service._mutate(mid, build)
            self.state = DONE
        self._count("cleanup")
        cluster.after_mutation([source], mid)
        return self

    def complete(self) -> "CatalogMigration":
        """Cooperative finish, called by the write path on a fenced key.
        Under the reentrant lock the loser of a two-writer race observes
        the winner's cutover instead of double-firing it."""
        with self._lock:
            if self.state == FENCED:
                self.cutover()
                self.cleanup()
        return self

    def run(self) -> "CatalogMigration":
        """The whole migration, start to finish."""
        with self._lock:
            if self.source_name == self.target_name:
                self.state = DONE  # already where it should be
                return self
            self._resolve_root()
            self.copy()
            self.enter_fence()
        # idempotent finish: a cooperating writer may have already cut
        # over the fenced key between the two critical sections
        return self.complete()
