"""The write-through, multi-version metadata cache (paper section 4.5).

One :class:`MetastoreCacheNode` *owns* one metastore (assignments come
from the sharding service, section 5; ownership is best-effort and not
exclusive). The node maintains the invariant that a cached asset's
versions are the latest as of the metastore version known to the node:

* **Reads** check the DB's metastore version (a cheap point read); if the
  node has fallen behind, it *reconciles* — either evicting everything or
  selectively invalidating the keys named by the change log.
* **Writes** commit to the DB with a compare-and-swap on the metastore
  version. Success write-throughs the new row versions into the cache; a
  failed CAS means another node owns (or wrote to) the metastore, and the
  node reconciles before the caller retries.
* The cache is multi-versioned so in-flight snapshot reads pinned at an
  older version are not blocked by concurrent writes; superseded versions
  are pruned lazily after the API-request timeout has passed, since no
  in-flight request can still need them.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.clock import Clock, WallClock
from repro.cloudstore.object_store import StoragePath
from repro.core.auth.privileges import PrivilegeGrant
from repro.core.cache.eviction import EvictionPolicy, LruPolicy
from repro.core.frozen import freeze
from repro.core.model.entity import Entity, SecurableKind
from repro.core.model.registry import AssetTypeRegistry
from repro.core.paths import PATH_GOVERNED_KINDS, PathTrie
from repro.core.persistence.branching import is_branch_table
from repro.core.persistence.store import MetadataStore, Tables, WriteOp
from repro.core.view import MetastoreView
from repro.errors import ConcurrentModificationError, PathConflictError

#: Tables the node caches and keeps completeness flags for.
_CACHED_TABLES = (
    Tables.ENTITIES,
    Tables.GRANTS,
    Tables.TAGS,
    Tables.POLICIES,
    Tables.COMMITS,
    Tables.SHARES,
)


class ReconcileMode(enum.Enum):
    """How a stale node catches up with the DB (paper section 4.5).

    ``EVICT_ALL`` is the naive strategy; ``SELECTIVE`` consults the
    change log to invalidate only modified entries. The ablation benchmark
    compares the two.
    """

    EVICT_ALL = "EVICT_ALL"
    SELECTIVE = "SELECTIVE"


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    version_checks: int = 0
    reconciles: int = 0
    selective_invalidations: int = 0
    evictions: int = 0
    version_prunes: int = 0
    commit_conflicts: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class _VersionedRow:
    """Versions of one row: ascending ``(version, value, inserted_at)``."""

    versions: list[tuple[int, Optional[dict], float]] = field(default_factory=list)

    def visible(self, at: int) -> Optional[dict]:
        for version, value, _ in reversed(self.versions):
            if version <= at:
                return value
        return None

    def latest(self) -> tuple[int, Optional[dict]]:
        version, value, _ = self.versions[-1]
        return version, value

    def append(self, version: int, value: Optional[dict], now: float) -> None:
        if self.versions and self.versions[-1][0] == version:
            self.versions[-1] = (version, value, now)
        else:
            self.versions.append((version, value, now))

    def prune_superseded(self, cutoff: float) -> int:
        """Drop versions superseded before ``cutoff``; keep the newest.

        A version can be dropped once its *successor* has been cached for
        longer than the request timeout — no in-flight request can still
        be pinned before the successor.
        """
        if len(self.versions) <= 1:
            return 0
        keep_from = 0
        for i in range(1, len(self.versions)):
            if self.versions[i][2] <= cutoff:
                keep_from = i
        if keep_from == 0:
            return 0
        self.versions = self.versions[keep_from:]
        return keep_from

    def version_count(self) -> int:
        return len(self.versions)


class MetastoreCacheNode:
    """Write-through multi-version cache for one metastore."""

    def __init__(
        self,
        store: MetadataStore,
        metastore_id: str,
        registry: AssetTypeRegistry,
        clock: Optional[Clock] = None,
        reconcile_mode: ReconcileMode = ReconcileMode.SELECTIVE,
        eviction_policy: Optional[EvictionPolicy] = None,
        max_cached_entities: Optional[int] = None,
        request_timeout_seconds: float = 60.0,
    ):
        self._store = store
        self.metastore_id = metastore_id
        self._registry = registry
        self._clock = clock or WallClock()
        self.reconcile_mode = reconcile_mode
        # explicit None check: an empty policy is falsy (it has __len__)
        self._policy = eviction_policy if eviction_policy is not None else LruPolicy()
        self._max_entities = max_cached_entities
        self._timeout = request_timeout_seconds
        self._lock = threading.RLock()

        self.known_version = store.current_version(metastore_id)
        self._rows: dict[str, dict[str, _VersionedRow]] = {
            table: {} for table in _CACHED_TABLES
        }
        self._complete: dict[str, bool] = {table: False for table in _CACHED_TABLES}

        # derived indexes over the *latest* versions
        self._name_index: dict[tuple, str] = {}
        self._children: dict[str, set[str]] = {}
        self._trie = PathTrie()
        self._grants_index: dict[str, dict[str, PrivilegeGrant]] = {}

        self.stats = CacheStats()

    # -- public API ------------------------------------------------------------

    def view(self, check_version: bool = True) -> "CachedView":
        """A snapshot-consistent read view at the node's known version.

        ``check_version`` performs the paper's per-read freshness check
        against the DB's metastore version (one cheap point read).
        """
        with self._lock:
            if check_version:
                self.stats.version_checks += 1
                current = self._store.current_version(self.metastore_id)
                if current != self.known_version:
                    self._reconcile(current)
            return CachedView(self, self.known_version)

    def commit(self, ops: list[WriteOp]) -> int:
        """Serializable write: CAS on the metastore version, then
        write-through the new row versions into the cache."""
        with self._lock:
            try:
                new_version = self._store.commit(
                    self.metastore_id, self.known_version, ops
                )
            except ConcurrentModificationError:
                self.stats.commit_conflicts += 1
                self._reconcile(self._store.current_version(self.metastore_id))
                raise
            now = self._clock.now()
            for op in ops:
                self._apply(op.table, op.key, op.value, new_version, now)
            self.known_version = new_version
            return new_version

    def warm(self) -> None:
        """Load the metastore's full working set into memory."""
        with self._lock:
            snapshot = self._store.snapshot(self.metastore_id)
            now = self._clock.now()
            for table in _CACHED_TABLES:
                # set the flag first: evictions fired while loading must be
                # able to clear it, or evicted keys would read as absent
                self._complete[table] = True
                for key, value in snapshot.scan(table):
                    self._apply(table, key, value, snapshot.version, now)
            self.known_version = snapshot.version

    def reconcile(self) -> None:
        """Force a catch-up with the DB (normally triggered automatically)."""
        with self._lock:
            self._reconcile(self._store.current_version(self.metastore_id))

    # -- reconciliation ----------------------------------------------------------

    def _reconcile(self, target_version: int) -> None:
        self.stats.reconciles += 1
        if self.reconcile_mode is ReconcileMode.EVICT_ALL:
            self._evict_all()
            self.known_version = target_version
            return
        changes = self._store.changes_since(self.metastore_id, self.known_version)
        snapshot = self._store.snapshot(self.metastore_id)
        # branch overlay / ref rows are invisible on the trunk: skip them
        # so branch churn never populates (or evicts from) the node cache
        changed_keys = {
            (c.table, c.key) for c in changes if not is_branch_table(c.table)
        }
        # one batched read per touched table instead of one get per key
        keys_by_table: dict[str, list[str]] = {}
        for table, key in sorted(changed_keys):
            keys_by_table.setdefault(table, []).append(key)
        fetched = {
            table: snapshot.multi_get(table, keys)
            for table, keys in keys_by_table.items()
        }
        now = self._clock.now()
        for table, key in sorted(changed_keys):
            value = fetched[table].get(key)
            try:
                self._apply(table, key, value, snapshot.version, now)
            except PathConflictError:
                # transient overlap from out-of-order index maintenance;
                # rebuild the trie from the reconciled state
                self._rebuild_trie()
            self.stats.selective_invalidations += 1
        self.known_version = snapshot.version

    def _evict_all(self) -> None:
        for table in _CACHED_TABLES:
            self._rows[table].clear()
            self._complete[table] = False
        self._name_index.clear()
        self._children.clear()
        self._trie = PathTrie()
        self._grants_index.clear()
        self._policy = type(self._policy)()

    def _rebuild_trie(self) -> None:
        self._trie = PathTrie()
        for key, row in self._rows[Tables.ENTITIES].items():
            _, value = row.latest() if row.versions else (0, None)
            if value is None:
                continue
            entity = Entity.from_dict(value)
            if (
                entity.is_active
                and entity.storage_path
                and entity.kind in PATH_GOVERNED_KINDS
            ):
                self._trie.register(StoragePath.parse(entity.storage_path), entity.id)

    # -- row application and derived-index maintenance ------------------------------

    def _apply(
        self, table: str, key: str, value: Optional[dict], version: int, now: float
    ) -> None:
        # every view shares the cached row: a store row or a written one
        # is frozen already (no cost), a freshly decoded one is frozen here
        value = freeze(value)
        if table not in self._rows:
            self._rows[table] = {}
            self._complete[table] = False
        rows = self._rows[table]
        row = rows.get(key)
        previous = None
        if row is not None and row.versions:
            _, previous = row.latest()
        if row is None:
            row = rows[key] = _VersionedRow()
        row.append(version, value, now)

        if table == Tables.ENTITIES:
            self._reindex_entity(previous, value)
            self._policy.record_access(key)
            self._maybe_evict()
        elif table == Tables.GRANTS:
            self._reindex_grant(key, previous, value)

        if value is None and row.version_count() == 1:
            # a sole tombstone carries no information; drop it
            del rows[key]
            if table == Tables.ENTITIES:
                self._policy.forget(key)

    def _reindex_entity(self, previous: Optional[dict], value: Optional[dict]) -> None:
        if previous is not None:
            old = Entity.from_dict(previous)
            if old.is_active:
                self._name_index.pop(self._name_key(old), None)
                children = self._children.get(old.parent_id or "")
                if children is not None:
                    children.discard(old.id)
                if old.storage_path and self._trie.path_of(old.id) is not None:
                    self._trie.unregister(old.id)
        if value is not None:
            new = Entity.from_dict(value)
            if new.is_active:
                self._name_index[self._name_key(new)] = new.id
                self._children.setdefault(new.parent_id or "", set()).add(new.id)
                if new.storage_path and new.kind in PATH_GOVERNED_KINDS:
                    self._trie.register(StoragePath.parse(new.storage_path), new.id)

    def _name_key(self, entity: Entity) -> tuple:
        manifest = self._registry.maybe_get(entity.kind)
        group = manifest.namespace_group if manifest else entity.kind.value
        return (entity.parent_id, group, entity.name)

    def _reindex_grant(
        self, key: str, previous: Optional[dict], value: Optional[dict]
    ) -> None:
        if previous is not None:
            securable_id = previous["securable_id"]
            grants = self._grants_index.get(securable_id)
            if grants is not None:
                grants.pop(key, None)
                if not grants:
                    del self._grants_index[securable_id]
        if value is not None:
            grant = PrivilegeGrant.from_dict(value)
            self._grants_index.setdefault(grant.securable_id, {})[key] = grant

    # -- eviction -----------------------------------------------------------------

    def _maybe_evict(self) -> None:
        if self._max_entities is None:
            return
        rows = self._rows[Tables.ENTITIES]
        while len(rows) > self._max_entities:
            victim = self._policy.victim()
            if victim is None or victim not in rows:
                if victim is not None:
                    self._policy.forget(victim)
                    continue
                break
            row = rows.pop(victim)
            self._policy.forget(victim)
            _, value = row.latest() if row.versions else (0, None)
            self._reindex_entity(value, None)
            self._complete[Tables.ENTITIES] = False
            self.stats.evictions += 1

    # -- read internals (used by CachedView) -----------------------------------------

    def _get_row(self, table: str, key: str, at: int) -> Optional[dict]:
        with self._lock:
            rows = self._rows.get(table, {})
            row = rows.get(key)
            if row is not None and row.versions:
                cutoff = self._clock.now() - self._timeout
                self.stats.version_prunes += row.prune_superseded(cutoff)
                value = row.visible(at)
                self.stats.hits += 1
                if table == Tables.ENTITIES:
                    self._policy.record_access(key)
                return value
            if self._complete.get(table, False):
                self.stats.hits += 1
                return None  # authoritative absence
            # read-through on miss
            self.stats.misses += 1
            snapshot = self._store.snapshot(self.metastore_id, at_version=self.known_version)
            value = freeze(snapshot.get(table, key))
            if value is not None:
                self._apply(table, key, value, self.known_version, self._clock.now())
            return value

    def _prefetch_rows(self, table: str, keys: list[str]) -> None:
        """Batch read-through: pull the named keys into the cache with one
        ``multi_get`` so subsequent ``_get_row`` calls all hit."""
        with self._lock:
            if self._complete.get(table, False):
                return
            rows = self._rows.get(table, {})
            missing = [key for key in keys if key not in rows]
            if not missing:
                return
            self.stats.misses += 1
            snapshot = self._store.snapshot(
                self.metastore_id, at_version=self.known_version
            )
            fetched = snapshot.multi_get(table, missing)
            now = self._clock.now()
            for key, value in fetched.items():
                self._apply(table, key, value, self.known_version, now)

    def _ensure_complete(self, table: str) -> None:
        with self._lock:
            if self._complete.get(table, False):
                return
            self.stats.misses += 1
            snapshot = self._store.snapshot(
                self.metastore_id, at_version=self.known_version
            )
            now = self._clock.now()
            for key, value in snapshot.scan(table):
                self._apply(table, key, value, self.known_version, now)
            self._complete[table] = True

    def _scan_latest(self, table: str, at: int) -> list[tuple[str, dict]]:
        self._ensure_complete(table)
        with self._lock:
            out = []
            for key, row in self._rows.get(table, {}).items():
                value = row.visible(at)
                if value is not None:
                    out.append((key, value))
            return out

    # locked reads of the derived indexes — CachedView must never walk
    # an index while a committing thread is re-indexing it

    def _name_lookup(self, key: tuple) -> Optional[str]:
        with self._lock:
            return self._name_index.get(key)

    def _children_of(self, parent_id: str) -> set[str]:
        with self._lock:
            return set(self._children.get(parent_id, ()))

    def _trie_resolve(self, path: StoragePath) -> Optional[str]:
        with self._lock:
            return self._trie.resolve(path)

    def _trie_overlapping(self, path: StoragePath) -> list[str]:
        with self._lock:
            return self._trie.find_overlapping(path)

    def _grants_for(self, securable_id: str) -> list[PrivilegeGrant]:
        with self._lock:
            return list(self._grants_index.get(securable_id, {}).values())

    def cached_version_count(self) -> int:
        """Total cached row versions across all tables (pruning tests)."""
        with self._lock:
            return sum(
                row.version_count()
                for rows in self._rows.values()
                for row in rows.values()
            )


class CachedView(MetastoreView):
    """A read view over a cache node, pinned at one metastore version."""

    def __init__(self, node: MetastoreCacheNode, version: int):
        self._node = node
        self._version = version

    @property
    def version(self) -> int:
        return self._version

    def entity_by_id(self, entity_id: str) -> Optional[Entity]:
        value = self._node._get_row(Tables.ENTITIES, entity_id, self._version)
        if value is None:
            return None
        entity = Entity.from_dict(value)
        return entity if entity.is_active else None

    def entity_by_name(
        self, parent_id: Optional[str], namespace_group: str, name: str
    ) -> Optional[Entity]:
        self._node._ensure_complete(Tables.ENTITIES)
        entity_id = self._node._name_lookup((parent_id, namespace_group, name))
        if entity_id is not None:
            entity = self.entity_by_id(entity_id)
            if (
                entity is not None
                and entity.name == name
                and entity.parent_id == parent_id
            ):
                return entity
        # the latest-version index missed (pinned older version); fall back
        if entity_id is None and self._version == self._node.known_version:
            return None
        for key, value in self._node._scan_latest(Tables.ENTITIES, self._version):
            entity = Entity.from_dict(value)
            if (
                entity.is_active
                and entity.parent_id == parent_id
                and entity.name == name
                and self._group_of(entity) == namespace_group
            ):
                return entity
        return None

    def _group_of(self, entity: Entity) -> str:
        manifest = self._node._registry.maybe_get(entity.kind)
        return manifest.namespace_group if manifest else entity.kind.value

    def children(
        self, parent_id: str, kind: Optional[SecurableKind] = None
    ) -> list[Entity]:
        self._node._ensure_complete(Tables.ENTITIES)
        child_ids = self._node._children_of(parent_id)
        out = []
        for child_id in child_ids:
            entity = self.entity_by_id(child_id)
            if entity is not None and entity.parent_id == parent_id:
                if kind is None or entity.kind is kind:
                    out.append(entity)
        return sorted(out, key=lambda e: e.name)

    def entities(self, kind: Optional[SecurableKind] = None) -> Iterator[Entity]:
        for key, value in self._node._scan_latest(Tables.ENTITIES, self._version):
            entity = Entity.from_dict(value)
            if entity.is_active and (kind is None or entity.kind is kind):
                yield entity

    def resolve_path(self, path: StoragePath) -> Optional[Entity]:
        self._node._ensure_complete(Tables.ENTITIES)
        asset_id = self._node._trie_resolve(path)
        return self.entity_by_id(asset_id) if asset_id else None

    def overlapping_assets(self, path: StoragePath) -> list[str]:
        self._node._ensure_complete(Tables.ENTITIES)
        return self._node._trie_overlapping(path)

    def grants_on(self, securable_id: str) -> list[PrivilegeGrant]:
        self._node._ensure_complete(Tables.GRANTS)
        return self._node._grants_for(securable_id)

    def prefetch_rows(self, table: str, keys: list[str]) -> None:
        self._node._prefetch_rows(table, keys)

    def row(self, table: str, key: str) -> Optional[dict]:
        return self._node._get_row(table, key, self._version)

    def rows(self, table: str) -> Iterator[tuple[str, dict]]:
        return iter(self._node._scan_latest(table, self._version))
