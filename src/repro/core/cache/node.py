"""The write-through, multi-version metadata cache (paper section 4.5).

A :class:`MetastoreCacheNode` owns one metastore (section 5, best-effort)
and keeps a versioned copy of it in a local ``InMemoryMetadataStore`` slot
holding the backing store's own frozen rows. Reads check the DB's version
and *reconcile* a stale copy (drop it, or install the rows the change log
names); writes CAS the version in the DB, then install the same ops.

A read at version V uses the copy where it is *authoritative* at V: the
key's local history reaches back to V, or the copy has held the whole
table since V or earlier. Anything else (an evicted row, a table not yet
filled, a key installed after V, an uncached table) reads the DB at V.
Eviction drops entity rows only: the tree index and the path trie keep
them, so no lookup reports an evicted row as absent. Old versions serve
pinned snapshots until the request timeout has passed.
"""

from __future__ import annotations

import enum
import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.clock import Clock, WallClock
from repro.cloudstore.object_store import StoragePath
from repro.core.cache.eviction import EvictionPolicy, LruPolicy
from repro.core.paths import PathTrie, governed_path
from repro.core.persistence.memory import InMemoryMetadataStore
from repro.core.persistence.store import TREE_INDEX, MetadataStore, Snapshot, Tables, WriteOp
from repro.errors import ConcurrentModificationError, PathConflictError

#: the tables the node copies; any other (branch refs) is only read through
_CACHED_TABLES = (Tables.ENTITIES, Tables.GRANTS, Tables.TAGS,
                  Tables.POLICIES, Tables.COMMITS, Tables.SHARES)
#: the copy holds no version of the key at the version read
_UNKNOWN = object()
_NEVER = float("inf")


class ReconcileMode(enum.Enum):
    """How a stale node catches up (section 4.5): drop the copy (``EVICT_ALL``), or
    install the keys the change log names (``SELECTIVE``); an ablation compares them."""

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


class MetastoreCacheNode:
    """Write-through multi-version cache for one metastore."""

    def __init__(self, store: MetadataStore, metastore_id: str,
                 clock: Optional[Clock] = None,
                 reconcile_mode: ReconcileMode = ReconcileMode.SELECTIVE,
                 eviction_policy: Optional[EvictionPolicy] = None,
                 max_cached_entities: Optional[int] = None,
                 request_timeout_seconds: float = 60.0):
        self._store = store
        self.metastore_id = metastore_id
        self._clock = clock or WallClock()
        self.reconcile_mode = reconcile_mode
        # explicit None check: an empty policy is falsy (it has __len__)
        self._policy = eviction_policy if eviction_policy is not None else LruPolicy()
        self._max_entities = max_cached_entities
        self._timeout = request_timeout_seconds
        self._lock = threading.RLock()
        self.stats = CacheStats()
        #: (time, version) of each install since the last prune, in order
        self._installs: deque[tuple[float, int]] = deque()
        self._pruned_at = self._clock.now()
        self._drop(store.current_version(metastore_id))

    def view(self, check_version: bool = True) -> Snapshot:
        """A snapshot at the known version, after the paper's per-read version check."""
        with self._lock:
            if check_version:
                self.stats.version_checks += 1
                if self._store.current_version(self.metastore_id) != self.known_version:
                    self._reconcile()
            self._prune()
            if self._head.version != self.known_version:
                self._head = self._local.snapshot(self.metastore_id)
            return _NodeSnapshot(self, self._local, self._head)

    def commit(self, ops: list[WriteOp]) -> int:
        """Serializable write: a CAS in the DB, then the ops installed at its version."""
        with self._lock:
            try:
                version = self._store.commit(self.metastore_id, self.known_version, ops)
            except ConcurrentModificationError:
                self.stats.commit_conflicts += 1
                self._reconcile()
                raise
            self._install(version, ops)
            self.known_version = version
            return version

    def warm(self) -> None:
        """Copy the metastore's full working set into memory."""
        with self._lock:
            snapshot = self._store.snapshot(self.metastore_id)
            self._drop(snapshot.version)
            for table in _CACHED_TABLES:
                self._fill(snapshot, table)

    def reconcile(self) -> None:
        """Force a catch-up with the DB (normally triggered automatically)."""
        with self._lock:
            self._reconcile()

    def cached_entities(self) -> int:
        """Entity rows resident in the copy (what the cap bounds)."""
        return len(self._policy)

    def cached_version_count(self) -> int:
        """Row versions in the copy, index rows included (pruning bounds it)."""
        return self._local.row_version_count(self.metastore_id)

    # -- keeping the copy (callers hold self._lock) ------------------------------

    def _drop(self, version: int) -> None:
        """Start over with an empty copy at ``version``."""
        self._local = InMemoryMetadataStore()
        self._local.create_metastore_slot(self.metastore_id)
        self._local.install(self.metastore_id, version, [])
        self._head = self._local.snapshot(self.metastore_id)  # shared by views at a version
        self._since: dict[str, int] = {}  # table -> held whole since version
        self._trie: Optional[PathTrie] = PathTrie()  # at known_version
        self.known_version = version

    def _reconcile(self) -> None:
        self.stats.reconciles += 1
        if self.reconcile_mode is ReconcileMode.EVICT_ALL:
            self._drop(self._store.current_version(self.metastore_id))
            self._policy = type(self._policy)()
            return
        snapshot = self._store.snapshot(self.metastore_id)
        changed: dict[str, set[str]] = {}
        for c in self._store.changes_since(self.metastore_id, self.known_version):
            if c.table in _CACHED_TABLES and c.version <= snapshot.version:
                changed.setdefault(c.table, set()).add(c.key)
        ops = []
        for table in sorted(changed):  # one batched read per touched table
            keys = sorted(changed[table])
            fetched = snapshot.multi_get(table, keys)
            ops += [WriteOp(table, key, fetched.get(key)) for key in keys]
        self._install(snapshot.version, ops)
        self.stats.selective_invalidations += len(ops)
        self.known_version = snapshot.version

    def _fill(self, snapshot: Snapshot, table: str) -> bool:
        """Copy a table (for the tree index, the entities) whole from a DB
        snapshot at the known version; True if the copy now holds it."""
        source = Tables.ENTITIES if table == TREE_INDEX else table
        if source not in _CACHED_TABLES:
            return False
        self._since[source] = snapshot.version  # first: an eviction clears it
        if source == Tables.ENTITIES:
            self._since.setdefault(TREE_INDEX, snapshot.version)
        self._install(snapshot.version, [WriteOp(source, k, v) for k, v in snapshot.scan(source)])
        return table in self._since

    def _install(self, version: int, ops: list[WriteOp]) -> None:
        """Install the cached tables' ops at ``version``; move paths, evict to the cap."""
        ops = [op for op in ops if op.table in _CACHED_TABLES]
        if self._local.install(self.metastore_id, version, ops) and TREE_INDEX in self._since:
            self._since[TREE_INDEX] = version  # a slot left: older snapshots read the DB's
        if not self._installs or self._installs[-1][1] != version:
            self._installs.append((self._clock.now(), version))
        paths = {}
        for op in ops:
            if op.table == Tables.ENTITIES:
                paths[op.key] = governed_path(op.value)
                track = self._policy.forget if op.value is None else self._policy.record_access
                track(op.key)
        try:
            if self._trie is not None:
                self._trie.move(paths)
        except PathConflictError:
            self._trie = None  # overlapping paths committed: scan instead
        while self._max_entities is not None and len(self._policy) > self._max_entities:
            victim = self._policy.victim()
            self._policy.forget(victim)
            self._since.pop(Tables.ENTITIES, None)
            self._local.drop_row(self.metastore_id, Tables.ENTITIES, victim)
            self.stats.evictions += 1

    def _prune(self) -> None:
        """At most once per request timeout, compact the copy up to the newest
        version installed a timeout ago: no request can be pinned before it."""
        now = self._clock.now()
        if now - self._pruned_at < self._timeout:
            return
        self._pruned_at, floor = now, None
        while self._installs and now - self._installs[0][0] >= self._timeout:
            floor = self._installs.popleft()[1]
        if floor is not None:
            self.stats.version_prunes += self._local.compact(self.metastore_id, floor)
            # a compacted key may start at the floor: older reads go through
            self._since = {table: max(since, floor) for table, since in self._since.items()}

    def _whole(self, table: str, snapshot: _NodeSnapshot) -> bool:
        """Whether the snapshot's copy is still the node's and holds ``table`` whole."""
        return snapshot.copy is self._local and self._since.get(table, _NEVER) <= snapshot.version

    def _rows(self, table: str, keys: list[str], snapshot: _NodeSnapshot,
              fetch: Callable[[Snapshot, list[str]], dict]) -> dict[str, dict]:
        """Point reads: the copy where authoritative, one DB ``fetch`` for the rest."""
        at = snapshot.version
        with self._lock:
            # a key the copy never held is absent if it holds the table whole
            absent = None if self._whole(table, snapshot) else _UNKNOWN
            values, missing = {}, []
            for key in keys:
                value = values[key] = snapshot.local.get(table, key, absent)
                if value is _UNKNOWN:
                    missing.append(key)
                elif value is not None and table == Tables.ENTITIES:
                    self._policy.record_access(key)
            self.stats.hits += len(values) - len(missing)
            if missing:
                self.stats.misses += 1
                fetched = fetch(self._store.snapshot(self.metastore_id, at), missing)
                values.update((key, fetched.get(key)) for key in missing)
                if at == self.known_version:
                    self._install(at, [WriteOp(table, k, v) for k, v in fetched.items()
                                       if v is not None])
            return {key: value for key, value in values.items() if value is not None}

    def _read(self, table: str, snapshot: _NodeSnapshot, read: Callable[[Snapshot], Any]) -> Any:
        """A scan or range read: the copy where it holds the table, or after
        one DB scan fills it at the known version; else the DB."""
        with self._lock:
            if self._whole(table, snapshot):
                self.stats.hits += 1
                return read(snapshot.local)
            self.stats.misses += 1
            db = self._store.snapshot(self.metastore_id, snapshot.version)
            if snapshot.version == self.known_version and self._fill(db, table):
                return read(self._local.snapshot(self.metastore_id))
            return read(db)

    def _path_read(self, snapshot: _NodeSnapshot, read: Callable[[PathTrie], Any]) -> Any:
        """A path read: the node's trie at the known version, else the snapshot's scan."""
        with self._lock:
            if (self._trie is not None and snapshot.version == self.known_version
                    and self._whole(TREE_INDEX, snapshot)):
                return read(self._trie)
        return read(snapshot._path_trie())


class _NodeSnapshot(Snapshot):
    """A node's snapshot: its copy (kept if the node drops it) where authoritative, else the DB."""

    def __init__(self, node: MetastoreCacheNode, copy: InMemoryMetadataStore, local: Snapshot):
        super().__init__(node.metastore_id, local.version)
        self._node, self.copy, self.local = node, copy, local

    def get(self, table: str, key: str) -> Optional[dict]:
        return self._node._rows(table, [key], self,
                                lambda s, _: {key: s.get(table, key)}).get(key)

    def multi_get(self, table: str, keys: list[str]) -> dict[str, dict]:
        return self._node._rows(table, keys, self,
                                lambda s, missing: s.multi_get(table, missing))

    def scan(self, table: str):
        return self._node._read(table, self, lambda s: s.scan(table))

    def scan_range(self, table: str, start: str, end: Optional[str]):
        return self._node._read(table, self, lambda s: s.scan_range(table, start, end))

    def children_ids(self, parent_id, kind=None, include_deleted=False) -> list[str]:
        source = self._node._store.snapshot(self.metastore_id, self.version) \
            if include_deleted else super()  # the copy indexes live slots only
        return source.children_ids(parent_id, kind, include_deleted)

    def path_owner(self, path: StoragePath) -> Optional[str]:
        return self._node._path_read(self, lambda trie: trie.resolve(path))

    def overlapping_paths(self, path: StoragePath) -> list[str]:
        return self._node._path_read(self, lambda trie: trie.find_overlapping(path))
