"""The read view over one metastore's metadata.

One class serves every read path: :class:`SnapshotView` over a
:class:`~repro.core.persistence.store.Snapshot`. With caching on, that
snapshot is the cache node's (its local copy where that copy holds the
version, the backing store elsewhere); with caching off, a store or
branch snapshot. So the service, the authorizer and the batch resolver
are oblivious to whether a request is served from the write-through
cache or straight from the backing store — the paper's layering, where
"caching [is] fully implemented within the persistence layer, as long as
consistency guarantees are maintained".
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.cloudstore.object_store import StoragePath
from repro.core.auth.privileges import PrivilegeGrant
from repro.core.model.entity import Entity, SecurableKind
from repro.core.persistence.store import Snapshot, Tables

#: a memo miss, as distinct from a memoized ``None``
_UNREAD = object()


class SnapshotView:
    """A consistent read view over one metastore at one version: the
    snapshot it wraps, each row read once.

    Name resolution and listing are range reads over the store's tree
    index, so a lookup reads the rows it needs, not the whole metastore.

    Within its lifetime a view keeps what it has read: each decoded
    entity (``None`` for an absent or inactive id), each securable's
    grants and each auxiliary row (misses too). The snapshot is pinned at
    one version, so the memo is never stale and needs no invalidation;
    the kernel builds a view per request and never keeps it, so the memo
    holds at most the rows one request touches.
    """

    #: branch key (``catalog@branch``) when the view reads a branch's
    #: overlay; None on the trunk. Set by the kernel's view constructor.
    branch: Optional[str] = None

    def __init__(self, snapshot: Snapshot, registry):
        self._snapshot = snapshot
        self._registry = registry
        self._entities: dict[str, Optional[Entity]] = {}
        self._grants: dict[str, list[PrivilegeGrant]] = {}
        #: auxiliary rows, read one by one or by prefetch_rows
        self._rows: dict[tuple[str, str], Optional[dict]] = {}

    @property
    def version(self) -> int:
        """The metastore version this view observes."""
        return self._snapshot.version

    def _remember(self, entity_id: str, value: Optional[dict]) -> Optional[Entity]:
        """The entity of one row read at this view's version, decoded once
        (``None`` for an absent or inactive one)."""
        entity = self._entities.get(entity_id, _UNREAD)
        if entity is _UNREAD:
            entity = None if value is None else Entity.from_dict(value)
            if entity is not None and not entity.is_active:
                entity = None
            self._entities[entity_id] = entity
        return entity

    def entity_by_id(self, entity_id: str) -> Optional[Entity]:
        """Look up an active entity by id."""
        entity = self._entities.get(entity_id, _UNREAD)
        if entity is _UNREAD:
            entity = self._remember(
                entity_id, self._snapshot.get(Tables.ENTITIES, entity_id))
        return entity

    def entity_by_name(
        self, parent_id: Optional[str], namespace_group: str, name: str
    ) -> Optional[Entity]:
        """Look up an active entity by (parent, namespace group, name):
        one point-range read per kind sharing the namespace group."""
        for manifest in self._registry:
            if manifest.namespace_group != namespace_group:
                continue
            child = self._snapshot.child_id(parent_id, manifest.kind.value, name)
            if child is not None:
                return self.entity_by_id(child)
        return None

    def children(
        self, parent_id: str, kind: Optional[SecurableKind] = None
    ) -> list[Entity]:
        """Active direct children of a container, optionally by kind."""
        child_ids = self._snapshot.children_ids(
            parent_id, kind.value if kind is not None else None
        )
        rows = self._snapshot.multi_get(Tables.ENTITIES, child_ids)
        return [
            entity
            for entity in (self._remember(k, v) for k, v in rows.items())
            if entity is not None
        ]

    def entities(self, kind: Optional[SecurableKind] = None) -> Iterator[Entity]:
        """All active entities, optionally filtered by kind."""
        for _, value in self._snapshot.scan(Tables.ENTITIES):
            entity = Entity.from_dict(value)
            if entity.is_active and (kind is None or entity.kind is kind):
                yield entity

    def resolve_path(self, path: StoragePath) -> Optional[Entity]:
        """The active entity governing ``path`` (one-asset-per-path)."""
        asset_id = self._snapshot.path_owner(path)
        return self.entity_by_id(asset_id) if asset_id else None

    def overlapping_assets(self, path: StoragePath) -> list[str]:
        """Asset ids whose storage paths overlap ``path``."""
        return self._snapshot.overlapping_paths(path)

    def grants_on(self, securable_id: str) -> list[PrivilegeGrant]:
        """Direct grants on one securable."""
        grants = self._grants.get(securable_id)
        if grants is None:
            # one range read: grant keys start with the securable id
            grants = self._grants[securable_id] = [
                PrivilegeGrant.from_dict(value)
                for _, value in self._snapshot.scan_prefix(
                    Tables.GRANTS, f"{securable_id}/"
                )
            ]
        return list(grants)  # the caller's own list; the memo stays as read

    def prefetch_rows(self, table: str, keys: list[str]) -> None:
        """Read the rows ``row`` will soon be asked for in one batch."""
        missing = [k for k in keys if (table, k) not in self._rows]
        if not missing:
            return
        fetched = self._snapshot.multi_get(table, missing)
        for key in missing:
            self._rows[(table, key)] = fetched.get(key)

    def row(self, table: str, key: str) -> Optional[dict]:
        """Raw row access for auxiliary tables (tags, policies, commits)."""
        value = self._rows.get((table, key), _UNREAD)
        if value is _UNREAD:
            value = self._rows[(table, key)] = self._snapshot.get(table, key)
        return value

    def rows(self, table: str) -> Iterator[tuple[str, dict]]:
        """Raw scan of an auxiliary table."""
        return self._snapshot.scan(table)

    def ancestors(self, entity: Entity) -> list[Entity]:
        """Parent chain from direct parent up to (excluding) the metastore."""
        chain: list[Entity] = []
        current = entity
        while current.parent_id is not None:
            parent = self.entity_by_id(current.parent_id)
            if parent is None:
                break
            chain.append(parent)
            current = parent
        return chain

    def full_name(self, entity: Entity) -> str:
        """Fully qualified dotted name of an entity."""
        names = [entity.name]
        for ancestor in self.ancestors(entity):
            if ancestor.kind is not SecurableKind.METASTORE:
                names.append(ancestor.name)
        return ".".join(reversed(names))


#: the name the layers above annotate reads with: the one view class
MetastoreView = SnapshotView
