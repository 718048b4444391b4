"""Entities: the single representation for every securable in the catalog.

The paper's entity-relationship model abstracts "common functionality
across asset types" (namespaces, lookup by name/id/path, parent-child
relationships, lifecycle state) into one generic structure; type-specific
attributes live in an open ``spec`` mapping validated by the asset type's
manifest.
"""

from __future__ import annotations

import enum
import uuid
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro.core.frozen import FrozenRow, freeze, memoized, thaw

#: the spec/properties of a frozen row that has none
_NO_MAP = FrozenRow()


class SecurableKind(enum.Enum):
    """Every kind of securable the catalog manages.

    Containers (metastore/catalog/schema) and configuration securables
    (credentials, locations, connections, shares, recipients) are
    securables just like data/AI assets — the privilege model treats them
    uniformly (paper section 3.3).
    """

    METASTORE = "METASTORE"
    CATALOG = "CATALOG"
    SCHEMA = "SCHEMA"
    TABLE = "TABLE"
    VOLUME = "VOLUME"
    FUNCTION = "FUNCTION"
    REGISTERED_MODEL = "REGISTERED_MODEL"
    MODEL_VERSION = "MODEL_VERSION"
    STORAGE_CREDENTIAL = "STORAGE_CREDENTIAL"
    EXTERNAL_LOCATION = "EXTERNAL_LOCATION"
    CONNECTION = "CONNECTION"
    SHARE = "SHARE"
    RECIPIENT = "RECIPIENT"

    @property
    def is_container(self) -> bool:
        return self in (SecurableKind.CATALOG, SecurableKind.SCHEMA)

    @property
    def is_metastore_root(self) -> bool:
        """Kinds that live directly under the metastore (not in a schema)."""
        return self in (
            SecurableKind.CATALOG,
            SecurableKind.STORAGE_CREDENTIAL,
            SecurableKind.EXTERNAL_LOCATION,
            SecurableKind.CONNECTION,
            SecurableKind.SHARE,
            SecurableKind.RECIPIENT,
        )


class EntityState(enum.Enum):
    """Lifecycle states (paper section 4.2.1: soft deletion + GC).

    ``ACTIVE`` entities are visible; ``DELETED`` entities are soft-deleted
    and invisible to reads but retained until the garbage collector purges
    them (releasing managed storage).
    """

    PROVISIONING = "PROVISIONING"
    ACTIVE = "ACTIVE"
    DELETED = "DELETED"


def new_entity_id() -> str:
    """Mint a globally unique entity id."""
    return uuid.uuid4().hex


@dataclass(frozen=True)
class Entity:
    """One securable. Immutable: updates produce new instances.

    Immutability is what makes the multi-version cache safe — a cached
    ``Entity`` can be handed to concurrent readers without copying. One
    decoded from a frozen row is built once per row version and shares
    that row's (frozen) ``spec`` and ``properties``.
    """

    id: str
    kind: SecurableKind
    name: str
    metastore_id: str
    parent_id: Optional[str]
    owner: str
    created_at: float
    updated_at: float
    state: EntityState = EntityState.ACTIVE
    comment: str = ""
    storage_path: Optional[str] = None
    properties: dict[str, Any] = field(default_factory=dict)
    spec: dict[str, Any] = field(default_factory=dict)
    deleted_at: Optional[float] = None

    def with_updates(self, *, updated_at: float, **changes: Any) -> "Entity":
        """Return a copy with ``changes`` applied and timestamp bumped."""
        return replace(self, updated_at=updated_at, **changes)

    def soft_deleted(self, at: float) -> "Entity":
        return replace(self, state=EntityState.DELETED, deleted_at=at, updated_at=at)

    @property
    def is_active(self) -> bool:
        return self.state is EntityState.ACTIVE

    def _fields(self, properties: dict[str, Any], spec: dict[str, Any]) -> dict[str, Any]:
        return {
            "id": self.id,
            "kind": self.kind.value,
            "name": self.name,
            "metastore_id": self.metastore_id,
            "parent_id": self.parent_id,
            "owner": self.owner,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
            "state": self.state.value,
            "comment": self.comment,
            "storage_path": self.storage_path,
            "properties": properties,
            "spec": spec,
            "deleted_at": self.deleted_at,
        }

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly rendering used by the REST layer: plain dicts and
        lists, the JSON encoder's fast path. The top level, ``spec`` and
        ``properties`` are fresh dicts; the values inside ``spec`` come
        from :attr:`plain_spec` and are shared (read-only)."""
        return self._fields(dict(self.properties), dict(self.plain_spec))

    def to_row(self) -> FrozenRow:
        """The stored row of this entity (what ``WriteOp.put`` takes): a
        frozen ``spec`` or ``properties`` is shared, not copied."""
        return freeze(self._fields(self.properties, self.spec))

    @property
    def plain_spec(self) -> dict[str, Any]:
        """``spec`` as plain dicts and lists, for rendering: the JSON
        encoder takes a slower path for every dict or list subclass. A
        frozen spec is thawed once and the copy kept in its memo, so each
        spec object (shared by the versions that did not change it) is
        copied on its first rendering only. Shared: read-only."""
        spec = self.spec
        return memoized(spec, thaw) if type(spec) is FrozenRow else spec

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Entity":
        """Decode a row. A :class:`~repro.core.frozen.FrozenRow` is decoded
        once: the ``Entity`` is kept in the row's memo and every later
        call returns it. A plain dict decodes afresh each time, into
        copies of its ``spec`` and ``properties``."""
        if type(data) is FrozenRow:
            return memoized(data, _decode_frozen)
        return cls._decode(data, dict(data.get("properties", {})),
                           dict(data.get("spec", {})))

    @classmethod
    def _decode(
        cls, data: dict[str, Any], properties: dict[str, Any], spec: dict[str, Any]
    ) -> "Entity":
        return cls(
            id=data["id"],
            kind=SecurableKind(data["kind"]),
            name=data["name"],
            metastore_id=data["metastore_id"],
            parent_id=data.get("parent_id"),
            owner=data["owner"],
            created_at=data["created_at"],
            updated_at=data["updated_at"],
            state=EntityState(data.get("state", "ACTIVE")),
            comment=data.get("comment", ""),
            storage_path=data.get("storage_path"),
            properties=properties,
            spec=spec,
            deleted_at=data.get("deleted_at"),
        )


def _decode_frozen(row: FrozenRow) -> Entity:
    # a frozen row's own spec and properties are shared, not copied
    return Entity._decode(
        row, row.get("properties", _NO_MAP), row.get("spec", _NO_MAP)
    )
