"""The metadata-store contract every backend implements."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.cloudstore.object_store import StoragePath
from repro.core.frozen import FrozenRow, freeze
from repro.core.paths import PathTrie, governed_path
from repro.errors import NotFoundError


class Tables:
    """Logical tables in the metadata store.

    Everything the catalog persists is a row ``(table, key) -> dict`` with
    MVCC versions; the higher layers never see backend details (paper:
    "the data model is persisted in a standard relational database with
    the implementation detail hidden from the layers above").
    """

    ENTITIES = "entities"
    GRANTS = "grants"
    TAGS = "tags"
    POLICIES = "policies"          # FGAC row filters / column masks, ABAC rules
    COMMITS = "commits"            # catalog-owned table commit pointers
    SHARES = "share_bindings"      # share -> asset membership rows
    #: branch refs for the commit DAG (see ``persistence.branching``);
    #: reserved name so it never collides with a legacy table
    BRANCHES = "__branches__"


@dataclass(frozen=True)
class WriteOp:
    """One mutation inside a serializable commit. ``value=None`` deletes.

    :meth:`put` freezes its value (:func:`~repro.core.frozen.freeze`), so
    the row a writer builds is the one object the store, the cache node
    and the replica log all hold from then on.
    """

    table: str
    key: str
    value: Optional[dict[str, Any]]

    @classmethod
    def put(cls, table: str, key: str, value: dict[str, Any]) -> "WriteOp":
        return cls(table=table, key=key, value=freeze(value))

    @classmethod
    def delete(cls, table: str, key: str) -> "WriteOp":
        return cls(table=table, key=key, value=None)


@dataclass(frozen=True)
class ChangeRecord:
    """A change-log entry: which row changed at which metastore version.

    This feeds both the metadata change-event stream (discovery catalogs,
    section 4.4) and the cache's selective invalidation (section 4.5).
    """

    version: int
    table: str
    key: str
    deleted: bool


def prefix_end(prefix: str) -> Optional[str]:
    """Exclusive upper bound of the keys under ``prefix`` (None: unbounded)."""
    return prefix + "\uffff" if prefix else None


# -- the tree index (TreeCat, PAPERS.md) -----------------------------------------
#
# Each commit derives, from its entity ops, index rows mapping
#
#     ``parent_id ␟ kind ␟ name ␟ entity_id  ->  {"id", "state"}``
#
# and writes them at the commit's version, so they time-travel with the
# entities they index. The rows are derived state: they stay out of the
# change log, and a replica regenerates them through its own commit.

#: internal table holding the tree-index rows (never in ``Tables``)
TREE_INDEX = "__tree_index__"

#: key-segment separator: sorts below every printable character, so the
#: sorted key order groups a parent's slots before any longer sibling key
_SEP = "\x1f"


def index_prefix(
    parent_id: Optional[str], kind: Optional[str] = None, name: Optional[str] = None
) -> str:
    """Key prefix of the index rows under ``parent_id`` (and ``kind``,
    and ``name``). ``parent_id=None`` (the metastore root) maps to the
    empty segment; a None ``kind``/``name`` is left out."""
    segments = [parent_id or ""] + [s for s in (kind, name) if s is not None]
    return _SEP.join(segments) + _SEP


def index_row(value: Optional[dict[str, Any]]) -> Optional[tuple[str, dict]]:
    """The index row ``(key, {"id", "state"})`` an entity row occupies.

    The entity id rides in the key so a soft-deleted entity and its
    recreated namesake coexist. Deleted rows and rows without the entity
    shape (raw contract tests, foreign payloads) occupy none.
    """
    if value is None or not {"id", "kind", "name"} <= value.keys():
        return None
    key = index_prefix(value.get("parent_id"), value["kind"], value["name"])
    return key + value["id"], FrozenRow(
        id=value["id"], state=value.get("state", "ACTIVE"),
    )


#: the fields an entity row's index slot derives from (``index_row``)
_SLOT_FIELDS = ("id", "kind", "name", "parent_id", "state")
_ABSENT = object()


def tree_index_rows(
    ops: Iterable[WriteOp], previous: Callable[[str], Optional[dict[str, Any]]]
) -> list[tuple[str, str, Optional[dict]]]:
    """``(TREE_INDEX, key, value-or-None)`` rows implied by a batch's
    entity writes.

    For every entity op: tombstone the index slot the entity's previous
    version occupied (if the slot moved — rename, reparent, hard delete)
    and write the slot its new version occupies, unless the slot and its
    state are unchanged (a comment or spec edit writes no index row: the
    earlier identical version stays visible, and neither slot is built).
    ``previous(key)`` reads an entity's pre-commit row; earlier ops in
    the same batch take precedence over it.
    """
    rows: list[tuple[str, str, Optional[dict]]] = []
    pending: dict[str, Optional[dict[str, Any]]] = {}
    for op in ops:
        if op.table != Tables.ENTITIES:
            continue
        before = pending[op.key] if op.key in pending else previous(op.key)
        pending[op.key] = op.value
        if before is not None and op.value is not None and all(
                before.get(f, _ABSENT) == op.value.get(f, _ABSENT) for f in _SLOT_FIELDS):
            continue  # same slot fields, each present in both or neither
        old, new = index_row(before), index_row(op.value)
        if old is not None and (new is None or old[0] != new[0]):
            rows.append((TREE_INDEX, old[0], None))
        if new is not None and new != old:
            rows.append((TREE_INDEX, new[0], new[1]))
    return rows


class Snapshot(abc.ABC):
    """A consistent read view of one metastore, pinned at a version.

    All reads through a snapshot observe exactly the rows committed at or
    before ``version`` — the paper's metastore-granularity snapshot
    isolation.
    """

    def __init__(self, metastore_id: str, version: int):
        self.metastore_id = metastore_id
        self.version = version
        self._trie: Optional[PathTrie] = None

    @abc.abstractmethod
    def get(self, table: str, key: str) -> Optional[dict[str, Any]]:
        """Read one row, or None if absent/deleted as of this snapshot."""

    @abc.abstractmethod
    def scan(self, table: str) -> Iterator[tuple[str, dict[str, Any]]]:
        """Iterate all live rows of a table as of this snapshot."""

    def multi_get(self, table: str, keys: list[str]) -> dict[str, dict[str, Any]]:
        """Read many rows in one round trip; absent/deleted keys are omitted.

        The point of the batched contract is the hot path: the cache
        node's selective reconcile and the resolver's dependency closure
        issue one ``multi_get`` where they used to issue N ``get``s, and
        the latency model charges them one round trip. Backends override
        this with a genuinely batched implementation; the default
        preserves the semantics for simple backends.
        """
        out: dict[str, dict[str, Any]] = {}
        for key in keys:
            value = self.get(table, key)
            if value is not None:
                out[key] = value
        return out

    # -- range reads (TreeCat-style prefix-ordered access) -------------------

    def scan_prefix(
        self, table: str, prefix: str
    ) -> Iterator[tuple[str, dict[str, Any]]]:
        """Live rows whose key starts with ``prefix``, ascending key order.

        The range ``[prefix, prefix_end(prefix))`` of :meth:`scan_range`.
        """
        return self.scan_range(table, prefix, prefix_end(prefix))

    def scan_range(
        self, table: str, start: str, end: Optional[str]
    ) -> Iterator[tuple[str, dict[str, Any]]]:
        """Live rows with ``start <= key < end``, ascending key order.

        ``end=None`` means unbounded. Every backend overrides this with
        a range read over its ordered keys; the default, a filtered full
        scan, serves only test doubles that implement ``scan`` alone.
        """
        matched = [
            kv for kv in self.scan(table)
            if kv[0] >= start and (end is None or kv[0] < end)
        ]
        matched.sort(key=lambda kv: kv[0])
        return iter(matched)

    def count(self, table: str, prefix: str = "") -> int:
        """Number of live rows (optionally under a key prefix).

        Backends override with a counting read that skips row
        materialization entirely; the default walks the scan.
        """
        if prefix:
            return sum(1 for _ in self.scan_prefix(table, prefix))
        return sum(1 for _ in self.scan(table))

    # -- tree-index reads -------------------------------------------------------
    #
    # Every backend derives the tree index in its commit, so each of these
    # is one range read over it (a branch snapshot overrides
    # ``_index_entries`` to correct its base's index by the overlay).

    def _index_entries(
        self, parent_id: Optional[str], kind: Optional[str] = None,
        name: Optional[str] = None,
    ) -> list[dict[str, Any]]:
        """Live index values under one ``(parent, kind, name)`` prefix, in
        key order: one range read, charged for the keys it touches."""
        prefix = index_prefix(parent_id, kind, name)
        return [value for _, value in self.scan_prefix(TREE_INDEX, prefix)]

    def child_id(self, parent_id: str, kind: str, name: str) -> Optional[str]:
        """Id of the ACTIVE entity ``(parent_id, kind, name)``, or None."""
        for entry in self._index_entries(parent_id, kind, name):
            if entry["state"] == "ACTIVE":
                return entry["id"]
        return None

    def children_ids(
        self,
        parent_id: str,
        kind: Optional[str] = None,
        include_deleted: bool = False,
    ) -> list[str]:
        """Entity ids of ``parent_id``'s direct children, in
        ``(kind, name, id)`` order.

        ``include_deleted`` also returns soft-deleted/provisioning
        children — subtree exports need every row, not just the visible
        namespace.
        """
        return [
            entry["id"]
            for entry in self._index_entries(parent_id, kind)
            if include_deleted or entry["state"] == "ACTIVE"
        ]

    def count_children(self, parent_id: str, kind: Optional[str] = None) -> int:
        """Number of ACTIVE direct children (of ``kind``, if given)."""
        return sum(
            1 for entry in self._index_entries(parent_id, kind)
            if entry["state"] == "ACTIVE"
        )

    # -- path reads (the one-asset-per-path trie) --------------------------------

    def _path_trie(self) -> PathTrie:
        """The trie of the asset paths live at this snapshot: one entity
        scan, the first time a path read needs it (snapshots are
        immutable)."""
        if self._trie is None:
            trie = PathTrie()
            for key, value in self.scan(Tables.ENTITIES):
                path = governed_path(value)
                if path is not None:
                    trie.register(path, key)
            self._trie = trie
        return self._trie

    def path_owner(self, path: StoragePath) -> Optional[str]:
        """Id of the asset whose storage path equals or contains ``path``."""
        return self._path_trie().resolve(path)

    def overlapping_paths(self, path: StoragePath) -> list[str]:
        """Ids of the assets whose storage paths overlap ``path``."""
        return self._path_trie().find_overlapping(path)


class MetadataStore(abc.ABC):
    """Backend contract: versioned per-metastore row storage.

    Writes are serializable at metastore granularity: ``commit`` atomically
    applies a batch of ops and bumps the metastore version, conditioned on
    the caller's expected version (compare-and-swap). A failed CAS raises
    :class:`~repro.errors.ConcurrentModificationError` and the caller
    (typically a cache node) must reconcile and retry.

    Every backend counts its read work in ``read_count`` (snapshot
    opens), ``multi_get_count``, ``range_scan_count`` and
    ``scan_row_count`` (rows examined); QoS admission and the benches
    charge from them.
    """

    #: row versions the store keeps decoded beside their stored form: 0
    #: on a backend whose stored rows are the objects its reads return
    decoded_rows = 0

    @abc.abstractmethod
    def create_metastore_slot(self, metastore_id: str) -> None:
        """Initialize version tracking for a new metastore (version 0)."""

    @abc.abstractmethod
    def metastore_ids(self) -> list[str]:
        """All metastore slots known to the store."""

    def metastore_name(self, metastore_id: str) -> Optional[str]:
        """The name on a slot's METASTORE root row: ``None`` for an
        unknown slot or one whose root row is not committed yet. The
        root row is what makes a slot a metastore."""
        try:
            root = self.snapshot(metastore_id).get(Tables.ENTITIES, metastore_id)
        except NotFoundError:
            return None
        if root is None or root.get("kind") != "METASTORE":
            return None
        return root["name"]

    @abc.abstractmethod
    def current_version(self, metastore_id: str) -> int:
        """The latest committed metastore version."""

    @abc.abstractmethod
    def snapshot(self, metastore_id: str, at_version: Optional[int] = None) -> Snapshot:
        """Open a snapshot at the current (or a specific past) version."""

    @abc.abstractmethod
    def commit(
        self,
        metastore_id: str,
        expected_version: int,
        ops: list[WriteOp],
    ) -> int:
        """Atomically apply ``ops`` if the version CAS succeeds.

        Returns the new metastore version (``expected_version + 1``).
        """

    @abc.abstractmethod
    def changes_since(self, metastore_id: str, from_version: int) -> list[ChangeRecord]:
        """Change-log entries with version > ``from_version``, in order."""

    @abc.abstractmethod
    def compact(self, metastore_id: str, min_version: int) -> int:
        """Drop row versions not visible at or after ``min_version``.

        Returns the number of row versions removed. Backends keep at least
        the newest version of every live row.
        """
