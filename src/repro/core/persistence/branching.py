"""Commit-DAG branching over the MVCC metadata store.

The store's history was a single line: one integer head per metastore,
every commit CASing it forward. This module generalizes that into a
commit DAG with *named branch refs*, implemented once against the public
:class:`~repro.core.persistence.store.MetadataStore` contract so all
three backends (memory / SQLite / treecat) support branching without a
line of backend-specific code:

* **Branch refs** live in a reserved table (:data:`BRANCHES_TABLE`),
  keyed ``{catalog}@{branch}``. A ref records the *fork version* (the
  main-history version the branch sees as its base), the branch's own
  *head version* (the global store version of its latest commit), and
  its parent branch — the commit-DAG edges.
* **Zero-copy forks**: creating a branch writes exactly one ref row.
  No rows are copied; the branch overlays branch-local MVCC rows (in
  per-branch overlay tables, ``{table}@{catalog}@{branch}``) on the
  shared base prefix, pinned at the fork version.
* **Copy-on-write commits**: :func:`commit_to_branch` rewrites a write
  batch into the branch's overlay tables — stamping every write with
  its branch — and bumps the ref's head, all in one atomic CAS commit
  against the same global version counter. Branch and main commits
  therefore serialize through the identical mechanism (and, on a
  replica group, replicate and fence through the identical mechanism).
* **Fall-through reads**: :class:`BranchSnapshot` resolves a row at
  ``(branch, version)`` by checking the overlay first (a branch-local
  tombstone hides the base row) and falling through to the base
  snapshot pinned at the fork point. Range reads merge the overlay's
  range with the base's, and the tree-index primitives answer from the
  base's index at the fork version, corrected by the branch's own
  entity rows — so a branch read costs what a trunk read costs plus
  O(branch writes), never a full scan.

``main`` is not a ref row — it is the store's plain linear history, and
single-branch operation takes exactly the legacy code paths (no overlay
tables, no ref reads: a strict no-op).

Deletes need care: ``Snapshot.get`` returns ``None`` for both "never
written" and "MVCC-deleted", which cannot express "deleted *on this
branch* but alive on the base". Branch deletes are therefore sentinel
puts (:data:`TOMBSTONE_MARKER`), so the overlay distinguishes "no
branch-local opinion" (fall through) from "deleted here" (hide).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional

from repro.core.persistence.store import (
    TREE_INDEX,
    ChangeRecord,
    MetadataStore,
    Snapshot,
    Tables,
    WriteOp,
    index_prefix,
    index_row,
)
from repro.errors import AlreadyExistsError, InvalidRequestError, NotFoundError

#: The default branch: the store's plain linear history. Never a ref row.
MAIN_BRANCH = "main"

#: Reserved table holding branch refs; the leading underscores keep it
#: out of every legacy table namespace.
BRANCHES_TABLE = Tables.BRANCHES

#: Separator in branch keys (``catalog@branch``) and overlay table names
#: (``entities@catalog@branch``). Base table and catalog names never
#: contain ``@``.
BRANCH_SEP = "@"

#: Sentinel marking a branch-local delete (see module docstring).
TOMBSTONE_MARKER = "__branch_tombstone__"

#: The base tables a branch can overlay (everything the catalog persists).
BASE_TABLES = (
    Tables.ENTITIES,
    Tables.GRANTS,
    Tables.TAGS,
    Tables.POLICIES,
    Tables.COMMITS,
    Tables.SHARES,
)

_MAX_REF_CAS_RETRIES = 8


# ---------------------------------------------------------------------------
# naming helpers
# ---------------------------------------------------------------------------


def branch_key(catalog: str, branch: str) -> str:
    """The ref key of ``branch`` forked under ``catalog``."""
    return f"{catalog}{BRANCH_SEP}{branch}"


def split_branch_key(bkey: str) -> tuple[str, str]:
    """``catalog@branch`` -> ``(catalog, branch)``."""
    catalog, sep, branch = bkey.partition(BRANCH_SEP)
    if not sep or not catalog or not branch:
        raise InvalidRequestError(f"malformed branch key: {bkey!r}")
    return catalog, branch


def validate_branch_name(branch: str) -> None:
    """Branch names share the securable-name alphabet minus separators."""
    if not branch or any(c in branch for c in (BRANCH_SEP, ".", "/", " ")):
        raise InvalidRequestError(f"invalid branch name: {branch!r}")
    if branch == MAIN_BRANCH:
        raise InvalidRequestError(f"{MAIN_BRANCH!r} is the implicit trunk")


def overlay_table(table: str, bkey: str) -> str:
    """The branch-local overlay table shadowing ``table`` on ``bkey``."""
    return f"{table}{BRANCH_SEP}{bkey}"


def split_overlay_table(table: str) -> Optional[tuple[str, str]]:
    """``entities@cat@dev`` -> ``("entities", "cat@dev")``; None otherwise."""
    base, sep, rest = table.partition(BRANCH_SEP)
    if not sep or BRANCH_SEP not in rest:
        return None
    return base, rest


def is_branch_table(table: str) -> bool:
    """True for overlay tables and the ref table — everything the
    single-branch (main) read path must never observe."""
    return BRANCH_SEP in table or table == BRANCHES_TABLE


def is_tombstone(value: Optional[dict[str, Any]]) -> bool:
    return isinstance(value, dict) and value.get(TOMBSTONE_MARKER) is True


def tombstone() -> dict[str, Any]:
    return {TOMBSTONE_MARKER: True}


# ---------------------------------------------------------------------------
# branch refs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BranchRef:
    """One edge of the commit DAG: a named branch and where it forked."""

    catalog: str
    branch: str
    fork_version: int
    head_version: int
    parent: str = MAIN_BRANCH
    created_at: float = 0.0

    @property
    def key(self) -> str:
        return branch_key(self.catalog, self.branch)

    def to_dict(self) -> dict[str, Any]:
        return {
            "catalog": self.catalog,
            "branch": self.branch,
            "fork_version": self.fork_version,
            "head_version": self.head_version,
            "parent": self.parent,
            "created_at": self.created_at,
        }

    @classmethod
    def from_dict(cls, value: dict[str, Any]) -> "BranchRef":
        return cls(
            catalog=value["catalog"],
            branch=value["branch"],
            fork_version=value["fork_version"],
            head_version=value["head_version"],
            parent=value.get("parent", MAIN_BRANCH),
            created_at=value.get("created_at", 0.0),
        )


def read_ref(snapshot: Snapshot, bkey: str) -> Optional[BranchRef]:
    value = snapshot.get(BRANCHES_TABLE, bkey)
    return BranchRef.from_dict(value) if value is not None else None


def require_ref(snapshot: Snapshot, bkey: str) -> BranchRef:
    ref = read_ref(snapshot, bkey)
    if ref is None:
        raise NotFoundError(f"no such branch: {bkey}")
    return ref


def list_refs(snapshot: Snapshot, catalog: Optional[str] = None) -> list[BranchRef]:
    """All branch refs (optionally one catalog's), sorted by key."""
    refs = [BranchRef.from_dict(v) for _, v in snapshot.scan(BRANCHES_TABLE)]
    if catalog is not None:
        refs = [r for r in refs if r.catalog == catalog]
    return sorted(refs, key=lambda r: r.key)


# ---------------------------------------------------------------------------
# head resolution (THE gate for layers above persistence)
# ---------------------------------------------------------------------------


def resolve_head(
    store: MetadataStore, metastore_id: str, branch: Optional[str] = None
) -> int:
    """The head version of ``branch`` (``None``/``main`` = the trunk).

    Layers above persistence must reach a head version through this
    helper (or a kernel primitive built on it) rather than calling
    ``store.current_version`` directly — ``tools/arch_lint.py`` rule 5
    enforces it, because a raw head read silently assumes a single
    linear history.
    """
    if branch is None or branch == MAIN_BRANCH:
        return store.current_version(metastore_id)
    ref = require_ref(store.snapshot(metastore_id), branch)
    return ref.head_version


# ---------------------------------------------------------------------------
# fall-through snapshot
# ---------------------------------------------------------------------------


class BranchSnapshot(Snapshot):
    """A branch's consistent read view: overlay rows over the fork base.

    ``version`` is the *global* store version the overlay is pinned at,
    so the optimistic commit loop CASes against it exactly as on main.
    The base snapshot is pinned at the branch's fork version — main
    commits after the fork are invisible, per the commit-DAG model.
    """

    def __init__(self, base: Snapshot, overlay: Snapshot, bkey: str,
                 fork_version: int):
        super().__init__(base.metastore_id, overlay.version)
        self._base = base
        self._overlay = overlay
        self.branch = bkey
        self.fork_version = fork_version
        #: the branch's own entity rows, id -> value (None: deleted
        #: here); read once, on first use
        self._overlay_entities: Optional[dict[str, Optional[dict[str, Any]]]] = None

    def get(self, table: str, key: str) -> Optional[dict[str, Any]]:
        value = self._overlay.get(overlay_table(table, self.branch), key)
        if value is not None:
            return None if is_tombstone(value) else value
        return self._base.get(table, key)

    @staticmethod
    def _merge(base_rows, overlay_rows) -> Iterator[tuple[str, dict[str, Any]]]:
        """Overlay rows over base rows, ascending key order; an overlay
        tombstone hides the base row."""
        merged = dict(base_rows)
        for key, value in overlay_rows:
            if is_tombstone(value):
                merged.pop(key, None)
            else:
                merged[key] = value
        return iter(sorted(merged.items()))

    def scan(self, table: str) -> Iterator[tuple[str, dict[str, Any]]]:
        return self._merge(
            self._base.scan(table),
            self._overlay.scan(overlay_table(table, self.branch)),
        )

    def scan_range(
        self, table: str, start: str, end: Optional[str]
    ) -> Iterator[tuple[str, dict[str, Any]]]:
        # scan_prefix and count reach this through the Snapshot defaults
        return self._merge(
            self._base.scan_range(table, start, end),
            self._overlay.scan_range(overlay_table(table, self.branch), start, end),
        )

    def multi_get(self, table: str, keys: list[str]) -> dict[str, dict[str, Any]]:
        hits = self._overlay.multi_get(overlay_table(table, self.branch), keys)
        out: dict[str, dict[str, Any]] = {}
        missing: list[str] = []
        for key in keys:
            if key in hits:
                if not is_tombstone(hits[key]):
                    out[key] = hits[key]
            else:
                missing.append(key)
        if missing:
            out.update(self._base.multi_get(table, missing))
        return out

    def _index_entries(
        self, parent_id: Optional[str], kind: Optional[str] = None,
        name: Optional[str] = None,
    ) -> list[dict[str, Any]]:
        """The base's index range at the fork version, minus every entity
        the branch rewrote or deleted, plus the slots the branch's own
        entity rows occupy under the same prefix."""
        if self._overlay_entities is None:
            # snapshots are immutable and the overlay holds only the
            # branch's writes: one read serves every later lookup
            self._overlay_entities = {
                key: None if is_tombstone(value) else value
                for key, value in self._overlay.scan(
                    overlay_table(Tables.ENTITIES, self.branch))
            }
        overlay = self._overlay_entities
        prefix = index_prefix(parent_id, kind, name)
        entries = {
            key: value
            for key, value in self._base.scan_prefix(TREE_INDEX, prefix)
            if value["id"] not in overlay
        }
        for value in overlay.values():
            row = index_row(value)
            if row is not None and row[0].startswith(prefix):
                entries[row[0]] = row[1]
        return [entries[key] for key in sorted(entries)]


def branch_snapshot(
    store: MetadataStore,
    metastore_id: str,
    bkey: str,
    at_version: Optional[int] = None,
) -> BranchSnapshot:
    """Open a branch's read view, optionally ``AS OF`` a past version."""
    overlay = store.snapshot(metastore_id, at_version)
    ref = require_ref(overlay, bkey)
    base = store.snapshot(metastore_id, ref.fork_version)
    return BranchSnapshot(base, overlay, bkey, ref.fork_version)


# ---------------------------------------------------------------------------
# fork / copy-on-write commit / change replay
# ---------------------------------------------------------------------------


def create_branch_ops(
    snapshot: Snapshot,
    catalog: str,
    branch: str,
    created_at: float = 0.0,
    parent: str = MAIN_BRANCH,
) -> tuple[BranchRef, list[WriteOp]]:
    """The zero-copy fork: one ref row, forked at ``snapshot.version``."""
    validate_branch_name(branch)
    if parent != MAIN_BRANCH:
        raise InvalidRequestError("branches fork from main only")
    bkey = branch_key(catalog, branch)
    if read_ref(snapshot, bkey) is not None:
        raise AlreadyExistsError(f"branch already exists: {bkey}")
    ref = BranchRef(
        catalog=catalog,
        branch=branch,
        fork_version=snapshot.version,
        head_version=snapshot.version,
        parent=parent,
        created_at=created_at,
    )
    return ref, [WriteOp.put(BRANCHES_TABLE, bkey, ref.to_dict())]


def create_branch(
    store: MetadataStore,
    metastore_id: str,
    catalog: str,
    branch: str,
    created_at: float = 0.0,
) -> BranchRef:
    """Standalone fork (CAS-retried) for callers below the service layer."""
    from repro.errors import ConcurrentModificationError

    last: Optional[Exception] = None
    for _ in range(_MAX_REF_CAS_RETRIES):
        snapshot = store.snapshot(metastore_id)
        ref, ops = create_branch_ops(snapshot, catalog, branch, created_at)
        try:
            store.commit(metastore_id, snapshot.version, ops)
        except ConcurrentModificationError as exc:
            last = exc
            continue
        return ref
    raise ConcurrentModificationError(f"fork of {branch!r} kept conflicting: {last}")


def commit_to_branch(
    store: MetadataStore,
    metastore_id: str,
    bkey: str,
    expected_version: int,
    ops: list[WriteOp],
) -> int:
    """Copy-on-write commit: stamp ``ops`` with their branch and land them.

    Base-table writes are rewritten into the branch's overlay tables
    (deletes become sentinel tombstones) and the ref's head is bumped —
    one atomic CAS commit, so a branch commit serializes against every
    other commit (main or branch) on the shared version counter.
    """
    snapshot = store.snapshot(metastore_id)
    ref = require_ref(snapshot, bkey)
    rewritten: list[WriteOp] = []
    for op in ops:
        if is_branch_table(op.table):
            rewritten.append(op)  # already branch-addressed
            continue
        target = overlay_table(op.table, bkey)
        if op.value is None:
            rewritten.append(WriteOp.put(target, op.key, tombstone()))
        else:
            rewritten.append(WriteOp.put(target, op.key, op.value))
    new_ref = BranchRef(
        catalog=ref.catalog,
        branch=ref.branch,
        fork_version=ref.fork_version,
        head_version=expected_version + 1,
        parent=ref.parent,
        created_at=ref.created_at,
    )
    rewritten.append(WriteOp.put(BRANCHES_TABLE, bkey, new_ref.to_dict()))
    return store.commit(metastore_id, expected_version, rewritten)


def branch_changes_since(
    store: MetadataStore, metastore_id: str, bkey: str, from_version: int
) -> list[ChangeRecord]:
    """The branch's change log: overlay records renamed to base tables.

    This is what gives the hot-path caches their branch dimension — a
    per-branch bundle replays exactly the branch's own writes (main
    commits after the fork are invisible to the branch view, so they
    must not invalidate its entries).
    """
    out: list[ChangeRecord] = []
    for record in store.changes_since(metastore_id, from_version):
        split = split_overlay_table(record.table)
        if split is None or split[1] != bkey:
            continue
        out.append(
            ChangeRecord(
                version=record.version,
                table=split[0],
                key=record.key,
                deleted=record.deleted,
            )
        )
    return out


# ---------------------------------------------------------------------------
# diff / merge / delete
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BranchDiff:
    """What a merge would do: the branch's writes, main's writes since
    the fork, and their securable-level intersection (the conflicts)."""

    ref: BranchRef
    #: branch-local changes: ``(base table, key, value-or-None)``
    overlay: tuple[tuple[str, str, Optional[dict[str, Any]]], ...]
    #: ``(table, key)`` pairs main touched since the fork
    main_touched: tuple[tuple[str, str], ...]
    #: ``(table, key)`` pairs both sides touched — merge blockers
    conflicts: tuple[tuple[str, str], ...]


def diff_branch(store: MetadataStore, metastore_id: str, bkey: str) -> BranchDiff:
    """Securable-level three-way diff between a branch and main."""
    snapshot = store.snapshot(metastore_id)
    ref = require_ref(snapshot, bkey)
    overlay: list[tuple[str, str, Optional[dict[str, Any]]]] = []
    for table in BASE_TABLES:
        for key, value in snapshot.scan(overlay_table(table, bkey)):
            overlay.append((table, key, None if is_tombstone(value) else value))
    overlay.sort(key=lambda change: (change[0], change[1]))
    main_touched = sorted(
        {
            (record.table, record.key)
            for record in store.changes_since(metastore_id, ref.fork_version)
            if not is_branch_table(record.table)
        }
    )
    touched_set = set(main_touched)
    conflicts = tuple(
        (table, key) for table, key, _ in overlay if (table, key) in touched_set
    )
    return BranchDiff(
        ref=ref,
        overlay=tuple(overlay),
        main_touched=tuple(main_touched),
        conflicts=conflicts,
    )


def merge_ops(diff: BranchDiff) -> list[WriteOp]:
    """The write batch landing a *clean* merge on main: replay the
    branch's overlay onto the base tables, then drop the overlay rows
    and the ref — one atomic commit, so main's history shows the merge
    as a single commit (single-history-equivalent audit)."""
    bkey = diff.ref.key
    ops: list[WriteOp] = []
    for table, key, value in diff.overlay:
        if value is None:
            ops.append(WriteOp.delete(table, key))
        else:
            ops.append(WriteOp.put(table, key, value))
    for table, key, _ in diff.overlay:
        ops.append(WriteOp.delete(overlay_table(table, bkey), key))
    ops.append(WriteOp.delete(BRANCHES_TABLE, bkey))
    return ops


def delete_branch_ops(
    store: MetadataStore, metastore_id: str, bkey: str
) -> list[WriteOp]:
    """Drop a branch: its overlay rows and its ref, atomically."""
    snapshot = store.snapshot(metastore_id)
    require_ref(snapshot, bkey)
    ops: list[WriteOp] = []
    for table in BASE_TABLES:
        for key, _ in snapshot.scan(overlay_table(table, bkey)):
            ops.append(WriteOp.delete(overlay_table(table, bkey), key))
    ops.append(WriteOp.delete(BRANCHES_TABLE, bkey))
    return ops


__all__ = [
    "BASE_TABLES",
    "BRANCHES_TABLE",
    "BRANCH_SEP",
    "BranchDiff",
    "BranchRef",
    "BranchSnapshot",
    "MAIN_BRANCH",
    "TOMBSTONE_MARKER",
    "branch_changes_since",
    "branch_key",
    "branch_snapshot",
    "commit_to_branch",
    "create_branch",
    "create_branch_ops",
    "delete_branch_ops",
    "diff_branch",
    "is_branch_table",
    "is_tombstone",
    "list_refs",
    "merge_ops",
    "overlay_table",
    "read_ref",
    "require_ref",
    "resolve_head",
    "split_branch_key",
    "split_overlay_table",
    "tombstone",
    "validate_branch_name",
]
