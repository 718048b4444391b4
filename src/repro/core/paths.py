"""Storage-path governance: the one-asset-per-path principle.

The paper (sections 1, 4.2.1) requires that no two assets in a metastore
have overlapping storage paths, so that any cloud path resolves to at most
one asset and access-control decisions are unambiguous. This module
implements the URL-trie index the production system uses for "finding
assets with storage paths overlapping with a given path" (section 5) and
for resolving a path-based access request to its governing asset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cloudstore.object_store import StoragePath
from repro.core.model.entity import SecurableKind
from repro.errors import NotFoundError, PathConflictError

#: Kinds whose storage paths participate in the one-asset-per-path trie.
#: External locations are *containers* of asset paths (assets are created
#: inside them), and model versions live under their registered model's
#: path — so neither registers its own trie entry; path-based access to
#: either resolves to the governing asset instead.
PATH_GOVERNED_KINDS = frozenset(
    {SecurableKind.TABLE, SecurableKind.VOLUME, SecurableKind.REGISTERED_MODEL}
)

_GOVERNED_KIND_NAMES = frozenset(kind.value for kind in PATH_GOVERNED_KINDS)


def governed_path(row: Optional[dict]) -> Optional[StoragePath]:
    """The storage path an entity row registers in the trie: an active,
    path-governed asset's, else None."""
    if (row is None or row.get("state", "ACTIVE") != "ACTIVE"
            or row.get("kind") not in _GOVERNED_KIND_NAMES
            or not row.get("storage_path")):
        return None
    return StoragePath.parse(row["storage_path"])


@dataclass
class _TrieNode:
    children: dict[str, "_TrieNode"] = field(default_factory=dict)
    #: asset id registered exactly at this node, if any
    asset_id: Optional[str] = None

    def has_descendant_assets(self) -> bool:
        stack = list(self.children.values())
        while stack:
            node = stack.pop()
            if node.asset_id is not None:
                return True
            stack.extend(node.children.values())
        return False

    def descendant_assets(self) -> list[str]:
        found = []
        stack = list(self.children.values())
        while stack:
            node = stack.pop()
            if node.asset_id is not None:
                found.append(node.asset_id)
            stack.extend(node.children.values())
        return found


def _segments(path: StoragePath) -> list[str]:
    head = [f"{path.scheme}://{path.bucket}"]
    if path.key:
        head.extend(path.key.split("/"))
    return head


class PathTrie:
    """Maps registered storage paths to asset ids, rejecting overlaps.

    One trie exists per metastore (the invariant is metastore-scoped).
    """

    def __init__(self):
        self._root = _TrieNode()
        self._paths: dict[str, StoragePath] = {}  # asset id -> registered path

    def __len__(self) -> int:
        return len(self._paths)

    def register(self, path: StoragePath, asset_id: str) -> None:
        """Register ``path`` for ``asset_id``.

        Raises :class:`PathConflictError` if the path equals, contains, or
        is contained by any already-registered path — the
        one-asset-per-path invariant.
        """
        conflict = self.find_overlapping(path)
        if conflict:
            raise PathConflictError(
                f"path {path.url()} overlaps asset(s) {sorted(conflict)}"
            )
        node = self._root
        for segment in _segments(path):
            node = node.children.setdefault(segment, _TrieNode())
        node.asset_id = asset_id
        self._paths[asset_id] = path

    def unregister(self, asset_id: str) -> None:
        """Remove an asset's registration (asset deleted or path changed)."""
        path = self._paths.pop(asset_id, None)
        if path is None:
            raise NotFoundError(f"no path registered for asset {asset_id}")
        parents: list[tuple[_TrieNode, str]] = []
        node = self._root
        for segment in _segments(path):
            parents.append((node, segment))
            node = node.children[segment]
        node.asset_id = None
        # prune now-empty chains
        for parent, segment in reversed(parents):
            child = parent.children[segment]
            if child.asset_id is None and not child.children:
                del parent.children[segment]
            else:
                break

    def move(self, paths: dict[str, Optional[StoragePath]]) -> None:
        """Re-register each asset whose path differs from ``paths[id]``
        (None: no path); every old path goes before any new one comes, so
        a batch may swap paths."""
        moved = [(a, p) for a, p in paths.items() if self._paths.get(a) != p]
        for asset_id, _ in moved:
            if asset_id in self._paths:
                self.unregister(asset_id)
        for asset_id, path in moved:
            if path is not None:
                self.register(path, asset_id)

    def path_of(self, asset_id: str) -> Optional[StoragePath]:
        return self._paths.get(asset_id)

    def resolve(self, path: StoragePath) -> Optional[str]:
        """The asset governing ``path``: the registered path that equals or
        contains it. At most one can exist, by the invariant."""
        node = self._root
        best: Optional[str] = None
        for segment in _segments(path):
            node = node.children.get(segment)
            if node is None:
                break
            if node.asset_id is not None:
                best = node.asset_id
        return best

    def find_overlapping(self, path: StoragePath) -> list[str]:
        """All asset ids whose registered paths overlap ``path``.

        Overlap means equality or containment in either direction. Used at
        asset-creation time; on a healthy trie the result has length <= 1
        for the ancestor direction but may list several descendants when
        probing a broad prefix.
        """
        found: list[str] = []
        node = self._root
        walked_all = True
        for segment in _segments(path):
            child = node.children.get(segment)
            if child is None:
                walked_all = False
                break
            node = child
            if node.asset_id is not None:
                found.append(node.asset_id)
        if walked_all:
            # ``path`` is a prefix of deeper registrations
            for asset_id in node.descendant_assets():
                if asset_id not in found:
                    found.append(asset_id)
        return found

    def all_registrations(self) -> dict[str, StoragePath]:
        return dict(self._paths)
