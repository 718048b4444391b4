"""Metastore-to-node sharding (paper section 5).

"Databricks UC servers are sharded using an internal sharding service
that, similar to Slicer, provides best-effort metastore-to-node
assignments with no hard guarantees."

Assignments use rendezvous (highest-random-weight) hashing, so node
membership changes move only the affected metastores. Crucially, the
assignment is *best effort*: two nodes may transiently both believe they
own a metastore. Correctness never depends on the sharding service —
the metastore-version CAS in the persistence layer detects dual
ownership and forces the stale node to reconcile (section 4.5).
"""

from __future__ import annotations

import hashlib
import threading

from repro.errors import InvalidRequestError, NotFoundError


def _score(node: str, metastore_id: str) -> int:
    digest = hashlib.sha256(f"{node}:{metastore_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class ShardingService:
    """Best-effort rendezvous-hash assignment of metastores to nodes."""

    def __init__(self):
        self._nodes: set[str] = set()
        self.generation = 0
        #: metastore_id -> owner, valid for the current generation only
        #: (routing must not recompute a sha256 per node per request)
        self._owner_memo: dict[str, str] = {}
        #: explicit key -> node overrides (rebalancer cutovers, renames)
        self._pins: dict[str, str] = {}
        #: the membership set, memo and pin table are consulted on every
        #: routed request — keep them consistent under real threads
        self._lock = threading.Lock()

    def add_node(self, name: str) -> None:
        with self._lock:
            if name in self._nodes:
                raise InvalidRequestError(f"node already registered: {name}")
            self._nodes.add(name)
            self.generation += 1
            self._owner_memo.clear()

    def remove_node(self, name: str) -> None:
        with self._lock:
            if name not in self._nodes:
                raise NotFoundError(f"no such node: {name}")
            self._nodes.remove(name)
            self.generation += 1
            self._owner_memo.clear()
            self._pins = {
                key: node for key, node in self._pins.items() if node != name
            }

    def nodes(self) -> list[str]:
        with self._lock:
            return sorted(self._nodes)

    def pin(self, key: str, node: str) -> None:
        """Override the hash assignment of one key (best-effort, like the
        rest of the directory): used by the rebalancer at cutover and by
        catalog renames whose new name hashes elsewhere."""
        with self._lock:
            if node not in self._nodes:
                raise NotFoundError(f"no such node: {node}")
            self._pins[key] = node

    def unpin(self, key: str) -> None:
        with self._lock:
            self._pins.pop(key, None)

    def pinned(self) -> dict[str, str]:
        with self._lock:
            return dict(self._pins)

    def owner_of(self, metastore_id: str) -> str:
        """The node currently assigned to a metastore."""
        with self._lock:
            pinned = self._pins.get(metastore_id)
            if pinned is not None:
                return pinned
            owner = self._owner_memo.get(metastore_id)
            if owner is not None:
                return owner
            if not self._nodes:
                raise NotFoundError("no nodes registered")
            owner = max(self._nodes, key=lambda n: _score(n, metastore_id))
            self._owner_memo[metastore_id] = owner
            return owner

    def assignment(self, metastore_ids: list[str]) -> dict[str, str]:
        return {mid: self.owner_of(mid) for mid in metastore_ids}

    def load(self, metastore_ids: list[str]) -> dict[str, int]:
        """How many metastores each node owns (balance diagnostics)."""
        counts = {node: 0 for node in self._nodes}
        for mid in metastore_ids:
            counts[self.owner_of(mid)] += 1
        return counts
