"""The unindexed baseline store the cache and listing benches contrast.

:class:`ScanOnlyMetadataStore` is the in-memory engine read through a
snapshot that answers only ``get``, ``multi_get`` and ``scan``. Every
other read — prefix, range and count reads, and each tree-index
primitive behind name resolution and listing — falls to the
:class:`~repro.core.persistence.store.Snapshot` defaults: a filtered
full scan, charged to ``scan_row_count`` for every live row of the
table. That is a metadata database without a usable index, the cost
Figure 10(b)'s "without caching" arm saturates on.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.core.persistence.memory import InMemoryMetadataStore
from repro.core.persistence.store import Snapshot


class _ScanOnlySnapshot(Snapshot):
    def __init__(self, inner: Snapshot):
        super().__init__(inner.metastore_id, inner.version)
        self._inner = inner

    def get(self, table: str, key: str) -> Optional[dict[str, Any]]:
        return self._inner.get(table, key)

    def multi_get(self, table: str, keys: list[str]) -> dict[str, dict[str, Any]]:
        return self._inner.multi_get(table, keys)

    def scan(self, table: str) -> Iterator[tuple[str, dict[str, Any]]]:
        return self._inner.scan(table)


class ScanOnlyMetadataStore(InMemoryMetadataStore):
    """Writes and counters of the in-memory engine; every read other
    than a point or batched get is a full scan."""

    def snapshot(self, metastore_id: str, at_version: Optional[int] = None) -> Snapshot:
        return _ScanOnlySnapshot(super().snapshot(metastore_id, at_version))
