"""ACID metadata persistence (paper section 4.5).

The paper's backend contract is small but strict: per-metastore snapshot
reads, serializable writes via a persistent *metastore version* that every
write transaction bumps with compare-and-swap, and a change log the cache
uses for selective invalidation. Three backends implement it:

* :class:`~repro.core.persistence.memory.InMemoryMetadataStore` — the one
  in-memory MVCC engine (row histories, CAS commit, change log,
  compaction); flat, so range reads are filtered full scans,
* :class:`~repro.core.persistence.treecat.TreeCatMetadataStore` — that
  engine plus TreeCat's tree index: prefix-ordered keys and
  ``(parent, kind, name)`` index rows derived inside each commit, for
  list/resolve range reads,
* :class:`~repro.core.persistence.sqlite.SqliteMetadataStore` — a durable
  SQLite-backed store demonstrating that the contract maps onto a
  standard relational database, as in the production system; its commit
  derives the same tree index into its one row relation.

The index derivation (:func:`~repro.core.persistence.store.tree_index_rows`)
and the ``child_id`` / ``children_ids`` / ``count_children`` reads exist
once, in :mod:`.store`; branch snapshots (:mod:`.branching`) answer them
from their base's index.
"""

from repro.core.persistence.store import (
    ChangeRecord,
    MetadataStore,
    Snapshot,
    WriteOp,
    Tables,
)
from repro.core.persistence.memory import InMemoryMetadataStore
from repro.core.persistence.sqlite import SqliteMetadataStore
from repro.core.persistence.treecat import TreeCatMetadataStore

__all__ = [
    "ChangeRecord",
    "InMemoryMetadataStore",
    "MetadataStore",
    "Snapshot",
    "SqliteMetadataStore",
    "Tables",
    "TreeCatMetadataStore",
    "WriteOp",
]
