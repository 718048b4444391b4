"""ACID metadata persistence (paper section 4.5).

The paper's backend contract is small but strict: per-metastore snapshot
reads, serializable writes via a persistent *metastore version* that every
write transaction bumps with compare-and-swap, and a change log the cache
uses for selective invalidation. Two backends implement it:

* :class:`~repro.core.persistence.memory.InMemoryMetadataStore` — the one
  in-memory MVCC engine (row histories, CAS commit, change log,
  compaction) with TreeCat's tree index: prefix-ordered keys and
  ``(parent, kind, name)`` index rows derived inside each commit, for
  list/resolve range reads. :mod:`.treecat` keeps the TreeCat name for
  the same class;
* :class:`~repro.core.persistence.sqlite.SqliteMetadataStore` — a durable
  SQLite-backed store demonstrating that the contract maps onto a
  standard relational database, as in the production system; its commit
  derives the same tree index into its one row relation.

The index derivation (:func:`~repro.core.persistence.store.tree_index_rows`)
and the ``child_id`` / ``children_ids`` / ``count_children`` reads exist
once, in :mod:`.store`; branch snapshots (:mod:`.branching`) answer them
from their base's index. Every backend has the index, so no layer above
asks whether it is there.
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
