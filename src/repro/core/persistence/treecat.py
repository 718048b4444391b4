"""TreeCat-style hierarchical metadata store.

The catalog namespace is a three-level tree. Following TreeCat ("a
standalone catalog engine for large data systems", PAPERS.md), the one
in-memory engine (:mod:`.memory`) keeps every table's keys in
prefix order and derives a **tree index** inside each commit — rows
mapping

    ``parent_id ␟ kind ␟ name ␟ entity_id  →  {"id", "state"}``

— so list, resolve and subtree reads are single range reads, independent
of metastore size. This module keeps the TreeCat name for callers that
ask for the hierarchical backend by it; it is the same class as
:class:`~repro.core.persistence.memory.InMemoryMetadataStore`.
"""

from repro.core.persistence.memory import InMemoryMetadataStore

TreeCatMetadataStore = InMemoryMetadataStore
