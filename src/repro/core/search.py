"""Discovery search service (paper section 4.4).

A second-tier ("background") service: it consumes the core service's
metadata change events to keep an inverted index fresh — no polling of
the operational catalog — and filters every query's results through the
core service's authorization API so users only discover what they may
see.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from repro.core.events import ChangeType
from repro.core.model.entity import Entity, SecurableKind

_TOKEN_RE = re.compile(r"[a-z0-9_]+")


def _tokens(text: str) -> set[str]:
    return set(_TOKEN_RE.findall(text.lower()))


@dataclass
class SearchHit:
    entity: Entity
    full_name: str
    score: int


@dataclass
class _Doc:
    entity: Entity
    full_name: str
    tokens: set[str] = field(default_factory=set)
    tags: dict[str, str] = field(default_factory=dict)
    column_tags: dict[str, dict[str, str]] = field(default_factory=dict)

    def tag_matches(self, key: str, value) -> bool:
        """Securable-level or any-column tag match."""
        if key in self.tags and (value is None or self.tags[key] == value):
            return True
        for tags in self.column_tags.values():
            if key in tags and (value is None or tags[key] == value):
                return True
        return False


class SearchService:
    """Event-driven index over one catalog service."""

    def __init__(self, service, consumer_name: str = "search-service"):
        self._service = service
        self._consumer = consumer_name
        self._docs: dict[tuple[str, str], _Doc] = {}  # (metastore, entity id)
        self._index: dict[tuple[str, str], set[str]] = {}  # (metastore, token)
        self.events_processed = 0

    # -- ingestion ---------------------------------------------------------

    def sync(self, metastore_id: str) -> int:
        """Drain pending change events into the index; returns how many
        events were processed."""
        events = self._service.events.poll(metastore_id, self._consumer)
        for event in events:
            self.events_processed += 1
            if event.branch is not None:
                # the index covers the trunk: a branch's rows reach it
                # when a merge writes them there
                continue
            if event.change in (ChangeType.DELETED, ChangeType.PURGED):
                self._remove(metastore_id, event.securable_id)
            else:
                self._reindex(metastore_id, event.securable_id)
        return len(events)

    def lag(self, metastore_id: str) -> int:
        """Freshness: events not yet consumed."""
        return self._service.events.lag(metastore_id, self._consumer)

    def _reindex(self, metastore_id: str, entity_id: str) -> None:
        view = self._service.view(metastore_id)
        entity = view.entity_by_id(entity_id)
        if entity is None:
            self._remove(metastore_id, entity_id)
            return
        full_name = view.full_name(entity)
        tags = self._service.authorizer.tags_of(view, entity_id)
        column_tags = self._service.authorizer.column_tags_of(view, entity_id)
        tokens = _tokens(entity.name) | _tokens(entity.comment)
        tokens |= _tokens(entity.kind.value)
        for key, value in tags.items():
            tokens |= _tokens(key) | _tokens(value)
        for column, ctags in column_tags.items():
            tokens |= _tokens(column)
            for key, value in ctags.items():
                tokens |= _tokens(key) | _tokens(value)
        for column in entity.spec.get("columns") or ():
            tokens |= _tokens(column["name"])
        self._remove(metastore_id, entity_id)
        doc = _Doc(entity=entity, full_name=full_name, tokens=tokens,
                   tags=tags, column_tags=column_tags)
        self._docs[(metastore_id, entity_id)] = doc
        for token in tokens:
            self._index.setdefault((metastore_id, token), set()).add(entity_id)

    def _remove(self, metastore_id: str, entity_id: str) -> None:
        doc = self._docs.pop((metastore_id, entity_id), None)
        if doc is None:
            return
        for token in doc.tokens:
            bucket = self._index.get((metastore_id, token))
            if bucket is not None:
                bucket.discard(entity_id)
                if not bucket:
                    del self._index[(metastore_id, token)]

    # -- queries --------------------------------------------------------------

    def search(
        self,
        metastore_id: str,
        principal: str,
        query: str,
        *,
        kind: Optional[SecurableKind] = None,
        tag: Optional[tuple[str, Optional[str]]] = None,
        limit: int = 50,
    ) -> list[SearchHit]:
        """Token search with optional kind/tag filters, authorization
        enforced through the core service's API."""
        wanted = _tokens(query)
        candidate_ids: Optional[set[str]] = None
        for token in wanted:
            bucket = self._index.get((metastore_id, token), set())
            candidate_ids = bucket if candidate_ids is None else candidate_ids & bucket
        if candidate_ids is None:
            candidate_ids = {
                entity_id for (mid, entity_id) in self._docs if mid == metastore_id
            }
        hits: list[SearchHit] = []
        for entity_id in candidate_ids:
            doc = self._docs.get((metastore_id, entity_id))
            if doc is None:
                continue
            if kind is not None and doc.entity.kind is not kind:
                continue
            if tag is not None:
                key, value = tag
                if not doc.tag_matches(key, value):
                    continue
            score = len(wanted & doc.tokens)
            hits.append(SearchHit(entity=doc.entity, full_name=doc.full_name,
                                  score=score))
        # authorization API: only return what the caller may see
        visible_entities = self._service.filter_visible_entities(
            metastore_id, principal, [h.entity for h in hits]
        )
        visible_ids = {e.id for e in visible_entities}
        hits = [h for h in hits if h.entity.id in visible_ids]
        hits.sort(key=lambda h: (-h.score, h.full_name))
        return hits[:limit]

    def find_by_tag(
        self, metastore_id: str, principal: str, key: str,
        value: Optional[str] = None,
    ) -> list[SearchHit]:
        """The paper's motivating query: locate all assets tagged 'PII'."""
        hits = []
        for (mid, entity_id), doc in self._docs.items():
            if mid != metastore_id or not doc.tag_matches(key, value):
                continue
            hits.append(SearchHit(entity=doc.entity, full_name=doc.full_name,
                                  score=1))
        visible = self._service.filter_visible_entities(
            metastore_id, principal, [h.entity for h in hits]
        )
        visible_ids = {e.id for e in visible}
        return sorted(
            (h for h in hits if h.entity.id in visible_ids),
            key=lambda h: h.full_name,
        )

    def doc_count(self, metastore_id: str) -> int:
        return sum(1 for (mid, _) in self._docs if mid == metastore_id)
