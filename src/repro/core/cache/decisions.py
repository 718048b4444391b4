"""Version-pinned hot-path caches for the life-of-a-query loop.

The paper's performance story (section 4.5, Figure 10(b)) is that the
catalog serves metadata at interactive latency because the hot path —
resolve names, authorize, vend — almost never recomputes anything: the
node cache absorbs the database, and this module absorbs the *CPU* work
layered on top of it. Two caches and one memo, all stamped with the
metastore version they were computed at:

* :class:`AuthDecisionCache` — authorization outcomes keyed by
  ``(principal, securable_id, operation)``. A cached decision is the
  exact :class:`~repro.core.auth.authorizer.AccessDecision` the
  authorizer would recompute at the same metastore version and
  principal-directory generation, so serving it changes nothing
  observable (audit records still carry the same reason strings).
* :class:`ResolutionCache` — fully-qualified-name resolution keyed by
  ``(kind, full_name)``. Only successful resolutions are cached; a
  ``NotFoundError`` always re-walks, so creations are visible
  immediately.
* the ancestor-chain memo of :class:`HotPathCaches`, so one batched
  ``QueryResolver.resolve`` call walks each chain at most once.

**A write costs what it touches.** Every entry is *about* one securable
and is filed under it in the bundle's one :class:`_ChainIndex`, which
also maps each chain member (the securable itself and every ancestor)
to the securables filed beneath it. Invalidation, driven by the
persistence layer's change log (the same feed the node cache's
``SELECTIVE`` reconcile mode uses), looks the changed ids up there and
never walks the entries:

* an entity change (create, rename, delete, ownership transfer, spec
  update) drops what is filed under every securable whose chain holds
  the changed entity — "the changed entity is the asset itself or an
  ancestor", which is the name-prefix rule expressed in ids;
* a grant/revoke drops, under the securables whose chain holds the
  granted securable, the decisions whose identity set contains the
  grantee (the touched principal × subtree);
* policy or tag changes wipe all decisions (ABAC can reach anything in
  scope) but retain resolutions and chains;
* ``commits`` / ``share_bindings`` changes invalidate nothing — they can
  never alter an authorization outcome or a name binding.

**Two scopes.** A decision is *chain-scoped* when the authorizer read
nothing off the securable's chain to make it, and that is every
decision but one kind: a visibility answer that had to consult the
subtree (an allow through a grant on a descendant or an ABAC policy, or
a denial on a kind that can have children). Those are *subtree-scoped*:
besides their chain they are indexed by identity, any entity change
drops all of them and a grant change drops those computed with the
grantee. A visibility allow found on the chain (ownership, MANAGE, a
grant on the entity or an inheritable one above it) is chain-scoped,
because an allow found on the chain cannot be revoked by anything off
the chain; so is a denial on a kind nothing can live under, because
only the chain could ever grant it.

**Version check.** ``sync`` pins the bundle to a view's version before a
lookup, but a reader can lose the CPU to a writer between computing an
answer and storing it. Every put therefore carries the version of the
view it was computed from and is dropped when the bundle has moved on:
the caller keeps its answer, the cache never learns it.

**Bound.** Each structure holds at most ``_MAX_ENTRIES`` entries; a put
into a full one first evicts the oldest-inserted eighth through the same
``_drop`` as invalidation, so the index stays exact and the other seven
eighths stay warm.

Correctness never depends on any of this: with the fast path disabled
the service recomputes everything and must produce byte-identical
results (``python -m repro.bench.hotpath`` proves it on one script,
``tests/test_decision_cache_properties.py`` on random ones).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Optional

from repro.core.model.entity import Entity, SecurableKind
from repro.core.persistence.store import ChangeRecord, Tables

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.auth.authorizer import AccessDecision
    from repro.core.view import MetastoreView

#: The most entries each structure holds. A put into a full one evicts
#: the oldest-inserted eighth first (insertion order is the dict's own;
#: a hit records nothing).
_MAX_ENTRIES = 65_536


def _make_room(entries: dict, key: Hashable, drop: Callable[[Hashable], None]) -> None:
    """What precedes ``entries[key] = ...``: an entry being overwritten is
    dropped (and so re-filed), a full structure drops its oldest eighth."""
    if key in entries:
        drop(key)
    elif len(entries) >= _MAX_ENTRIES:
        for old in list(islice(entries, max(1, _MAX_ENTRIES // 8))):
            drop(old)


@dataclass
class HotPathStats:
    """Counters exported as ``uc_authz_cache_*`` / ``uc_resolution_cache_*``."""

    authz_hits: int = 0
    authz_misses: int = 0
    resolution_hits: int = 0
    resolution_misses: int = 0
    invalidations: int = 0
    syncs: int = 0

    @property
    def authz_hit_rate(self) -> float:
        total = self.authz_hits + self.authz_misses
        return self.authz_hits / total if total else 0.0

    @property
    def resolution_hit_rate(self) -> float:
        total = self.resolution_hits + self.resolution_misses
        return self.resolution_hits / total if total else 0.0


class _Filed:
    """What the bundle holds about one securable: the keys of its cached
    decisions and names, and whether its chain is memoised."""

    __slots__ = ("chain_ids", "decisions", "names", "chained")

    def __init__(self, chain_ids: frozenset[str]):
        self.chain_ids = chain_ids
        self.decisions: set[tuple[Hashable, str, str]] = set()
        # a tuple: one name per securable unless two kinds share a namespace group
        self.names: tuple[tuple[SecurableKind, str], ...] = ()
        self.chained = False


class _ChainIndex:
    """Securables with something cached, by id and by chain member.

    Exact by construction: a securable is present, under its own id and
    in the holder set of every member of its chain, for as long as
    something is filed under it and no longer — whoever unfiles calls
    :meth:`release`, which removes the record and every now-empty holder
    set with it.
    """

    def __init__(self):
        self._filed: dict[str, _Filed] = {}
        #: chain-member id -> ids of the securables whose chain holds it
        self._holders: dict[str, set[str]] = {}

    def __getitem__(self, securable_id: str) -> _Filed:
        return self._filed[securable_id]

    def file(self, securable_id: str, chain_ids: Iterable[str]) -> _Filed:
        """The securable's record, created (and indexed) on first use."""
        filed = self._filed.get(securable_id)
        if filed is None:
            filed = self._filed[securable_id] = _Filed(frozenset(chain_ids))
            for member in filed.chain_ids:
                self._holders.setdefault(member, set()).add(securable_id)
        return filed

    def release(self, securable_id: str) -> None:
        """Forget the securable if nothing is filed under it any more."""
        filed = self._filed[securable_id]
        if filed.decisions or filed.names or filed.chained:
            return
        del self._filed[securable_id]
        for member in filed.chain_ids:
            holders = self._holders[member]
            holders.discard(securable_id)
            if not holders:
                del self._holders[member]

    def under(self, member_ids: Iterable[str]) -> list[str]:
        """Ids of the securables whose chain holds any of ``member_ids``
        (a copy: callers unfile while they iterate)."""
        found: set[str] = set()
        for member in member_ids:
            found.update(self._holders.get(member, ()))
        return list(found)


class _DecisionEntry:
    """One cached decision plus the facts needed to invalidate it."""

    __slots__ = ("value", "identities", "subtree")

    def __init__(self, value: "AccessDecision", identities: frozenset[str],
                 subtree: bool):
        self.value = value
        self.identities = identities
        self.subtree = subtree


class AuthDecisionCache:
    """Authorization outcomes keyed ``(principal, securable_id, operation)``.

    The principal component may be a principal name (``authorize``) or an
    expanded identity frozenset (``has_privilege`` / ``visible``); either
    way the entry records the identity set the decision was computed
    with, which is what grant invalidation matches against. Entries are
    filed under ``securable_id`` in the bundle's chain index;
    subtree-scoped ones are also indexed by identity.
    """

    def __init__(self, index: _ChainIndex):
        self._index = index
        self._entries: dict[tuple[Hashable, str, str], _DecisionEntry] = {}
        #: identity -> keys of the subtree-scoped entries computed with it
        self._subtree_by_identity: dict[str, set[tuple[Hashable, str, str]]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple[Hashable, str, str]) -> Optional["AccessDecision"]:
        entry = self._entries.get(key)
        return entry.value if entry is not None else None

    def put(
        self,
        key: tuple[Hashable, str, str],
        value: "AccessDecision",
        identities: frozenset[str],
        chain_ids: Iterable[str],
        subtree: bool,
    ) -> None:
        _make_room(self._entries, key, self._drop)
        self._index.file(key[1], chain_ids).decisions.add(key)
        if subtree:
            for identity in identities:
                self._subtree_by_identity.setdefault(identity, set()).add(key)
        self._entries[key] = _DecisionEntry(value, identities, subtree)

    def _drop(self, key: tuple[Hashable, str, str]) -> None:
        """The one way an entry leaves: out of every index it is in."""
        entry = self._entries.pop(key)
        self._index[key[1]].decisions.discard(key)
        self._index.release(key[1])
        if entry.subtree:
            for identity in entry.identities:
                keys = self._subtree_by_identity[identity]
                keys.discard(key)
                if not keys:
                    del self._subtree_by_identity[identity]

    def clear(self) -> int:
        dropped = len(self._entries)
        for key in list(self._entries):
            self._drop(key)
        return dropped

    def invalidate(
        self,
        entity_ids: frozenset[str],
        grant_changes: list[tuple[str, str]],
    ) -> int:
        """Selective retention: drop only entries the changes can affect,
        found through the indexes."""
        dead: set[tuple[Hashable, str, str]] = set()
        if entity_ids:
            for securable_id in self._index.under(entity_ids):
                dead.update(self._index[securable_id].decisions)
            # what a subtree-scoped answer read is not tracked member by
            # member — any entity change drops them all
            for keys in self._subtree_by_identity.values():
                dead.update(keys)
        for grant_securable, grant_principal in grant_changes:
            dead.update(self._subtree_by_identity.get(grant_principal, ()))
            for securable_id in self._index.under((grant_securable,)):
                for key in self._index[securable_id].decisions:
                    if grant_principal in self._entries[key].identities:
                        dead.add(key)
        for key in dead:
            self._drop(key)
        return len(dead)


class ResolutionCache:
    """Name → entity bindings keyed ``(kind, full_name)``.

    A binding is filed under the entity it resolved to, whose chain is
    every entity id the resolving walk visited (the containers plus the
    asset itself), so renaming or deleting any segment of ``a.b.c``
    drops every cached name under it — the name-prefix invalidation
    rule, expressed in ids.
    """

    def __init__(self, index: _ChainIndex):
        self._index = index
        self._entries: dict[tuple[SecurableKind, str], Entity] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, kind: SecurableKind, full_name: str) -> Optional[Entity]:
        return self._entries.get((kind, full_name))

    def put(self, kind: SecurableKind, full_name: str, entity: Entity,
            chain_ids: Iterable[str]) -> None:
        key = (kind, full_name)
        _make_room(self._entries, key, self._drop)
        filed = self._index.file(entity.id, chain_ids)
        filed.names += (key,)
        self._entries[key] = entity

    def _drop(self, key: tuple[SecurableKind, str]) -> None:
        securable_id = self._entries.pop(key).id
        filed = self._index[securable_id]
        filed.names = tuple(name for name in filed.names if name != key)
        self._index.release(securable_id)

    def clear(self) -> int:
        dropped = len(self._entries)
        for key in list(self._entries):
            self._drop(key)
        return dropped

    def invalidate(self, entity_ids: frozenset[str]) -> int:
        dead = [key for securable_id in self._index.under(entity_ids)
                for key in self._index[securable_id].names]
        for key in dead:
            self._drop(key)
        return len(dead)


class HotPathCaches:
    """The per-metastore fast-path bundle: decisions, resolutions, chains.

    ``sync`` pins the bundle to a view's metastore version before any
    lookup: equal versions serve directly, a newer view replays the
    change log through selective invalidation, an *older* (pinned
    snapshot) view opts out of the cache entirely. Decisions additionally
    depend on the principal directory, whose ``generation`` bump clears
    them (group membership changes are not metastore writes).
    """

    def __init__(
        self,
        metastore_id: str,
        version: int,
        changes_since: Callable[[int], list[ChangeRecord]],
        directory_generation: Callable[[], int],
    ):
        self.metastore_id = metastore_id
        self.version = version
        self._changes_since = changes_since
        self._directory_generation = directory_generation
        self._generation = directory_generation()
        self._index = _ChainIndex()
        self.decisions = AuthDecisionCache(self._index)
        self.resolutions = ResolutionCache(self._index)
        self._chains: dict[str, tuple[Entity, ...]] = {}
        self.stats = HotPathStats()
        self._lock = threading.RLock()

    def sizes(self) -> dict[str, int]:
        """Entries held per structure (the ``uc_hot_cache_entries`` gauge)."""
        with self._lock:
            return {
                "decisions": len(self.decisions),
                "resolutions": len(self.resolutions),
                "chains": len(self._chains),
            }

    # -- version pinning ---------------------------------------------------

    def sync(self, view_version: int) -> bool:
        """Catch up to ``view_version``; False means "do not use me"."""
        with self._lock:
            generation = self._directory_generation()
            if generation != self._generation:
                self.stats.invalidations += self.decisions.clear()
                self._generation = generation
            if view_version == self.version:
                return True
            if view_version < self.version:
                return False  # a pinned older snapshot; recompute instead
            self.stats.syncs += 1
            self._apply_changes(self._changes_since(self.version))
            self.version = view_version
            return True

    def note_commit(self, ops, new_version: int) -> None:
        """Fold a locally-committed write batch in without re-reading the
        change log (the write-through analogue of the node cache)."""
        with self._lock:
            if new_version != self.version + 1:
                return  # fell behind; the next sync() replays the log
            self._apply_changes(
                [
                    ChangeRecord(
                        version=new_version, table=op.table, key=op.key,
                        deleted=op.value is None,
                    )
                    for op in ops
                ]
            )
            self.version = new_version

    def _apply_changes(self, changes: list[ChangeRecord]) -> None:
        entity_ids: set[str] = set()
        grant_changes: list[tuple[str, str]] = []
        policies_changed = False
        for change in changes:
            if change.table == Tables.ENTITIES:
                entity_ids.add(change.key)
            elif change.table == Tables.GRANTS:
                # key layout: {securable_id}/{principal}/{privilege};
                # ids and privilege values never contain "/".
                parts = change.key.split("/")
                grant_changes.append((parts[0], "/".join(parts[1:-1])))
            elif change.table in (Tables.POLICIES, Tables.TAGS):
                policies_changed = True
            # COMMITS and SHARES rows cannot affect decisions/resolution.
        frozen_ids = frozenset(entity_ids)
        if policies_changed:
            self.stats.invalidations += self.decisions.clear()
        else:
            self.stats.invalidations += self.decisions.invalidate(
                frozen_ids, grant_changes
            )
        self.stats.invalidations += self.resolutions.invalidate(frozen_ids)
        # what is still filed under a changed entity is a memoised chain
        for securable_id in self._index.under(frozen_ids):
            self._drop_chain(securable_id)

    # -- decision cache front ----------------------------------------------

    def get_decision(
        self, key: tuple[Hashable, str, str]
    ) -> Optional["AccessDecision"]:
        with self._lock:
            value = self.decisions.get(key)
            if value is not None:
                self.stats.authz_hits += 1
            else:
                self.stats.authz_misses += 1
        return value

    def put_decision(
        self,
        key: tuple[Hashable, str, str],
        value: "AccessDecision",
        identities: frozenset[str],
        view: "MetastoreView",
        entity: Entity,
        subtree: bool = False,
    ) -> None:
        """Cache a decision about ``entity`` computed from ``view`` —
        unless the bundle has moved past that view's version meanwhile.
        ``subtree`` marks a visibility answer that read beyond the chain."""
        chain = self.chain(view, entity)  # the memo the decision just used
        with self._lock:
            if view.version != self.version:
                return
            self.decisions.put(
                key, value, identities, (link.id for link in chain), subtree
            )

    # -- resolution cache front --------------------------------------------

    def get_resolution(self, kind: SecurableKind, full_name: str) -> Optional[Entity]:
        with self._lock:
            entity = self.resolutions.get(kind, full_name)
            if entity is not None:
                self.stats.resolution_hits += 1
            else:
                self.stats.resolution_misses += 1
        return entity

    def put_resolution(self, kind: SecurableKind, full_name: str, entity: Entity,
                       chain_ids: Iterable[str], version: int) -> None:
        """Cache a binding resolved at ``version`` (dropped if stale)."""
        with self._lock:
            if version == self.version:
                self.resolutions.put(kind, full_name, entity, chain_ids)

    # -- ancestor-chain memo -----------------------------------------------

    def chain(self, view: "MetastoreView", entity: Entity) -> tuple[Entity, ...]:
        """Entity followed by its ancestors, walked at most once per
        version (the memo is dropped when any chain member changes)."""
        with self._lock:
            memo = self._chains.get(entity.id)
            if memo is not None:
                return memo
        chain = (entity, *view.ancestors(entity))
        with self._lock:
            if view.version == self.version:
                _make_room(self._chains, entity.id, self._drop_chain)
                self._index.file(
                    entity.id, (link.id for link in chain)
                ).chained = True
                self._chains[entity.id] = chain
        return chain

    def _drop_chain(self, securable_id: str) -> None:
        del self._chains[securable_id]
        self._index[securable_id].chained = False
        self._index.release(securable_id)
