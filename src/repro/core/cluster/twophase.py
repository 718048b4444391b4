"""Two-phase commit for operations that span shards.

A single shard's writes are already serializable (the optimistic CAS
commit loop); what needs coordination is the small class of operations
whose *validation* and *effects* straddle shard boundaries — a
cross-catalog rename whose old and new names hash to different shards,
or a replicated metastore-scope write that must land on every shard.

The coordinator is deliberately minimal: deterministic transaction ids,
all-or-nothing **key locks** acquired at prepare, and an append-only
transaction log. A prepare that loses the lock race aborts immediately
with a record naming the conflicting key and holder — the "exactly one
winner, clean abort for the loser" contract the interleaving tests
enumerate. Since the parallel serving tier drives prepare/commit legs
from real threads, the check-and-acquire over the key-lock table is a
single critical section under the coordinator's ``_lock``: two racing
prepares can never both observe a key as free.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.core.events import ChangeType
from repro.core.model.entity import Entity, SecurableKind
from repro.core.model.naming import validate_identifier
from repro.core.persistence.store import Tables, WriteOp
from repro.core.service.registry import catalog_route_key
from repro.errors import (
    AlreadyExistsError,
    ConcurrentModificationError,
    InvalidRequestError,
    NotFoundError,
)

from .rebalance import export_subtree
from .routing import route_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .cluster import CatalogCluster, ShardNode

PREPARED = "prepared"
COMMITTED = "committed"
ABORTED = "aborted"


@dataclass
class TxnRecord:
    """One cross-shard transaction in the coordinator's log."""

    txn_id: str
    kind: str                      # "catalog_move" | "broadcast"
    api: str                       # the endpoint that initiated it
    keys: tuple[str, ...]          # route keys locked at prepare
    participants: tuple[str, ...]  # shard names involved
    state: str = PREPARED
    reason: Optional[str] = None   # why it aborted, when it did
    prepared_at: float = 0.0
    finished_at: Optional[float] = None
    details: dict = field(default_factory=dict)


class TwoPhaseCoordinator:
    """Key-locked prepare/commit with a deterministic, bounded log.

    The log is append-only in spirit but bounded in memory: once more
    than ``log_retention`` *finished* (committed/aborted) records have
    accumulated, the oldest finished records are compacted away.
    ``PREPARED`` records are never compacted (they hold live key locks),
    and neither is an aborted record whose conflict attribution names a
    still-live transaction — the "who held my key" breadcrumb the
    interleaving tests rely on must outlive the loser.
    """

    def __init__(self, clock, metrics=None, log_retention: int = 1024):
        if log_retention < 1:
            raise InvalidRequestError("log_retention must be >= 1")
        self._clock = clock
        #: serializes check-and-acquire over the key-lock table and log
        #: appends — prepare legs race from real threads under the
        #: parallel serving tier.
        self._lock = threading.Lock()
        self._locks: dict[str, str] = {}   # route key -> holding txn id
        self._sequence = 0
        self.log: list[TxnRecord] = []
        self._retention = log_retention
        self.compacted_records = 0
        self._outcomes = None
        self._compactions = None
        if metrics is not None:
            self._outcomes = metrics.counter(
                "uc_shard_2pc_total",
                "Cross-shard two-phase transactions by outcome.",
                ("outcome",),
            )
            self._compactions = metrics.counter(
                "uc_2pc_log_compactions_total",
                "Compaction passes over the 2PC transaction log.",
            ).labels()

    def _count(self, outcome: str) -> None:
        if self._outcomes is not None:
            self._outcomes.labels(outcome=outcome).inc()

    def begin(
        self,
        kind: str,
        api: str,
        keys: tuple[str, ...],
        participants: tuple[str, ...],
    ) -> TxnRecord:
        """Acquire every key lock or none: a conflict aborts immediately
        with a log record naming the key and the holding transaction."""
        with self._lock:
            self._sequence += 1
            txn_id = f"txn-{self._sequence:06d}"
            for key in keys:
                holder = self._locks.get(key)
                if holder is not None:
                    record = TxnRecord(
                        txn_id=txn_id, kind=kind, api=api, keys=keys,
                        participants=participants, state=ABORTED,
                        reason=f"prepare conflict: {key} is locked by {holder}",
                        prepared_at=self._clock.now(),
                        finished_at=self._clock.now(),
                    )
                    self.log.append(record)
                    self._count(ABORTED)
                    raise ConcurrentModificationError(
                        f"{api}: {key} is locked by transaction {holder}"
                    )
            record = TxnRecord(
                txn_id=txn_id, kind=kind, api=api, keys=keys,
                participants=participants, prepared_at=self._clock.now(),
            )
            for key in keys:
                self._locks[key] = txn_id
            self.log.append(record)
            return record

    def _release(self, record: TxnRecord) -> None:
        for key in record.keys:
            if self._locks.get(key) == record.txn_id:
                del self._locks[key]

    def commit(self, record: TxnRecord) -> None:
        with self._lock:
            self._release(record)
            record.state = COMMITTED
            record.finished_at = self._clock.now()
            self._compact_locked()
        self._count(COMMITTED)

    def abort(self, record: TxnRecord, reason: str) -> None:
        with self._lock:
            self._release(record)
            record.state = ABORTED
            record.reason = reason
            record.finished_at = self._clock.now()
            self._compact_locked()
        self._count(ABORTED)

    def _compact_locked(self) -> None:
        """Drop the oldest finished records past the retention bound
        (called from commit()/abort() inside ``self._lock``).

        Never dropped: ``PREPARED`` records (their key locks are live),
        and aborted records whose conflict reason names a transaction
        that is still ``PREPARED`` — the loser's abort attribution stays
        readable until the winner finishes.
        """
        finished = sum(1 for r in self.log if r.state != PREPARED)
        excess = finished - self._retention
        if excess <= 0:
            return
        live = {r.txn_id for r in self.log if r.state == PREPARED}
        kept: list[TxnRecord] = []
        dropped = 0
        for record in self.log:
            if (dropped < excess and record.state != PREPARED
                    and not self._attributes_live(record, live)):
                dropped += 1
                continue
            kept.append(record)
        if not dropped:
            return
        self.log[:] = kept
        self.compacted_records += dropped
        if self._compactions is not None:
            self._compactions.inc()

    @staticmethod
    def _attributes_live(record: TxnRecord, live: set[str]) -> bool:
        if record.state != ABORTED or not record.reason or not live:
            return False
        return any(txn_id in record.reason for txn_id in live)

    def held_keys(self) -> dict[str, str]:
        """The key locks currently held (race tests assert emptiness)."""
        with self._lock:
            return dict(self._locks)

    def aborted(self) -> list[TxnRecord]:
        with self._lock:
            return [r for r in self.log if r.state == ABORTED]


class CatalogMove:
    """A catalog rename under the two-phase protocol.

    Catalog names *are* route keys, so a rename may need to relocate the
    whole subtree to the shard the new name hashes to. Prepare validates
    on the source shard (identifier, existence, authorization) and scans
    every shard for a name collision while holding locks on both the old
    and new keys; commit either renames the root row in place (same
    shard) or exports the subtree, imports it renamed on the target, and
    deletes it from the source. The audit trail matches the single-node
    rename exactly: one authorization record on success, one error
    record when validation fails before authorization.
    """

    def __init__(self, cluster: "CatalogCluster", metastore_id: str,
                 principal: str, name: str, new_name: str):
        self._cluster = cluster
        self.metastore_id = metastore_id
        self.principal = principal
        self.name = name
        self.new_name = new_name
        self.txn: Optional[TxnRecord] = None
        self._source: Optional["ShardNode"] = None
        self._entity_id: Optional[str] = None

    # -- phase one -------------------------------------------------------

    def prepare(self) -> "CatalogMove":
        cluster, mid, principal = self._cluster, self.metastore_id, self.principal
        old_key = catalog_route_key(self.name)
        new_key = catalog_route_key(self.new_name)
        source = cluster.shard_named(cluster.router.resolve_for_write(mid, old_key))
        self._source = source
        svc = source.service
        try:
            validate_identifier(self.new_name, what="new name")
        except InvalidRequestError as exc:
            svc._audit(mid, principal, "rename_securable", self.name, False,
                       error=exc.code)
            raise
        try:
            self.txn = cluster.coordinator.begin(
                "catalog_move", "rename_securable",
                keys=(route_key(mid, old_key), route_key(mid, new_key)),
                participants=(source.name, cluster.router.owner_for(mid, new_key)),
            )
        except ConcurrentModificationError as exc:
            svc._audit(mid, principal, "rename_securable", self.name, False,
                       error=exc.code)
            raise
        try:
            view = svc.view(mid)
            entity = svc._resolve(view, mid, SecurableKind.CATALOG, self.name)
            self._entity_id = entity.id
            svc._authorize(view, mid, principal, entity, "update", self.name)
            group = svc.registry.get(SecurableKind.CATALOG).namespace_group
            for shard in cluster.shards:
                other = shard.service.view(mid)
                if other.entity_by_name(entity.parent_id, group, self.new_name):
                    raise AlreadyExistsError(
                        f"catalog already exists: {self.new_name}"
                    )
        except NotFoundError as exc:
            svc._audit(mid, principal, "rename_securable", self.name, False,
                       error=exc.code)
            self.abort(f"{type(exc).__name__}: {exc}")
            raise
        except Exception as exc:
            self.abort(f"{type(exc).__name__}: {exc}")
            raise
        return self

    # -- phase two -------------------------------------------------------

    def commit(self) -> Entity:
        if self.txn is None or self.txn.state != PREPARED:
            raise InvalidRequestError("catalog move is not prepared")
        cluster, mid = self._cluster, self.metastore_id
        old_key = catalog_route_key(self.name)
        new_key = catalog_route_key(self.new_name)
        source = self._source
        target = cluster.shard_named(cluster.router.owner_for(mid, new_key))
        if target is source:
            result = self._rename_in_place(source)
        else:
            result = self._move_subtree(source, target)
        cluster.router.unpin(mid, old_key)
        cluster.coordinator.commit(self.txn)
        cluster.after_mutation([source, target], mid)
        return result

    def abort(self, reason: str) -> None:
        if self.txn is not None and self.txn.state == PREPARED:
            self._cluster.coordinator.abort(self.txn, reason)

    def execute(self) -> Entity:
        self.prepare()
        try:
            return self.commit()
        except Exception as exc:
            self.abort(f"{type(exc).__name__}: {exc}")
            raise

    # -- commit flavours -------------------------------------------------

    def _rename_in_place(self, source: "ShardNode") -> Entity:
        svc, mid = source.service, self.metastore_id
        name, new_name = self.name, self.new_name
        group = svc.registry.get(SecurableKind.CATALOG).namespace_group

        def build(view):
            entity = svc._resolve(view, mid, SecurableKind.CATALOG, name)
            if view.entity_by_name(entity.parent_id, group, new_name):
                raise AlreadyExistsError(f"catalog already exists: {new_name}")
            renamed = entity.with_updates(updated_at=svc.clock.now(),
                                          name=new_name)
            ops = [WriteOp.put(Tables.ENTITIES, entity.id, renamed.to_row())]
            events = [(ChangeType.UPDATED, entity.id,
                       SecurableKind.CATALOG.value, new_name,
                       {"renamed_from": name})]
            return ops, renamed, events

        return svc._mutate(mid, build)

    def _move_subtree(self, source: "ShardNode", target: "ShardNode") -> Entity:
        cluster, mid = self._cluster, self.metastore_id
        export = export_subtree(source.service.store, mid, self._entity_id)
        now = cluster.clock.now()
        rows = []
        renamed_value = None
        for table, key, value in export.rows:
            if table == Tables.ENTITIES and key == self._entity_id:
                value = dict(value, name=self.new_name, updated_at=now)
                renamed_value = value
            rows.append((table, key, value))
        if renamed_value is None:
            raise NotFoundError(f"catalog disappeared mid-move: {self.name}")
        group = target.service.registry.get(SecurableKind.CATALOG).namespace_group

        def build_import(view):
            if view.entity_by_name(renamed_value["parent_id"], group,
                                   self.new_name):
                raise AlreadyExistsError(
                    f"catalog already exists: {self.new_name}"
                )
            ops = [WriteOp.put(t, k, v) for t, k, v in rows]
            events = [(ChangeType.UPDATED, self._entity_id,
                       SecurableKind.CATALOG.value, self.new_name,
                       {"renamed_from": self.name, "moved_from": source.name})]
            return ops, Entity.from_dict(renamed_value), events

        result = target.service._mutate(mid, build_import)

        def build_delete(view):
            ops = [WriteOp.delete(t, k) for t, k, _ in export.rows]
            return ops, None, []

        try:
            source.service._mutate(mid, build_delete)
        except Exception:
            # the import committed but the source-side delete did not: the
            # subtree would be resolvable under both names on two shards.
            # Compensate by deleting the imported rows from the target —
            # the old key is still routed to the source (commit() unpins
            # only after both legs land), so the catalog stays fully
            # usable under its old name and the abort is clean.
            def build_undo(view):
                ops = [WriteOp.delete(t, k) for t, k, _ in rows]
                return ops, None, []

            target.service._mutate(mid, build_undo)
            raise
        return result
