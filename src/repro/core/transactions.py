"""Multi-table, multi-statement transactions (paper section 6.3).

"While ACID table formats like Delta Lake support single-table
transactions by relying on storage layer atomic operations, extending
this to multi-table and multi-statement transactions is more complex ...
As the centralized metadata store, UC plays a critical role in enabling
such transactions via ... Catalog-owned Delta tables."

Protocol implemented here:

* a *catalog-owned* table's authoritative version pointer lives in the
  catalog's ``commits`` table, not in the storage log listing;
* a transaction records the version of every table it reads (snapshot),
  stages its writes as data files (invisible until a log entry references
  them), and at commit time performs **one** catalog metastore commit
  that CAS-checks every participant's version pointer and advances them
  all together — atomicity and serializability across tables come from
  the metastore-version CAS of section 4.5;
* after the catalog commit succeeds, the log entries are written out;
  version slots were allocated by the catalog, so those writes cannot
  race.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from repro.cloudstore.client import StorageClient
from repro.cloudstore.object_store import StoragePath
from repro.cloudstore.sts import AccessLevel
from repro.core.model.entity import Entity, SecurableKind
from repro.core.persistence.store import Tables, WriteOp
from repro.deltalog.actions import Action, CommitInfo, RemoveFile
from repro.deltalog.files import write_data_file
from repro.deltalog.log import DeltaLog
from repro.errors import (
    InvalidRequestError,
    TransactionConflictError,
)


@dataclass
class _Participant:
    """One table enlisted in the transaction."""

    full_name: str
    entity: Entity
    log: DeltaLog
    client: StorageClient
    root: StoragePath
    read_version: int
    level: AccessLevel
    staged_actions: list[Action] = field(default_factory=list)
    is_written: bool = False


class MultiTableTransaction:
    """One ACID transaction spanning catalog-owned tables."""

    def __init__(self, coordinator: "TransactionCoordinator", principal: str):
        self._coordinator = coordinator
        self._principal = principal
        self._participants: dict[str, _Participant] = {}
        self._state = "OPEN"

    # -- enlistment --------------------------------------------------------

    def _require_open(self) -> None:
        if self._state != "OPEN":
            raise InvalidRequestError(f"transaction is {self._state}")

    def _enlist(self, table_name: str, for_write: bool) -> _Participant:
        participant = self._participants.get(table_name)
        if participant is None:
            participant = self._coordinator._enlist(self._principal, table_name,
                                                    for_write)
            self._participants[table_name] = participant
        if for_write:
            if participant.level is AccessLevel.READ:
                # read-enlisted first, now written: authorize the write and
                # upgrade the storage credential
                self._coordinator._upgrade_to_write(self._principal, participant)
            participant.is_written = True
        return participant

    # -- statements ---------------------------------------------------------------

    def read(self, table_name: str, filters=None) -> list[dict]:
        """Snapshot read: pinned at the version this transaction first saw."""
        self._require_open()
        participant = self._enlist(table_name, for_write=False)
        from repro.deltalog.table import DeltaTable

        table = DeltaTable(participant.client, participant.root,
                           clock=self._coordinator._service.clock)
        if participant.read_version < 0:
            return []
        snapshot_rows = list(
            table.scan(filters, version=participant.read_version)
        )
        return snapshot_rows

    def append(self, table_name: str, rows: list[dict]) -> None:
        """Stage an append: files written now, published at commit."""
        self._require_open()
        if not rows:
            raise InvalidRequestError("nothing to append")
        participant = self._enlist(table_name, for_write=True)
        add = write_data_file(participant.client, participant.root, rows)
        participant.staged_actions.append(add)

    def overwrite(self, table_name: str, rows: list[dict]) -> None:
        """Stage a full replacement of the table's content."""
        self._require_open()
        participant = self._enlist(table_name, for_write=True)
        now = self._coordinator._service.clock.now()
        if participant.read_version >= 0:
            snapshot = participant.log.snapshot(participant.read_version)
            for path in snapshot.active_files:
                participant.staged_actions.append(
                    RemoveFile(path=path, deletion_timestamp=now)
                )
        if rows:
            participant.staged_actions.append(
                write_data_file(participant.client, participant.root, rows)
            )

    # -- outcome ---------------------------------------------------------------------

    def commit(self) -> dict[str, int]:
        """Atomically publish all staged writes; returns the new version of
        every written table. Raises TransactionConflictError if any
        participant moved since this transaction read it."""
        self._require_open()
        result = self._coordinator._commit(self._principal, self._participants)
        self._state = "COMMITTED"
        return result

    def rollback(self) -> None:
        """Abandon staged writes (orphaned files await VACUUM)."""
        self._require_open()
        self._state = "ROLLED_BACK"


class TransactionCoordinator:
    """The catalog-side arbiter for catalog-owned table commits."""

    def __init__(self, service, metastore_id: str):
        self._service = service
        self._metastore_id = metastore_id

    def begin(self, principal: str) -> MultiTableTransaction:
        return MultiTableTransaction(self, principal)

    # -- version pointers ---------------------------------------------------------

    def table_version(self, table_id: str) -> int:
        """The catalog-owned version pointer (-1 = no commits yet)."""
        view = self._service.view(self._metastore_id)
        row = view.row(Tables.COMMITS, table_id)
        return row["version"] if row else -1

    def _enlist(self, principal: str, table_name: str, for_write: bool) -> _Participant:
        service = self._service
        view = service.view(self._metastore_id)
        entity = service._resolve(view, self._metastore_id, SecurableKind.TABLE,
                                  table_name)
        if not entity.spec.get("catalog_owned"):
            raise InvalidRequestError(
                f"{table_name} is not catalog-owned; multi-table transactions "
                "require catalog-owned tables"
            )
        operation = "write_data" if for_write else "read_data"
        service._authorize(view, self._metastore_id, principal, entity,
                           operation, table_name)
        level = AccessLevel.READ_WRITE if for_write else AccessLevel.READ
        credential = service.vendor.vend(view, entity, level)
        client = service.governed_client(credential)
        root = StoragePath.parse(entity.storage_path)
        row = view.row(Tables.COMMITS, entity.id)
        read_version = row["version"] if row else DeltaLog(client, root).latest_version()
        return _Participant(
            full_name=table_name,
            entity=entity,
            log=DeltaLog(client, root),
            client=client,
            root=root,
            read_version=read_version,
            level=level,
        )

    def _upgrade_to_write(self, principal: str, participant: _Participant) -> None:
        """Re-authorize and swap in a READ_WRITE credential."""
        service = self._service
        view = service.view(self._metastore_id)
        service._authorize(view, self._metastore_id, principal,
                           participant.entity, "write_data",
                           participant.full_name)
        credential = service.vendor.vend(view, participant.entity,
                                         AccessLevel.READ_WRITE)
        participant.client.refresh(credential)
        participant.level = AccessLevel.READ_WRITE

    def _commit(
        self, principal: str, participants: dict[str, _Participant]
    ) -> dict[str, int]:
        service = self._service
        written = {
            name: p for name, p in participants.items() if p.is_written
        }
        if not written:
            return {}

        new_versions: dict[str, int] = {}

        def build(view):
            ops = []
            new_versions.clear()
            for name, participant in participants.items():
                row = view.row(Tables.COMMITS, participant.entity.id)
                current = row["version"] if row else participant.log.latest_version()
                if current != participant.read_version:
                    raise TransactionConflictError(
                        f"table {name} moved from version "
                        f"{participant.read_version} to {current}"
                    )
            for name, participant in written.items():
                new_version = participant.read_version + 1
                new_versions[name] = new_version
                ops.append(
                    WriteOp.put(
                        Tables.COMMITS,
                        participant.entity.id,
                        {"version": new_version, "committed_by": principal},
                    )
                )
            return ops, dict(new_versions)

        result = service._mutate(self._metastore_id, build)

        # catalog commit succeeded: publish the log entries in the slots
        # the catalog allocated (no other writer can hold these slots)
        now = service.clock.now()
        for name, participant in written.items():
            actions = list(participant.staged_actions)
            actions.append(
                CommitInfo(
                    operation="TXN COMMIT",
                    timestamp=now,
                    engine="txn-coordinator",
                    details={"tables": sorted(written)},
                )
            )
            participant.log.commit(result[name], actions)
        service._audit(
            self._metastore_id, principal, "multi_table_commit",
            ",".join(sorted(written)), True, tables=len(written),
        )
        return result
