"""Delta Sharing (paper sections 1, 6.2).

The open protocol for sharing tables with recipients outside the
provider's platform, without copying data. The provider side:

* a *share* securable groups tables,
* a *recipient* securable holds the bearer token an external client
  authenticates with,
* access is granted SQL-style: ``GRANT SELECT ON SHARE s TO recipient``.

The server endpoints mirror the protocol's REST shape: list shares /
schemas / tables, and ``query_table`` which returns table metadata plus
file "URLs" with a short-lived read credential (standing in for the
presigned URLs of the production protocol — same downscoped, expiring
read capability).
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.cloudstore.client import StorageClient
from repro.cloudstore.object_store import StoragePath
from repro.cloudstore.sts import AccessLevel, TemporaryCredential
from repro.core.auth.privileges import Privilege
from repro.core.model.entity import Entity, SecurableKind
from repro.core.persistence.store import Tables, WriteOp
from repro.deltalog.table import DeltaTable
from repro.errors import (
    NotFoundError,
    PermissionDeniedError,
)


@dataclass
class SharedTableQuery:
    """The ``query_table`` response: everything an external Delta Sharing
    client needs to read the table without UC-native access."""

    share: str
    table: str
    schema: list[dict]
    table_root: str
    files: list[dict]  # {"url", "size", "numRecords"}
    credential: TemporaryCredential
    version: int


class DeltaSharingServer:
    """Provider-side endpoints, layered on the catalog service."""

    def __init__(self, service, metastore_id: str):
        self._service = service
        self._metastore_id = metastore_id

    # -- provider administration -------------------------------------------

    def create_share(self, principal: str, name: str) -> Entity:
        return self._service.create_securable(
            self._metastore_id, principal, SecurableKind.SHARE, name
        )

    def create_recipient(self, principal: str, name: str, bearer_token: str) -> Entity:
        """Create the recipient securable and register its identity so
        grants can target it."""
        if not self._service.directory.exists(name):
            self._service.directory.add_service_principal(name)
        return self._service.create_securable(
            self._metastore_id, principal, SecurableKind.RECIPIENT, name,
            spec={"bearer_token": bearer_token},
        )

    def add_table_to_share(
        self, principal: str, share_name: str, table_name: str
    ) -> None:
        """Put a table into a share (requires admin on the share and SELECT
        on the table — the provider can only share what it can read)."""
        service = self._service

        def build(view):
            share = service._resolve(view, self._metastore_id,
                                     SecurableKind.SHARE, share_name)
            service._authorize(view, self._metastore_id, principal, share,
                               "update", share_name)
            table = service._resolve(view, self._metastore_id,
                                     SecurableKind.TABLE, table_name)
            service._authorize(view, self._metastore_id, principal, table,
                               "read_data", table_name)
            key = f"{share.id}/{table.id}"
            row = {"share_id": share.id, "asset_id": table.id,
                   "asset_name": table_name}
            return [WriteOp.put(Tables.SHARES, key, row)], None

        service._mutate(self._metastore_id, build)

    def remove_table_from_share(
        self, principal: str, share_name: str, table_name: str
    ) -> None:
        service = self._service

        def build(view):
            share = service._resolve(view, self._metastore_id,
                                     SecurableKind.SHARE, share_name)
            service._authorize(view, self._metastore_id, principal, share,
                               "update", share_name)
            table = service._resolve(view, self._metastore_id,
                                     SecurableKind.TABLE, table_name)
            key = f"{share.id}/{table.id}"
            if view.row(Tables.SHARES, key) is None:
                raise NotFoundError(f"{table_name} is not in share {share_name}")
            return [WriteOp.delete(Tables.SHARES, key)], None

        service._mutate(self._metastore_id, build)

    def grant_share(self, principal: str, share_name: str, recipient_name: str) -> None:
        self._service.grant(
            self._metastore_id, principal, SecurableKind.SHARE, share_name,
            recipient_name, Privilege.SELECT,
        )

    # -- recipient authentication --------------------------------------------

    def _authenticate(self, bearer_token: str) -> Entity:
        view = self._service.view(self._metastore_id)
        for recipient in view.entities(SecurableKind.RECIPIENT):
            if recipient.spec.get("bearer_token") == bearer_token:
                return recipient
        raise PermissionDeniedError("invalid sharing token")

    def _accessible_shares(self, recipient: Entity) -> list[Entity]:
        view = self._service.view(self._metastore_id)
        identities = self._service.authorizer.identities(recipient.name)
        out = []
        for share in view.entities(SecurableKind.SHARE):
            for grant in view.grants_on(share.id):
                if grant.privilege is Privilege.SELECT and grant.principal in identities:
                    out.append(share)
                    break
        return out

    # -- protocol endpoints -------------------------------------------------------

    def list_shares(self, bearer_token: str) -> list[str]:
        recipient = self._authenticate(bearer_token)
        return sorted(s.name for s in self._accessible_shares(recipient))

    def list_tables(self, bearer_token: str, share_name: str) -> list[str]:
        recipient = self._authenticate(bearer_token)
        share = self._shared_share(recipient, share_name)
        view = self._service.view(self._metastore_id)
        names = []
        for key, row in view.rows(Tables.SHARES):
            if row["share_id"] == share.id:
                names.append(row["asset_name"])
        return sorted(names)

    def list_schemas(self, bearer_token: str, share_name: str) -> list[str]:
        """The protocol's share → schema level: the distinct
        ``catalog.schema`` prefixes of the shared tables."""
        tables = self.list_tables(bearer_token, share_name)
        return sorted({name.rsplit(".", 1)[0] for name in tables})

    def table_version(self, bearer_token: str, share_name: str,
                      table_name: str) -> int:
        """The protocol's version endpoint (clients poll it for changes)."""
        return self.query_table(bearer_token, share_name, table_name).version

    def _shared_share(self, recipient: Entity, share_name: str) -> Entity:
        for share in self._accessible_shares(recipient):
            if share.name == share_name:
                return share
        raise PermissionDeniedError(
            f"recipient {recipient.name!r} has no access to share {share_name!r}"
        )

    def query_table(self, bearer_token: str, share_name: str, table_name: str) -> SharedTableQuery:
        """The data endpoint: metadata + file list + read credential."""
        service = self._service
        recipient = self._authenticate(bearer_token)
        share = self._shared_share(recipient, share_name)
        view = service.view(self._metastore_id)
        membership = None
        for key, row in view.rows(Tables.SHARES):
            if row["share_id"] == share.id and row["asset_name"] == table_name:
                membership = row
                break
        if membership is None:
            raise NotFoundError(f"{table_name} is not in share {share_name}")
        table_entity = view.entity_by_id(membership["asset_id"])
        if table_entity is None or not table_entity.storage_path:
            raise NotFoundError(f"shared table {table_name} is gone")

        # the catalog reads the table under its own authority to build the
        # file list, then vends a read credential scoped to the table
        credential = service.vendor.vend(view, table_entity, AccessLevel.READ)
        client = service.governed_client(credential)
        root = StoragePath.parse(table_entity.storage_path)
        delta = DeltaTable(client, root, clock=service.clock)
        snapshot = delta.snapshot()
        files = [
            {
                "url": root.child(*add.path.split("/")).url(),
                "size": add.size,
                "numRecords": add.stats.num_records,
                "deletionVector": add.deletion_vector,
            }
            for add in snapshot.active_files.values()
        ]
        schema = list(snapshot.metadata.schema) if snapshot.metadata else []
        service._audit(
            self._metastore_id, recipient.name, "sharing_query_table",
            f"{share_name}.{table_name}", True, files=len(files),
        )
        return SharedTableQuery(
            share=share_name,
            table=table_name,
            schema=schema,
            table_root=table_entity.storage_path,
            files=files,
            credential=credential,
            version=snapshot.version,
        )


class DeltaSharingClient:
    """A recipient-side client: reads shared tables with only a bearer
    token and the provider endpoint — no UC account, no raw storage keys."""

    def __init__(self, server: DeltaSharingServer, bearer_token: str,
                 object_store, sts):
        self._server = server
        self._token = bearer_token
        self._object_store = object_store
        self._sts = sts

    def list_shares(self) -> list[str]:
        return self._server.list_shares(self._token)

    def list_tables(self, share: str) -> list[str]:
        return self._server.list_tables(self._token, share)

    def read_table(self, share: str, table: str) -> list[dict]:
        """Fetch the file list then read each file with the vended
        credential (simulated presigned URLs)."""
        from repro.deltalog.deletion_vectors import read_dv
        from repro.deltalog.files import decode_rows

        response = self._server.query_table(self._token, share, table)
        client = StorageClient(self._object_store, self._sts, response.credential)
        root = StoragePath.parse(response.table_root)
        rows: list[dict] = []
        for file_info in response.files:
            blob = client.get(StoragePath.parse(file_info["url"]))
            file_rows = decode_rows(blob)
            dv = None
            if file_info.get("deletionVector"):
                dv = read_dv(client, root, file_info["deletionVector"])
            for ordinal, row in enumerate(file_rows):
                if dv is not None and ordinal in dv:
                    continue
                rows.append(row)
        return rows
