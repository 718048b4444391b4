"""Securables domain: metastores, securable CRUD, and lifecycle (GC).

Handlers receive ``(svc, ctx)`` — the service kernel and the pipeline's
:class:`~repro.core.service.pipeline.RequestContext` — and read their
arguments from ``ctx.params``. Mutations go through the kernel's
optimistic commit loop and therefore re-resolve and re-authorize against
every fresh view; the read endpoints lean on the pipeline's resolution
and authorization interceptors instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.cloudstore.object_store import StoragePath
from repro.core.auth.privileges import Privilege, SYSTEM_PRINCIPAL
from repro.core.model.entity import (
    Entity,
    EntityState,
    SecurableKind,
    new_entity_id,
)
from repro.core.model.naming import validate_identifier
from repro.core.persistence.store import Tables, WriteOp
from repro.core.service.registry import (
    ClusterBinding,
    EndpointDescriptor,
    KIND_RESOURCES,
    REPLICATED_ROOT_KINDS,
    ResolveSpec,
    RestBinding,
    RestRequest,
    RouteDecision,
    catalog_route_key,
    route_securable_read,
    route_securable_write,
)
from repro.core.view import MetastoreView
from repro.errors import (
    AlreadyExistsError,
    InvalidRequestError,
    NotFoundError,
    PathConflictError,
    PermissionDeniedError,
    UnityCatalogError,
)

#: table_type values that carry no backing storage of their own.
_STORAGELESS_TABLE_TYPES = frozenset({"VIEW", "MATERIALIZED_VIEW", "FOREIGN"})


@dataclass
class GcReport:
    """Outcome of one garbage-collection pass."""

    purged_entities: int = 0
    purged_grants: int = 0
    deleted_objects: int = 0


# ----------------------------------------------------------------------
# metastore management
# ----------------------------------------------------------------------


def create_metastore(svc, ctx) -> Entity:
    """Create a metastore: the namespace root and unit of isolation."""
    p = ctx.params
    name, owner = p["name"], p["owner"]
    region = p.get("region", "us-west")
    validate_identifier(name, what="metastore name")
    svc.directory.get(owner)
    with svc._lock:
        if svc._metastore_named(name) is not None:
            raise AlreadyExistsError(f"metastore exists: {name}")
        # a cluster pre-mints the id so every shard replica shares it
        metastore_id = p.get("metastore_id") or new_entity_id()
        svc.store.create_metastore_slot(metastore_id)
        now = svc.clock.now()
        entity = Entity(
            id=metastore_id,
            kind=SecurableKind.METASTORE,
            name=name,
            metastore_id=metastore_id,
            parent_id=None,
            owner=owner,
            created_at=now,
            updated_at=now,
            spec={"region": region},
        )
        svc.store.commit(
            metastore_id, 0,
            [WriteOp.put(Tables.ENTITIES, metastore_id, entity.to_row())],
        )
        # memoise the committed name: the first touch then attaches the
        # caches without a root-row read that requests would be charged
        svc._memoise(name, metastore_id)
    svc._audit(metastore_id, owner, "create_metastore", name, True)
    return entity


def list_metastores(svc, ctx) -> list[str]:
    return svc.metastore_ids()


# ----------------------------------------------------------------------
# securable CRUD
# ----------------------------------------------------------------------


def _refuse_metastore(kind: SecurableKind) -> None:
    """A metastore is made only by ``create_metastore``, and its root row
    is never renamed or deleted: every service over the store finds a
    metastore by that row's name (``MetadataStore.metastore_name``) and
    memoises it, so a changed root row would leave the services over one
    store disagreeing on which metastores exist."""
    if kind is SecurableKind.METASTORE:
        raise InvalidRequestError("use create_metastore")


def create_securable(svc, ctx) -> Entity:
    """Create any securable; behaviour is driven by its manifest."""
    p = ctx.params
    metastore_id, principal = p["metastore_id"], p["principal"]
    kind, name = p["kind"], p["name"]
    comment = p.get("comment") or ""
    storage_path = p.get("storage_path")
    spec, properties = p.get("spec"), p.get("properties")
    _refuse_metastore(kind)
    manifest = svc.registry.get(kind)

    def build(view: MetastoreView):
        parent, leaf_name = svc._parent_of(view, metastore_id, kind, name)
        identities = svc.authorizer.identities(principal)

        # usage gates along the parent chain (including the parent)
        gates = svc.authorizer.check_usage_gates(view, parent, identities)
        gates.raise_if_denied()
        if parent.kind in (SecurableKind.CATALOG, SecurableKind.SCHEMA):
            needed = (
                Privilege.USE_CATALOG
                if parent.kind is SecurableKind.CATALOG
                else Privilege.USE_SCHEMA
            )
            if not (
                svc.authorizer.is_owner_or_admin(view, parent, identities)
                or svc.authorizer.has_privilege(view, parent, needed, identities)
            ):
                raise PermissionDeniedError(
                    f"missing {needed.value} on {parent.name!r}"
                )

        # creation privilege on the parent (admins always may)
        create_privilege = manifest.create_privilege
        allowed = svc.authorizer.is_owner_or_admin(view, parent, identities)
        if not allowed and create_privilege is not None:
            allowed = svc.authorizer.has_privilege(
                view, parent, create_privilege, identities
            )
        if not allowed:
            raise PermissionDeniedError(
                f"{principal!r} may not create {kind.value.lower()} in "
                f"{parent.name!r}"
            )

        # name uniqueness within (parent, namespace group)
        if view.entity_by_name(parent.id, manifest.namespace_group, leaf_name):
            raise AlreadyExistsError(
                f"{kind.value.lower()} already exists: {name}"
            )

        normalized = manifest.validate_create(dict(spec or {}))
        entity_id = p.get("entity_id") or new_entity_id()
        entity_storage = _prepare_storage(
            svc, view, metastore_id, manifest, normalized, storage_path,
            entity_id, parent, identities, principal,
        )
        _validate_dependencies(svc, view, metastore_id, normalized, principal)

        now = svc.clock.now()
        entity = Entity(
            id=entity_id,
            kind=kind,
            name=leaf_name,
            metastore_id=metastore_id,
            parent_id=parent.id,
            owner=principal,
            created_at=now,
            updated_at=now,
            comment=comment,
            storage_path=entity_storage,
            properties=dict(properties or {}),
            spec=normalized,
        )
        return [WriteOp.put(Tables.ENTITIES, entity_id, entity.to_row())], entity

    entity = svc._mutate(metastore_id, build)
    svc._audit(metastore_id, principal, "create", name, True, kind=kind.value)
    return entity


def _prepare_storage(
    svc,
    view: MetastoreView,
    metastore_id: str,
    manifest,
    normalized: dict,
    storage_path: Optional[str],
    entity_id: str,
    parent: Entity,
    identities: frozenset[str],
    principal: str,
) -> Optional[str]:
    """Allocate managed storage or validate external storage."""
    kind = manifest.kind
    if not manifest.has_storage:
        if storage_path:
            raise InvalidRequestError(
                f"{kind.value.lower()} does not take a storage path"
            )
        return None

    if kind is SecurableKind.TABLE:
        table_type = normalized.get("table_type")
        if table_type in _STORAGELESS_TABLE_TYPES:
            if storage_path:
                raise InvalidRequestError(f"{table_type} tables have no storage")
            return None
        managed = table_type in ("MANAGED", "SHALLOW_CLONE")
    elif kind is SecurableKind.VOLUME:
        managed = normalized.get("volume_type") == "MANAGED"
    elif kind is SecurableKind.MODEL_VERSION:
        # artifacts live under the registered model's managed directory
        base = parent.storage_path
        if base is None:
            raise InvalidRequestError("parent model has no artifact storage")
        return StoragePath.parse(base).child(f"v{normalized['version']}").url()
    else:
        managed = True  # registered models, external locations handled below

    if kind is SecurableKind.EXTERNAL_LOCATION:
        if not storage_path:
            raise InvalidRequestError("external locations require a storage path")
        location_path = StoragePath.parse(storage_path)
        for other in view.entities(SecurableKind.EXTERNAL_LOCATION):
            if other.storage_path and StoragePath.parse(other.storage_path).overlaps(
                location_path
            ):
                raise PathConflictError(
                    f"location path overlaps external location {other.name!r}"
                )
        credential_name = normalized.get("credential_name")
        credential = view.entity_by_name(
            metastore_id, "storage_credential", credential_name
        )
        if credential is None:
            raise NotFoundError(f"no such storage credential: {credential_name}")
        svc.object_store.ensure_bucket(location_path.scheme, location_path.bucket)
        return location_path.url()

    if managed:
        if storage_path:
            raise InvalidRequestError("managed assets get catalog-allocated paths")
        allocated = svc._managed_root.child(
            metastore_id, kind.value.lower() + "s", entity_id
        )
        return allocated.url()

    # external table/volume: path must be provided, free of overlaps,
    # and covered by an external location the caller may use.
    if not storage_path:
        raise InvalidRequestError(
            f"external {kind.value.lower()} requires a storage path"
        )
    path = StoragePath.parse(storage_path)
    overlapping = view.overlapping_assets(path)
    if overlapping:
        raise PathConflictError(
            f"path {path.url()} overlaps asset(s) {sorted(overlapping)}"
        )
    location = _covering_location(view, path)
    if location is None:
        raise PermissionDeniedError(
            f"no external location covers {path.url()}"
        )
    needed = (
        Privilege.CREATE_TABLE
        if kind is SecurableKind.TABLE
        else Privilege.WRITE_FILES
    )
    if not (
        svc.authorizer.is_owner_or_admin(view, location, identities)
        or svc.authorizer.has_privilege(view, location, needed, identities)
    ):
        raise PermissionDeniedError(
            f"{principal!r} lacks {needed.value} on external location "
            f"{location.name!r}"
        )
    return path.url()


def _covering_location(view: MetastoreView, path: StoragePath) -> Optional[Entity]:
    for location in view.entities(SecurableKind.EXTERNAL_LOCATION):
        if location.storage_path and StoragePath.parse(
            location.storage_path
        ).contains(path):
            return location
    return None


def _validate_dependencies(
    svc, view: MetastoreView, metastore_id: str, normalized: dict, principal: str
) -> None:
    """Views and shallow clones need resolvable, readable bases."""
    dependencies = list(normalized.get("view_dependencies") or ())
    base_table = normalized.get("base_table")
    if base_table:
        dependencies.append(base_table)
    for dependency in dependencies:
        base = svc._resolve(view, metastore_id, SecurableKind.TABLE, dependency)
        decision = svc.authorizer.authorize(view, base, "read_data", principal)
        if not decision.allowed:
            raise PermissionDeniedError(
                f"creating requires SELECT on base table {dependency}: "
                f"{decision.reason}"
            )


def get_securable(svc, ctx) -> Entity:
    # resolution + authorization already ran as pipeline interceptors
    return ctx.entity


def list_securables(svc, ctx) -> list[Entity]:
    """List children of a container, filtered to what the caller may see."""
    p = ctx.params
    metastore_id, principal = p["metastore_id"], p["principal"]
    kind, parent_name = p["kind"], p.get("parent_name")
    view = svc.view(metastore_id)
    manifest = svc.registry.get(kind)
    if parent_name is None:
        parent_id = metastore_id
    else:
        parent_kind = manifest.parent_kind
        parent = svc._resolve(view, metastore_id, parent_kind, parent_name)
        parent_id = parent.id
    children = view.children(parent_id, kind)
    identities = svc.authorizer.identities(principal)
    cache = svc._hot_caches_for(metastore_id, view)
    visible = [
        child for child in children
        if svc.authorizer.visible(view, child, identities, cache)
    ]
    svc._audit(metastore_id, principal, "list", parent_name or "<root>",
               True, kind=kind.value, returned=len(visible))
    return sorted(visible, key=lambda e: e.name)


def update_securable(svc, ctx) -> Entity:
    p = ctx.params
    metastore_id, principal = p["metastore_id"], p["principal"]
    kind, name = p["kind"], p["name"]
    comment = p.get("comment")
    properties, spec_changes = p.get("properties"), p.get("spec_changes")
    manifest = svc.registry.get(kind)

    def build(view: MetastoreView):
        entity = svc._resolve(view, metastore_id, kind, name)
        svc._authorize(view, metastore_id, principal, entity, "update", name)
        changes: dict[str, Any] = {}
        if comment is not None:
            changes["comment"] = comment
        if properties is not None:
            merged = dict(entity.properties)
            merged.update(properties)
            changes["properties"] = merged
        if spec_changes:
            normalized = manifest.validate_update(dict(spec_changes))
            new_spec = dict(entity.spec)
            new_spec.update(normalized)
            changes["spec"] = new_spec
        if not changes:
            return [], entity
        updated = entity.with_updates(updated_at=svc.clock.now(), **changes)
        return [WriteOp.put(Tables.ENTITIES, entity.id, updated.to_row())], updated

    return svc._mutate(metastore_id, build)


def rename_securable(svc, ctx) -> Entity:
    """Rename within the same parent (e.g. ALTER TABLE ... RENAME).

    The storage path is untouched: names are a catalog concept, the
    asset's data never moves (and path-based access keeps resolving
    to the same asset).
    """
    p = ctx.params
    metastore_id, principal = p["metastore_id"], p["principal"]
    kind, name, new_name = p["kind"], p["name"], p["new_name"]
    _refuse_metastore(kind)
    validate_identifier(new_name, what="new name")
    manifest = svc.registry.get(kind)

    def build(view: MetastoreView):
        entity = svc._resolve(view, metastore_id, kind, name)
        svc._authorize(view, metastore_id, principal, entity, "update", name)
        if view.entity_by_name(entity.parent_id, manifest.namespace_group,
                               new_name):
            raise AlreadyExistsError(
                f"{kind.value.lower()} already exists: {new_name}"
            )
        renamed = entity.with_updates(updated_at=svc.clock.now(),
                                      name=new_name)
        return [WriteOp.put(Tables.ENTITIES, entity.id, renamed.to_row())], renamed

    return svc._mutate(metastore_id, build)


def transfer_ownership(svc, ctx) -> Entity:
    p = ctx.params
    metastore_id, principal = p["metastore_id"], p["principal"]
    kind, name, new_owner = p["kind"], p["name"], p["new_owner"]
    svc.directory.get(new_owner)

    def build(view: MetastoreView):
        entity = svc._resolve(view, metastore_id, kind, name)
        svc._authorize(
            view, metastore_id, principal, entity, "transfer_ownership", name
        )
        updated = entity.with_updates(updated_at=svc.clock.now(), owner=new_owner)
        return [WriteOp.put(Tables.ENTITIES, entity.id, updated.to_row())], updated

    return svc._mutate(metastore_id, build)


def delete_securable(svc, ctx) -> list[Entity]:
    """Soft-delete a securable (and, with ``cascade``, its children).

    Deletion propagates from parents to children (paper 4.2.1); the
    rows and managed storage remain until :func:`purge_deleted` runs.
    """
    p = ctx.params
    metastore_id, principal = p["metastore_id"], p["principal"]
    kind, name = p["kind"], p["name"]
    cascade = bool(p.get("cascade", False))
    _refuse_metastore(kind)

    def build(view: MetastoreView):
        entity = svc._resolve(view, metastore_id, kind, name)
        svc._authorize(view, metastore_id, principal, entity, "delete", name)
        doomed = _collect_subtree(view, entity)
        if len(doomed) > 1 and not cascade:
            raise InvalidRequestError(
                f"{name} has {len(doomed) - 1} child securable(s); "
                "pass cascade=True"
            )
        now = svc.clock.now()
        deleted_entities = [victim.soft_deleted(now) for victim in doomed]
        ops = [WriteOp.put(Tables.ENTITIES, marked.id, marked.to_row())
               for marked in deleted_entities]
        return ops, deleted_entities

    deleted = svc._mutate(metastore_id, build)
    svc._audit(metastore_id, principal, "delete", name, True,
               cascade=cascade, count=len(deleted))
    return deleted


def _collect_subtree(view: MetastoreView, root: Entity) -> list[Entity]:
    """The entity plus all transitive active children (parents first)."""
    out = [root]
    frontier = [root]
    while frontier:
        current = frontier.pop()
        for child in view.children(current.id):
            out.append(child)
            frontier.append(child)
    return out


# ----------------------------------------------------------------------
# lifecycle: garbage collection
# ----------------------------------------------------------------------


def purge_deleted(svc, ctx) -> GcReport:
    """Hard-delete soft-deleted entities and release their resources.

    Runs under the catalog's own authority (it owns managed storage).
    ``build`` may run more than once (a conflict or a transient store
    error retries it), so it counts afresh each time and only collects
    the managed paths; their storage is deleted once the commit lands.
    """
    p = ctx.params
    metastore_id = p["metastore_id"]
    older_than_seconds = float(p.get("older_than_seconds", 0.0))
    cutoff = svc.clock.now() - older_than_seconds

    def build(view: MetastoreView):
        report = GcReport()
        ops: list[WriteOp] = []
        purged: set[str] = set()
        released: list[StoragePath] = []
        # raw_snapshot (not store.snapshot): purge must observe the
        # request's branch overlay, and soft-deleted rows live below
        # the entity view
        snapshot = svc.raw_snapshot(metastore_id)
        for key, value in snapshot.scan(Tables.ENTITIES):
            entity = Entity.from_dict(value)
            if entity.state is not EntityState.DELETED:
                continue
            if entity.deleted_at is not None and entity.deleted_at > cutoff:
                continue
            ops.append(WriteOp.delete(Tables.ENTITIES, entity.id))
            report.purged_entities += 1
            purged.add(entity.id)
            # drop grants on the purged securable (grant keys start with
            # the securable id, so this is one range read on prefix-
            # ordered backends)
            for grant_key, _ in snapshot.scan_prefix(
                Tables.GRANTS, f"{entity.id}/"
            ):
                ops.append(WriteOp.delete(Tables.GRANTS, grant_key))
                report.purged_grants += 1
            if snapshot.get(Tables.TAGS, entity.id) is not None:
                ops.append(WriteOp.delete(Tables.TAGS, entity.id))
            if entity.storage_path and svc._is_managed_path(entity.storage_path):
                released.append(StoragePath.parse(entity.storage_path))
        # per-table policies: one policy scan for the whole purge
        if purged:
            for policy_key, policy_value in snapshot.scan(Tables.POLICIES):
                if (policy_value.get("securable_id") in purged
                        or policy_value.get("scope_id") in purged):
                    ops.append(WriteOp.delete(Tables.POLICIES, policy_key))
        return ops, (report, released)

    report, released = svc._mutate(metastore_id, build)
    # the rows are gone, so no later purge finds these paths again: one
    # failed release must not stop the rest, and the audit names the
    # paths left behind before the error goes to the caller
    unreleased: list[str] = []
    error: Optional[UnityCatalogError] = None
    for path in released:
        try:
            report.deleted_objects += svc.object_store.delete_prefix(path)
        except UnityCatalogError as exc:
            unreleased.append(path.url())
            error = error or exc
    details = {"unreleased": unreleased} if unreleased else {}
    svc._audit(metastore_id, SYSTEM_PRINCIPAL, "purge_deleted", "<gc>", True,
               purged=report.purged_entities, **details)
    if error is not None:
        raise error
    return report


# ----------------------------------------------------------------------
# cluster placement
# ----------------------------------------------------------------------


def _merge_entity_lists(results: list, params: dict) -> list[Entity]:
    return sorted((e for shard_result in results for e in shard_result),
                  key=lambda e: e.name)


def _merge_gc(results: list, params: dict) -> GcReport:
    # note: replicated metastore-scope rows are purged once per shard, so
    # cluster-wide entity/grant counts exceed the single-node numbers;
    # object deletions go through the shared object store and stay exact.
    total = GcReport()
    for report in results:
        total.purged_entities += report.purged_entities
        total.purged_grants += report.purged_grants
        total.deleted_objects += report.deleted_objects
    return total


def _plan_list(p: dict) -> RouteDecision:
    kind = p["kind"]
    if kind is SecurableKind.CATALOG:
        return RouteDecision.scatter(_merge_entity_lists)
    if kind in REPLICATED_ROOT_KINDS:
        return RouteDecision.home()
    parent_name = p.get("parent_name")
    if parent_name is None:
        return RouteDecision.home()
    return RouteDecision.shard(catalog_route_key(parent_name))


def _plan_rename(p: dict) -> RouteDecision:
    if p["kind"] is SecurableKind.CATALOG:
        return RouteDecision.move(p["name"], p["new_name"])
    return route_securable_write(p["kind"], p["name"])


def _write_plan(p: dict) -> RouteDecision:
    return route_securable_write(p["kind"], p["name"])


def _read_plan(p: dict) -> RouteDecision:
    return route_securable_read(p["kind"], p["name"])


# ----------------------------------------------------------------------
# REST marshalling
# ----------------------------------------------------------------------


def _securable_args(r: RestRequest) -> dict[str, Any]:
    return {
        "metastore_id": r.metastore_id(),
        "principal": r.principal,
        "kind": r.kind,
    }


def _bind_create_metastore(r: RestRequest) -> dict[str, Any]:
    return {
        "name": r.body["name"],
        "owner": r.body.get("owner", r.principal),
        "region": r.body.get("region", "us-west"),
    }


def _bind_create(r: RestRequest) -> dict[str, Any]:
    args = _securable_args(r)
    args.update(
        name=r.body["name"],
        comment=r.body.get("comment", ""),
        storage_path=r.body.get("storage_location"),
        spec=r.body.get("spec"),
        properties=r.body.get("properties"),
    )
    return args


def _bind_list(r: RestRequest) -> dict[str, Any]:
    args = _securable_args(r)
    args["parent_name"] = r.params.get("parent")
    return args


def _bind_named(r: RestRequest) -> dict[str, Any]:
    args = _securable_args(r)
    args["name"] = r.require_name()
    return args


def _bind_update(r: RestRequest) -> dict[str, Any]:
    args = _bind_named(r)
    args.update(
        comment=r.body.get("comment"),
        properties=r.body.get("properties"),
        spec_changes=r.body.get("spec"),
    )
    return args


def _bind_rename(r: RestRequest) -> dict[str, Any]:
    args = _bind_named(r)
    args["new_name"] = r.body["new_name"]
    return args


def _bind_transfer(r: RestRequest) -> dict[str, Any]:
    args = _bind_named(r)
    args["new_owner"] = r.body["new_owner"]
    return args


def _bind_delete(r: RestRequest) -> dict[str, Any]:
    args = _bind_named(r)
    args["cascade"] = r.params.get("cascade", "false").lower() == "true"
    return args


def _bind_metastore_rename(r: RestRequest) -> dict[str, Any]:
    # /metastores/<name>: reaches the handler, which refuses (and audits)
    return {**_bind_rename(r), "kind": SecurableKind.METASTORE}


def _bind_metastore_delete(r: RestRequest) -> dict[str, Any]:
    return {**_bind_delete(r), "kind": SecurableKind.METASTORE}


def _bind_purge(r: RestRequest) -> dict[str, Any]:
    return {
        "metastore_id": r.metastore_id(),
        "older_than_seconds": float(r.field_any("older_than_seconds", 0.0)),
    }


ENDPOINTS = (
    EndpointDescriptor(
        name="create_metastore",
        domain="securables",
        handler=create_metastore,
        mutation=True,
        principal_param="owner",
        cluster=ClusterBinding(
            plan=lambda p: RouteDecision.broadcast(),
            mint_params=("metastore_id",),
        ),
        rest=(
            RestBinding("POST", "metastores", _bind_create_metastore, status=201),
        ),
        doc="Create a metastore (namespace root, unit of isolation).",
    ),
    EndpointDescriptor(
        name="list_metastores",
        domain="securables",
        handler=list_metastores,
        target_param=None,
        rest=(
            RestBinding("GET", "metastores", lambda r: {},
                        render=lambda result, kwargs: {"metastores": result}),
        ),
        doc="List registered metastore ids.",
    ),
    EndpointDescriptor(
        name="create_securable",
        domain="securables",
        handler=create_securable,
        mutation=True,
        cluster=ClusterBinding(plan=_write_plan, mint_params=("entity_id",)),
        rest=(
            RestBinding("POST", KIND_RESOURCES, _bind_create, status=201),
        ),
        doc="Create any securable; behaviour driven by its manifest.",
    ),
    EndpointDescriptor(
        name="get_securable",
        domain="securables",
        handler=get_securable,
        resolve=ResolveSpec(),
        operation="read_metadata",
        cluster=ClusterBinding(plan=_read_plan, stale_ok=True),
        rest=(
            RestBinding("GET", KIND_RESOURCES, _bind_named, named=True),
        ),
        doc="Fetch one securable by fully qualified name.",
    ),
    EndpointDescriptor(
        name="list_securables",
        domain="securables",
        handler=list_securables,
        target_param="parent_name",
        cluster=ClusterBinding(plan=_plan_list, stale_ok=True),
        rest=(
            RestBinding(
                "GET", KIND_RESOURCES, _bind_list,
                render=lambda result, kwargs: {
                    "items": [e.rendering() for e in result]
                },
            ),
        ),
        doc="List children of a container, filtered by visibility.",
    ),
    EndpointDescriptor(
        name="rename_securable",
        domain="securables",
        handler=rename_securable,
        mutation=True,
        cluster=ClusterBinding(plan=_plan_rename),
        rest=(
            RestBinding("PATCH", KIND_RESOURCES, _bind_rename, named=True,
                        when=lambda r: "new_name" in r.body),
            RestBinding("PATCH", "metastores", _bind_metastore_rename,
                        named=True, when=lambda r: "new_name" in r.body),
        ),
        doc="Rename a securable within its parent.",
    ),
    EndpointDescriptor(
        name="transfer_ownership",
        domain="securables",
        handler=transfer_ownership,
        mutation=True,
        cluster=ClusterBinding(plan=_write_plan),
        rest=(
            RestBinding("PATCH", KIND_RESOURCES, _bind_transfer, named=True,
                        when=lambda r: "new_owner" in r.body),
        ),
        doc="Transfer ownership of a securable.",
    ),
    EndpointDescriptor(
        name="update_securable",
        domain="securables",
        handler=update_securable,
        mutation=True,
        cluster=ClusterBinding(plan=_write_plan),
        rest=(
            # registered after rename/transfer: their `when` guards get
            # first pick of the shared PATCH route
            RestBinding("PATCH", KIND_RESOURCES, _bind_update, named=True),
        ),
        doc="Update comment/properties/spec of a securable.",
    ),
    EndpointDescriptor(
        name="delete_securable",
        domain="securables",
        handler=delete_securable,
        mutation=True,
        cluster=ClusterBinding(plan=_write_plan),
        rest=(
            RestBinding("DELETE", KIND_RESOURCES, _bind_delete, named=True,
                        render=lambda result, kwargs: {"deleted": len(result)}),
            RestBinding("DELETE", "metastores", _bind_metastore_delete,
                        named=True,
                        render=lambda result, kwargs: {"deleted": len(result)}),
        ),
        doc="Soft-delete a securable (cascade optional).",
    ),
    EndpointDescriptor(
        name="purge_deleted",
        domain="securables",
        handler=purge_deleted,
        mutation=True,
        target_param=None,
        cluster=ClusterBinding(plan=lambda p: RouteDecision.scatter(_merge_gc)),
        rest=(
            RestBinding(
                "POST", "purge-deleted", _bind_purge,
                render=lambda result, kwargs: {
                    "purged_entities": result.purged_entities,
                    "purged_grants": result.purged_grants,
                    "deleted_objects": result.deleted_objects,
                },
            ),
        ),
        doc="Hard-delete soft-deleted entities and release storage.",
    ),
)
