"""Tags & FGAC domain: securable/column tags, row filters, column masks.

Tag writes share one mutator-driven commit helper; FGAC policies attach
to tables and are enforced at query time by the authorizer (vending
refuses direct storage access to FGAC-protected tables for untrusted
engines — see the vending domain).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core.auth.fgac import ColumnMask, RowFilter
from repro.core.model.entity import SecurableKind
from repro.core.persistence.store import Tables, WriteOp
from repro.core.service.registry import (
    ClusterBinding,
    EndpointDescriptor,
    ResolveSpec,
    RestBinding,
    RestRequest,
    RouteDecision,
    catalog_route_key,
    route_securable_read,
    route_securable_write,
)
from repro.core.view import MetastoreView
from repro.errors import NotFoundError


def _update_tags(
    svc,
    metastore_id: str,
    principal: str,
    kind: SecurableKind,
    name: str,
    mutator: Callable[[dict], None],
    column: Optional[str] = None,
) -> None:
    def build(view: MetastoreView):
        entity = svc._resolve(view, metastore_id, kind, name)
        svc._authorize(view, metastore_id, principal, entity, "apply_tag", name)
        if column is not None:
            columns = {c["name"] for c in entity.spec.get("columns") or ()}
            if column not in columns:
                raise NotFoundError(f"no such column: {column} in {name}")
        existing = view.row(Tables.TAGS, entity.id) or {}
        tags = {
            "tags": dict(existing.get("tags", {})),
            "column_tags": {
                c: dict(t) for c, t in existing.get("column_tags", {}).items()
            },
        }
        mutator(tags)
        return [WriteOp.put(Tables.TAGS, entity.id, tags)], None

    svc._mutate(metastore_id, build)


def set_tag(svc, ctx) -> None:
    p = ctx.params
    key, value = p["key"], p["value"]
    _update_tags(svc, p["metastore_id"], p["principal"], p["kind"], p["name"],
                 lambda tags: tags["tags"].__setitem__(key, value))


def unset_tag(svc, ctx) -> None:
    p = ctx.params
    key = p["key"]
    _update_tags(svc, p["metastore_id"], p["principal"], p["kind"], p["name"],
                 lambda tags: tags["tags"].pop(key, None))


def set_column_tag(svc, ctx) -> None:
    p = ctx.params
    column, key, value = p["column"], p["key"], p["value"]

    def mutate(tags: dict) -> None:
        tags["column_tags"].setdefault(column, {})[key] = value

    _update_tags(svc, p["metastore_id"], p["principal"], SecurableKind.TABLE,
                 p["table_name"], mutate, column=column)


def tags_of(svc, ctx) -> dict[str, str]:
    return svc.authorizer.tags_of(ctx.view, ctx.entity.id)


# ----------------------------------------------------------------------
# fine-grained access control policies
# ----------------------------------------------------------------------


def set_row_filter(svc, ctx) -> RowFilter:
    p = ctx.params
    metastore_id, principal = p["metastore_id"], p["principal"]
    table_name, filter_name = p["table_name"], p["filter_name"]
    predicate_sql = p["predicate_sql"]
    exempt_principals = tuple(p.get("exempt_principals") or ())

    def build(view: MetastoreView):
        table = svc._resolve(view, metastore_id, SecurableKind.TABLE, table_name)
        svc._authorize(
            view, metastore_id, principal, table, "manage_policies", table_name
        )
        row_filter = RowFilter(
            securable_id=table.id,
            name=filter_name,
            predicate_sql=predicate_sql,
            exempt_principals=frozenset(exempt_principals),
        )
        ops = [WriteOp.put(Tables.POLICIES, row_filter.key, row_filter.to_dict())]
        return ops, row_filter

    return svc._mutate(metastore_id, build)


def drop_row_filter(svc, ctx) -> None:
    p = ctx.params
    metastore_id, principal = p["metastore_id"], p["principal"]
    table_name, filter_name = p["table_name"], p["filter_name"]

    def build(view: MetastoreView):
        table = svc._resolve(view, metastore_id, SecurableKind.TABLE, table_name)
        svc._authorize(
            view, metastore_id, principal, table, "manage_policies", table_name
        )
        key = f"rowfilter/{table.id}/{filter_name}"
        if view.row(Tables.POLICIES, key) is None:
            raise NotFoundError(f"no row filter {filter_name!r} on {table_name}")
        return [WriteOp.delete(Tables.POLICIES, key)], None

    svc._mutate(metastore_id, build)


def set_column_mask(svc, ctx) -> ColumnMask:
    p = ctx.params
    metastore_id, principal = p["metastore_id"], p["principal"]
    table_name, column = p["table_name"], p["column"]
    mask_sql = p["mask_sql"]
    exempt_principals = tuple(p.get("exempt_principals") or ())

    def build(view: MetastoreView):
        table = svc._resolve(view, metastore_id, SecurableKind.TABLE, table_name)
        svc._authorize(
            view, metastore_id, principal, table, "manage_policies", table_name
        )
        columns = {c["name"] for c in table.spec.get("columns") or ()}
        if column not in columns:
            raise NotFoundError(f"no such column: {column} in {table_name}")
        mask = ColumnMask(
            securable_id=table.id,
            column=column,
            mask_sql=mask_sql,
            exempt_principals=frozenset(exempt_principals),
        )
        return [WriteOp.put(Tables.POLICIES, mask.key, mask.to_dict())], mask

    return svc._mutate(metastore_id, build)


def drop_column_mask(svc, ctx) -> None:
    p = ctx.params
    metastore_id, principal = p["metastore_id"], p["principal"]
    table_name, column = p["table_name"], p["column"]

    def build(view: MetastoreView):
        table = svc._resolve(view, metastore_id, SecurableKind.TABLE, table_name)
        svc._authorize(
            view, metastore_id, principal, table, "manage_policies", table_name
        )
        key = f"columnmask/{table.id}/{column}"
        if view.row(Tables.POLICIES, key) is None:
            raise NotFoundError(f"no column mask on {table_name}.{column}")
        return [WriteOp.delete(Tables.POLICIES, key)], None

    svc._mutate(metastore_id, build)


# ----------------------------------------------------------------------
# cluster placement
# ----------------------------------------------------------------------


def _tag_write_plan(p: dict) -> RouteDecision:
    return route_securable_write(p["kind"], p["name"])


def _tag_read_plan(p: dict) -> RouteDecision:
    return route_securable_read(p["kind"], p["name"])


def _table_plan(p: dict) -> RouteDecision:
    return RouteDecision.shard(catalog_route_key(p["table_name"]))


# ----------------------------------------------------------------------
# REST marshalling
# ----------------------------------------------------------------------


def _tag_target(r: RestRequest) -> dict[str, Any]:
    return {
        "metastore_id": r.metastore_id(),
        "principal": r.principal,
        "kind": SecurableKind(r.require("securable_kind")),
        "name": r.require("securable_name"),
    }


def _bind_set_tag(r: RestRequest) -> dict[str, Any]:
    args = _tag_target(r)
    args["key"] = r.body["key"]
    args["value"] = r.body["value"]
    return args


def _bind_unset_tag(r: RestRequest) -> dict[str, Any]:
    args = _tag_target(r)
    args["key"] = r.require("key")
    return args


def _bind_set_column_tag(r: RestRequest) -> dict[str, Any]:
    return {
        "metastore_id": r.metastore_id(),
        "principal": r.principal,
        "table_name": r.require("securable_name"),
        "column": r.body["column"],
        "key": r.body["key"],
        "value": r.body["value"],
    }


def _fgac_table(r: RestRequest) -> dict[str, Any]:
    return {
        "metastore_id": r.metastore_id(),
        "principal": r.principal,
        "table_name": r.require("table"),
    }


def _bind_set_row_filter(r: RestRequest) -> dict[str, Any]:
    args = _fgac_table(r)
    args.update(
        filter_name=r.body["name"],
        predicate_sql=r.body["predicate_sql"],
        exempt_principals=tuple(r.body.get("exempt_principals", ())),
    )
    return args


def _bind_drop_row_filter(r: RestRequest) -> dict[str, Any]:
    args = _fgac_table(r)
    args["filter_name"] = r.require("name")
    return args


def _bind_set_column_mask(r: RestRequest) -> dict[str, Any]:
    args = _fgac_table(r)
    args.update(
        column=r.body["column"],
        mask_sql=r.body["mask_sql"],
        exempt_principals=tuple(r.body.get("exempt_principals", ())),
    )
    return args


def _bind_drop_column_mask(r: RestRequest) -> dict[str, Any]:
    args = _fgac_table(r)
    args["column"] = r.require("column")
    return args


ENDPOINTS = (
    EndpointDescriptor(
        name="set_column_tag",
        domain="tags_fgac",
        handler=set_column_tag,
        mutation=True,
        target_param="table_name",
        cluster=ClusterBinding(plan=_table_plan),
        rest=(
            # registered before set_tag: a body carrying "column" means a
            # column tag, everything else on POST /tags is a securable tag
            RestBinding("POST", "tags", _bind_set_column_tag,
                        when=lambda r: "column" in r.body,
                        render=lambda result, kwargs: {}),
        ),
        doc="Tag one column of a table.",
    ),
    EndpointDescriptor(
        name="set_tag",
        domain="tags_fgac",
        handler=set_tag,
        mutation=True,
        cluster=ClusterBinding(plan=_tag_write_plan),
        rest=(
            RestBinding("POST", "tags", _bind_set_tag,
                        render=lambda result, kwargs: {}),
        ),
        doc="Set a tag on a securable.",
    ),
    EndpointDescriptor(
        name="unset_tag",
        domain="tags_fgac",
        handler=unset_tag,
        mutation=True,
        cluster=ClusterBinding(plan=_tag_write_plan),
        rest=(
            RestBinding("DELETE", "tags", _bind_unset_tag,
                        render=lambda result, kwargs: {}),
        ),
        doc="Remove a tag from a securable.",
    ),
    EndpointDescriptor(
        name="tags_of",
        domain="tags_fgac",
        handler=tags_of,
        resolve=ResolveSpec(),
        operation="read_metadata",
        cluster=ClusterBinding(plan=_tag_read_plan, stale_ok=True),
        rest=(
            RestBinding("GET", "tags", _tag_target,
                        render=lambda result, kwargs: {"tags": result}),
        ),
        doc="Effective tags of a securable (inherited included).",
    ),
    EndpointDescriptor(
        name="set_row_filter",
        domain="tags_fgac",
        handler=set_row_filter,
        mutation=True,
        target_param="table_name",
        cluster=ClusterBinding(plan=_table_plan),
        rest=(
            RestBinding("POST", "row-filters", _bind_set_row_filter, status=201,
                        render=lambda result, kwargs: result.to_dict()),
        ),
        doc="Attach a row filter to a table.",
    ),
    EndpointDescriptor(
        name="drop_row_filter",
        domain="tags_fgac",
        handler=drop_row_filter,
        mutation=True,
        target_param="table_name",
        cluster=ClusterBinding(plan=_table_plan),
        rest=(
            RestBinding("DELETE", "row-filters", _bind_drop_row_filter,
                        render=lambda result, kwargs: {}),
        ),
        doc="Drop a row filter from a table.",
    ),
    EndpointDescriptor(
        name="set_column_mask",
        domain="tags_fgac",
        handler=set_column_mask,
        mutation=True,
        target_param="table_name",
        cluster=ClusterBinding(plan=_table_plan),
        rest=(
            RestBinding("POST", "column-masks", _bind_set_column_mask, status=201,
                        render=lambda result, kwargs: result.to_dict()),
        ),
        doc="Attach a column mask to a table column.",
    ),
    EndpointDescriptor(
        name="drop_column_mask",
        domain="tags_fgac",
        handler=drop_column_mask,
        mutation=True,
        target_param="table_name",
        cluster=ClusterBinding(plan=_table_plan),
        rest=(
            RestBinding("DELETE", "column-masks", _bind_drop_column_mask,
                        render=lambda result, kwargs: {}),
        ),
        doc="Drop a column mask.",
    ),
)
