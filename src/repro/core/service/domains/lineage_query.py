"""Lineage & query domain: lineage capture/traversal, information
schema, batched query resolution, and discovery filtering (§4.2.2, §4.4,
§4.5).

Every read here is visibility-filtered through the authorizer (with the
version-pinned hot caches when available), so discovery surfaces never
leak names the caller cannot see.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.model.entity import Entity, SecurableKind
from repro.core.service.registry import (
    ClusterBinding,
    EndpointDescriptor,
    REPLICATED_ROOT_KINDS,
    RestBinding,
    RestRequest,
    RouteDecision,
    catalog_route_key,
)
from repro.errors import InvalidRequestError, NotFoundError


def record_lineage(svc, ctx) -> None:
    """Engines submit lineage during query processing."""
    p = ctx.params
    metastore_id, principal = p["metastore_id"], p["principal"]
    sources, target = p["sources"], p["target"]
    operation = p["operation"]
    columns = tuple(p.get("columns") or ())
    svc.lineage.record(
        metastore_id, principal, sources, target, operation,
        svc.clock.now(), columns,
    )
    svc._audit(metastore_id, principal, "record_lineage", target, True,
               sources=len(sources), operation=operation)


def lineage(svc, ctx) -> set[str]:
    """Lineage closure in one direction, filtered to visible assets."""
    p = ctx.params
    metastore_id, principal = p["metastore_id"], p["principal"]
    asset = p["asset"]
    direction = p.get("direction", "downstream")
    if direction == "downstream":
        closure = svc.lineage.downstream(metastore_id, asset)
    elif direction == "upstream":
        closure = svc.lineage.upstream(metastore_id, asset)
    else:
        raise InvalidRequestError("direction must be upstream/downstream")
    return _filter_lineage_names(svc, metastore_id, principal, closure)


def _filter_lineage_names(
    svc, metastore_id: str, principal: str, names: set[str]
) -> set[str]:
    view = svc.view(metastore_id)
    identities = svc.authorizer.identities(principal)
    cache = svc._hot_caches_for(metastore_id, view)
    visible = set()
    for name in names:
        try:
            entity = svc._resolve(view, metastore_id, SecurableKind.TABLE, name)
        except NotFoundError:
            continue
        if svc.authorizer.visible(view, entity, identities, cache):
            visible.add(name)
    return visible


def query_information_schema(svc, ctx) -> list[dict[str, Any]]:
    """Relational view over catalog metadata, with pushdown.

    ``where`` is a conjunction of ``(attribute, op, literal)`` with op
    in ``= != < <= > >=``; attributes are the returned column names.
    Results are filtered to what the caller may see, like any listing.
    """
    p = ctx.params
    metastore_id, principal = p["metastore_id"], p["principal"]
    kind = p["kind"]
    catalog, schema = p.get("catalog"), p.get("schema")
    where = tuple(p.get("where") or ())
    limit = p.get("limit")
    view = svc.view(metastore_id)
    rows: list[dict[str, Any]] = []
    identities = svc.authorizer.identities(principal)
    cache = svc._hot_caches_for(metastore_id, view)
    operators: dict[str, Callable[[Any, Any], bool]] = {
        "=": lambda a, b: a == b,
        "!=": lambda a, b: a != b,
        "<": lambda a, b: a is not None and a < b,
        "<=": lambda a, b: a is not None and a <= b,
        ">": lambda a, b: a is not None and a > b,
        ">=": lambda a, b: a is not None and a >= b,
    }
    for entity in view.entities(kind):
        full_name = view.full_name(entity)
        segments = full_name.split(".")
        row = {
            "name": entity.name,
            "full_name": full_name,
            "catalog_name": segments[0] if len(segments) > 1 else None,
            "schema_name": segments[1] if len(segments) > 2 else None,
            "kind": entity.kind.value,
            "owner": entity.owner,
            "comment": entity.comment,
            "created_at": entity.created_at,
            "updated_at": entity.updated_at,
            "storage_path": entity.storage_path,
            "table_type": entity.spec.get("table_type"),
            "format": entity.spec.get("format"),
        }
        if catalog is not None and row["catalog_name"] != catalog:
            continue
        if schema is not None and row["schema_name"] != schema:
            continue
        matched = True
        for attribute, op, literal in where:
            if op not in operators:
                raise InvalidRequestError(f"unsupported operator {op!r}")
            if attribute not in row:
                raise InvalidRequestError(
                    f"unknown information_schema column {attribute!r}"
                )
            if not operators[op](row[attribute], literal):
                matched = False
                break
        if not matched:
            continue
        if not svc.authorizer.visible(view, entity, identities, cache):
            continue
        rows.append(row)
        if limit is not None and len(rows) >= limit:
            break
    svc._audit(metastore_id, principal, "information_schema",
               kind.value, True, returned=len(rows))
    return sorted(rows, key=lambda r: r["full_name"])


def resolve_for_query(svc, ctx):
    """One batched API call returning the full metadata closure for a
    query (see :mod:`repro.core.service.batch`)."""
    from repro.core.service.batch import QueryResolver

    p = ctx.params
    return QueryResolver(svc).resolve(
        p["metastore_id"],
        p["principal"],
        p["table_names"],
        write_tables=tuple(p.get("write_tables") or ()),
        function_names=tuple(p.get("function_names") or ()),
        include_credentials=bool(p.get("include_credentials", True)),
        engine_trusted=p.get("engine_trusted"),
        workspace=p.get("workspace"),
    )


def filter_visible_entities(svc, ctx) -> list[Entity]:
    """Discovery authorization API (§4.4): batch visibility filter."""
    p = ctx.params
    metastore_id = p["metastore_id"]
    view = svc.view(metastore_id)
    cache = svc._hot_caches_for(metastore_id, view)
    return svc.authorizer.filter_visible(view, p["entities"], p["principal"], cache)


# ----------------------------------------------------------------------
# cluster placement
# ----------------------------------------------------------------------


def _merge_name_sets(results: list, params: dict) -> set[str]:
    # the lineage graph is replicated (record_lineage broadcasts), so each
    # shard computes the same closure but can only vouch for the
    # visibility of tables it owns; the union is the 1-node answer
    merged: set[str] = set()
    for shard_result in results:
        merged |= shard_result
    return merged


def _merge_info_rows(results: list, params: dict) -> list[dict[str, Any]]:
    rows = [row for shard_rows in results for row in shard_rows]
    rows.sort(key=lambda row: row["full_name"])
    limit = params.get("limit")
    return rows[:limit] if limit is not None else rows


def _plan_info_schema(p: dict) -> RouteDecision:
    if p["kind"] in REPLICATED_ROOT_KINDS:
        return RouteDecision.home()
    if p.get("catalog") is not None:
        return RouteDecision.shard(p["catalog"])
    return RouteDecision.scatter(_merge_info_rows)


def _split_resolve(p: dict) -> dict[str, dict]:
    """Partition a batched resolution by catalog route key."""
    subs: dict[str, dict] = {}

    def sub(key: str) -> dict:
        if key not in subs:
            partial = dict(p)
            partial["table_names"] = []
            partial["write_tables"] = []
            partial["function_names"] = []
            subs[key] = partial
        return subs[key]

    for name in p["table_names"]:
        sub(catalog_route_key(name))["table_names"].append(name)
    for name in p.get("write_tables") or ():
        sub(catalog_route_key(name))["write_tables"].append(name)
    for name in p.get("function_names") or ():
        sub(catalog_route_key(name))["function_names"].append(name)
    return subs


def _merge_resolutions(results: list, params: dict):
    from repro.core.service.batch import QueryResolution

    assets: dict = {}
    functions: dict = {}
    version = 0
    catalog_versions: dict[str, int] = {}
    for resolution in results:
        assets.update(resolution.assets)
        functions.update(resolution.functions)
        # each shard's store versions independently: the scalar max is
        # only an upper bound, so record the real per-catalog versions
        # for clients that pin (fast path / read_version_check)
        version = max(version, resolution.metastore_version)
        for name in list(resolution.assets) + list(resolution.functions):
            # branched shard resolutions pin under catalog@branch so a
            # trunk pin for the same catalog can coexist in one response
            catalog_versions[resolution.pin_key(name)] = \
                resolution.metastore_version
    return QueryResolution(
        metastore_version=version,
        principal=results[0].principal,
        assets=assets,
        functions=functions,
        catalog_versions=catalog_versions,
        branch=results[0].branch,
    )


def _merge_visible(results: list, params: dict) -> list[Entity]:
    visible_ids = {
        entity.id for shard_result in results for entity in shard_result
    }
    return [e for e in params["entities"] if e.id in visible_ids]


# ----------------------------------------------------------------------
# REST marshalling
# ----------------------------------------------------------------------


def _bind_record_lineage(r: RestRequest) -> dict[str, Any]:
    return {
        "metastore_id": r.metastore_id(),
        "principal": r.principal,
        "sources": list(r.body.get("sources", ())),
        "target": r.body["target"],
        "operation": r.body.get("operation", "WRITE"),
        "columns": tuple(r.body.get("columns", ())),
    }


def _bind_lineage(r: RestRequest) -> dict[str, Any]:
    return {
        "metastore_id": r.metastore_id(),
        "principal": r.principal,
        "asset": r.require("asset"),
        "direction": r.params.get("direction", "downstream"),
    }


def _render_lineage(result, kwargs) -> dict[str, Any]:
    return {
        "asset": kwargs["asset"],
        "direction": kwargs["direction"],
        "assets": sorted(result),
    }


def _bind_information_schema(r: RestRequest) -> dict[str, Any]:
    where = tuple(
        (c["column"], c["op"], c["value"]) for c in r.body.get("where", ())
    )
    return {
        "metastore_id": r.metastore_id(),
        "principal": r.principal,
        "kind": SecurableKind(
            r.params.get("kind") or r.body.get("kind", "TABLE")
        ),
        "catalog": r.field_any("catalog"),
        "schema": r.field_any("schema"),
        "where": where,
        "limit": (
            int(r.params["limit"]) if "limit" in r.params
            else r.body.get("limit")
        ),
    }


def _bind_resolve(r: RestRequest) -> dict[str, Any]:
    return {
        "metastore_id": r.metastore_id(),
        "principal": r.principal,
        "table_names": list(r.body.get("tables", ())),
        "write_tables": tuple(r.body.get("write_tables", ())),
        "function_names": tuple(r.body.get("functions", ())),
        "include_credentials": bool(r.body.get("include_credentials", True)),
        "engine_trusted": r.body.get("engine_trusted"),
    }


def _credential_json(credential) -> dict[str, Any]:
    return {
        "token": credential.token,
        "scope": credential.scope.url(),
        "access_level": credential.level.value,
        "expires_at": credential.expires_at,
    }


def _render_resolution(resolution, kwargs) -> dict[str, Any]:
    assets = {}
    for name, asset in resolution.assets.items():
        assets[name] = {
            "entity": asset.entity.rendering(),
            "table_type": asset.table_type,
            "format": asset.format,
            "columns": asset.columns,
            "storage_url": asset.storage_url,
            "credential": (
                _credential_json(asset.credential)
                if asset.credential else None
            ),
            "fgac": asset.fgac.to_dict(),
            "view_definition": asset.view_definition,
            "dependencies": list(asset.dependencies),
        }
    rendered = {
        "metastore_version": resolution.metastore_version,
        "assets": assets,
    }
    if resolution.catalog_versions:
        rendered["catalog_versions"] = dict(resolution.catalog_versions)
    return rendered


ENDPOINTS = (
    EndpointDescriptor(
        name="record_lineage",
        domain="lineage_query",
        handler=record_lineage,
        target_param="target",
        cluster=ClusterBinding(plan=lambda p: RouteDecision.broadcast()),
        rest=(
            RestBinding("POST", "lineage", _bind_record_lineage,
                        render=lambda result, kwargs: {}),
        ),
        doc="Record lineage edges submitted by an engine.",
    ),
    EndpointDescriptor(
        name="lineage",
        domain="lineage_query",
        handler=lineage,
        target_param="asset",
        cluster=ClusterBinding(
            plan=lambda p: RouteDecision.scatter(_merge_name_sets)
        ),
        rest=(
            RestBinding("GET", "lineage", _bind_lineage,
                        render=_render_lineage),
        ),
        doc="Visibility-filtered lineage closure (up- or downstream).",
    ),
    EndpointDescriptor(
        name="query_information_schema",
        domain="lineage_query",
        handler=query_information_schema,
        target_param=None,
        cluster=ClusterBinding(plan=_plan_info_schema, stale_ok=True),
        rest=(
            RestBinding("GET", "information-schema", _bind_information_schema,
                        render=lambda result, kwargs: {"rows": result}),
            RestBinding("POST", "information-schema", _bind_information_schema,
                        render=lambda result, kwargs: {"rows": result}),
        ),
        doc="Relational metadata query with filter pushdown.",
    ),
    EndpointDescriptor(
        name="resolve_for_query",
        domain="lineage_query",
        handler=resolve_for_query,
        target_param=None,
        cluster=ClusterBinding(
            plan=lambda p: RouteDecision.partition(
                _split_resolve, _merge_resolutions
            ),
            stale_ok=True,
        ),
        rest=(
            RestBinding("POST", "resolve", _bind_resolve,
                        render=_render_resolution),
        ),
        doc="Batched metadata closure for one query (§4.5).",
    ),
    EndpointDescriptor(
        name="filter_visible_entities",
        domain="lineage_query",
        handler=filter_visible_entities,
        target_param=None,
        cluster=ClusterBinding(
            plan=lambda p: RouteDecision.scatter(_merge_visible)
        ),
        doc="Batch visibility filter for discovery services (§4.4).",
    ),
)
