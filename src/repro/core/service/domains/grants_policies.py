"""Grants & policies domain: privilege grants and ABAC policies.

Grant/revoke write through the optimistic commit loop (re-authorizing
per attempt); the read endpoints (``grants_on``, ``has_privilege``)
lean on the pipeline's resolution interceptor and the version-pinned
hot caches.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.auth.abac import AbacEffect, AbacPolicy, TagCondition
from repro.core.auth.privileges import Privilege, PrivilegeGrant
from repro.core.model.entity import SecurableKind, new_entity_id
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
from repro.errors import InvalidRequestError, NotFoundError


def grant(svc, ctx) -> PrivilegeGrant:
    p = ctx.params
    metastore_id, principal = p["metastore_id"], p["principal"]
    kind, name = p["kind"], p["name"]
    grantee, privilege = p["grantee"], p["privilege"]
    manifest = svc.registry.get(kind)
    if not manifest.supports_privilege(privilege):
        raise InvalidRequestError(
            f"{privilege.value} is not grantable on {kind.value.lower()}s"
        )
    svc.directory.get(grantee)

    def build(view: MetastoreView):
        entity = svc._resolve(view, metastore_id, kind, name)
        svc._authorize(view, metastore_id, principal, entity, "grant", name)
        record = PrivilegeGrant(
            securable_id=entity.id,
            principal=grantee,
            privilege=privilege,
            granted_by=principal,
            granted_at=svc.clock.now(),
        )
        return [WriteOp.put(Tables.GRANTS, record.key, record.to_dict())], record

    return svc._mutate(metastore_id, build)


def revoke(svc, ctx) -> None:
    p = ctx.params
    metastore_id, principal = p["metastore_id"], p["principal"]
    kind, name = p["kind"], p["name"]
    grantee, privilege = p["grantee"], p["privilege"]

    def build(view: MetastoreView):
        entity = svc._resolve(view, metastore_id, kind, name)
        svc._authorize(view, metastore_id, principal, entity, "grant", name)
        key = f"{entity.id}/{grantee}/{privilege.value}"
        if view.row(Tables.GRANTS, key) is None:
            raise NotFoundError(
                f"no grant of {privilege.value} to {grantee} on {name}"
            )
        return [WriteOp.delete(Tables.GRANTS, key)], None

    svc._mutate(metastore_id, build)


def grants_on(svc, ctx) -> list[PrivilegeGrant]:
    return ctx.view.grants_on(ctx.entity.id)


def has_privilege(svc, ctx) -> bool:
    """The authorization API exposed to second-tier/discovery services."""
    p = ctx.params
    metastore_id = p["metastore_id"]
    privilege = p["privilege"]
    view, entity = ctx.view, ctx.entity
    identities = ctx.identities
    if identities is None:
        identities = svc.authorizer.identities(p["principal"])
    if svc.authorizer.is_direct_owner_or_admin(view, entity, identities):
        return True
    cache = svc._hot_caches_for(metastore_id, view)
    return svc.authorizer.has_privilege(view, entity, privilege, identities, cache)


def create_abac_policy(svc, ctx) -> AbacPolicy:
    """Define an ABAC policy at metastore/catalog/schema scope."""
    p = ctx.params
    metastore_id, principal = p["metastore_id"], p["principal"]
    name = p["name"]
    scope_kind, scope_name = p["scope_kind"], p.get("scope_name")
    condition, effect = p["condition"], p["effect"]
    privilege: Optional[Privilege] = p.get("privilege")
    mask_sql, predicate_sql = p.get("mask_sql"), p.get("predicate_sql")
    principals = tuple(p.get("principals") or ())
    exempt_principals = tuple(p.get("exempt_principals") or ())

    def build(view: MetastoreView):
        if scope_kind is SecurableKind.METASTORE:
            scope = view.entity_by_id(metastore_id)
        else:
            scope = svc._resolve(view, metastore_id, scope_kind, scope_name)
        svc._authorize(
            view, metastore_id, principal, scope, "manage_policies",
            scope_name or "<metastore>",
        )
        policy = AbacPolicy(
            policy_id=p.get("policy_id") or new_entity_id(),
            name=name,
            scope_id=scope.id,
            condition=condition,
            effect=effect,
            privilege=privilege,
            mask_sql=mask_sql,
            predicate_sql=predicate_sql,
            principals=frozenset(principals),
            exempt_principals=frozenset(exempt_principals),
        )
        return [WriteOp.put(Tables.POLICIES, policy.key, policy.to_dict())], policy

    return svc._mutate(metastore_id, build)


def drop_abac_policy(svc, ctx) -> None:
    p = ctx.params
    metastore_id, principal = p["metastore_id"], p["principal"]
    policy_id = p["policy_id"]

    def build(view: MetastoreView):
        key = f"abac/{policy_id}"
        value = view.row(Tables.POLICIES, key)
        if value is None:
            raise NotFoundError(f"no such ABAC policy: {policy_id}")
        scope = view.entity_by_id(value["scope_id"])
        if scope is None:
            scope = view.entity_by_id(metastore_id)
        svc._authorize(
            view, metastore_id, principal, scope, "manage_policies", scope.name
        )
        return [WriteOp.delete(Tables.POLICIES, key)], None

    svc._mutate(metastore_id, build)


# ----------------------------------------------------------------------
# cluster placement
# ----------------------------------------------------------------------


def _grant_write_plan(p: dict) -> RouteDecision:
    return route_securable_write(p["kind"], p["name"])


def _grant_read_plan(p: dict) -> RouteDecision:
    return route_securable_read(p["kind"], p["name"])


def _plan_create_abac(p: dict) -> RouteDecision:
    # metastore-scope policies govern every catalog, so they replicate
    if p["scope_kind"] is SecurableKind.METASTORE:
        return RouteDecision.broadcast()
    return RouteDecision.shard(catalog_route_key(p["scope_name"]))


def _probe_abac(view, p: dict) -> bool:
    return view.row(Tables.POLICIES, f"abac/{p['policy_id']}") is not None


# ----------------------------------------------------------------------
# REST marshalling
# ----------------------------------------------------------------------


def _grant_target(r: RestRequest) -> dict[str, Any]:
    return {
        "metastore_id": r.metastore_id(),
        "principal": r.principal,
        "kind": SecurableKind(r.require("securable_kind")),
        "name": r.require("securable_name"),
    }


def _bind_grant(r: RestRequest) -> dict[str, Any]:
    args = _grant_target(r)
    args["grantee"] = r.body["principal"]
    args["privilege"] = Privilege(r.body["privilege"])
    return args


def _bind_has_privilege(r: RestRequest) -> dict[str, Any]:
    args = _grant_target(r)
    args["privilege"] = Privilege(r.require("privilege"))
    return args


def _bind_create_abac(r: RestRequest) -> dict[str, Any]:
    body = r.body
    return {
        "metastore_id": r.metastore_id(),
        "principal": r.principal,
        "name": body["name"],
        "scope_kind": SecurableKind(body.get("scope_kind", "METASTORE")),
        "scope_name": body.get("scope_name"),
        "condition": TagCondition.from_dict(body["condition"]),
        "effect": AbacEffect(body["effect"]),
        "privilege": (
            Privilege(body["privilege"]) if body.get("privilege") else None
        ),
        "mask_sql": body.get("mask_sql"),
        "predicate_sql": body.get("predicate_sql"),
        "principals": tuple(body.get("principals", ())),
        "exempt_principals": tuple(body.get("exempt_principals", ())),
    }


def _bind_drop_abac(r: RestRequest) -> dict[str, Any]:
    return {
        "metastore_id": r.metastore_id(),
        "principal": r.principal,
        "policy_id": r.require_name(),
    }


ENDPOINTS = (
    EndpointDescriptor(
        name="grant",
        domain="grants_policies",
        handler=grant,
        mutation=True,
        cluster=ClusterBinding(plan=_grant_write_plan),
        rest=(
            RestBinding("POST", "grants", _bind_grant, status=201,
                        render=lambda result, kwargs: result.to_dict()),
        ),
        doc="Grant a privilege on a securable.",
    ),
    EndpointDescriptor(
        name="revoke",
        domain="grants_policies",
        handler=revoke,
        mutation=True,
        cluster=ClusterBinding(plan=_grant_write_plan),
        rest=(
            RestBinding("DELETE", "grants", _bind_grant,
                        render=lambda result, kwargs: {}),
        ),
        doc="Revoke a previously granted privilege.",
    ),
    EndpointDescriptor(
        name="grants_on",
        domain="grants_policies",
        handler=grants_on,
        resolve=ResolveSpec(),
        operation="read_metadata",
        cluster=ClusterBinding(plan=_grant_read_plan, stale_ok=True),
        rest=(
            RestBinding(
                "GET", "grants", _grant_target,
                render=lambda result, kwargs: {
                    "grants": [g.to_dict() for g in result]
                },
            ),
        ),
        doc="List direct grants on a securable.",
    ),
    EndpointDescriptor(
        name="has_privilege",
        domain="grants_policies",
        handler=has_privilege,
        resolve=ResolveSpec(),
        cluster=ClusterBinding(plan=_grant_read_plan, stale_ok=True),
        rest=(
            RestBinding(
                "GET", "has-privilege", _bind_has_privilege,
                render=lambda result, kwargs: {"allowed": bool(result)},
            ),
        ),
        doc="Effective-privilege check for second-tier services.",
    ),
    EndpointDescriptor(
        name="create_abac_policy",
        domain="grants_policies",
        handler=create_abac_policy,
        mutation=True,
        target_param="name",
        cluster=ClusterBinding(plan=_plan_create_abac, mint_params=("policy_id",)),
        rest=(
            RestBinding("POST", "abac-policies", _bind_create_abac, status=201,
                        render=lambda result, kwargs: result.to_dict()),
        ),
        doc="Define an ABAC policy at metastore/catalog/schema scope.",
    ),
    EndpointDescriptor(
        name="drop_abac_policy",
        domain="grants_policies",
        handler=drop_abac_policy,
        mutation=True,
        target_param="policy_id",
        cluster=ClusterBinding(
            plan=lambda p: RouteDecision.probe_for(_probe_abac, all_matches=True)
        ),
        rest=(
            RestBinding("DELETE", "abac-policies", _bind_drop_abac, named=True,
                        render=lambda result, kwargs: {}),
        ),
        doc="Drop an ABAC policy by id.",
    ),
)
