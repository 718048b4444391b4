"""Branching domain: catalog branches over the commit-DAG store.

The git-for-data surface (create / list / diff / merge / delete branch),
declared through the :class:`~repro.core.service.registry.ApiRegistry`
like every other endpoint — so the REST routes, shard placement, audit,
deadlines, and metrics all come from the shared machinery. Branch
*content* reads and writes need no endpoints of their own: any existing
endpoint runs against a branch when the request carries a ``_branch``
kwarg, a ``?branch=`` query parameter, or a ``catalog@branch`` name
suffix (see :mod:`repro.core.service.pipeline`).

Merge semantics are securable-level three-way: the branch's overlay rows
are replayed onto main in **one atomic commit** (so main's audit/history
shows the merge as a single linear commit — indistinguishable from the
same writes applied directly), unless main also touched any of the same
securables since the fork, in which case the merge raises
:class:`~repro.errors.MergeConflictError` naming the contested
securable. Branch ops route to the shard owning their catalog, so on a
replicated cluster they replicate through the change log and fence on
failover exactly like ordinary writes.
"""

from __future__ import annotations

from typing import Any

from repro.core.model.entity import SecurableKind
from repro.core.persistence import branching as br
from repro.core.persistence.store import WriteOp
from repro.core.service.registry import (
    ClusterBinding,
    EndpointDescriptor,
    RestBinding,
    RestRequest,
    RouteDecision,
)
from repro.core.view import MetastoreView
from repro.errors import (
    AlreadyExistsError,
    InvalidRequestError,
    MergeConflictError,
)

def _require_trunk(ctx) -> None:
    """Branch lifecycle ops address branches by name from the trunk —
    running them *on* a branch (nested forks) is not supported."""
    if ctx.branch is not None:
        raise InvalidRequestError(
            f"{ctx.api} must run on the trunk, not on branch {ctx.branch}"
        )


def _catalog_and_branch(params: dict[str, Any]) -> tuple[str, str, str]:
    catalog, branch = params["catalog"], params["branch"]
    return catalog, branch, br.branch_key(catalog, branch)


def _describe_conflicts(
    svc, metastore_id: str, bkey: str, conflicts
) -> tuple[tuple[str, str, str], ...]:
    """Resolve conflicting (table, key) pairs to securable names."""
    branch_snap = br.branch_snapshot(svc.store, metastore_id, bkey)
    # conflict handlers run on the trunk (_require_trunk), so the
    # kernel's raw_snapshot is exactly the trunk head here
    main_snap = svc.raw_snapshot(metastore_id)
    described = []
    for table, key in conflicts:
        value = branch_snap.get(table, key) or main_snap.get(table, key)
        name = (value or {}).get("name") or key
        described.append((table, key, name))
    return tuple(described)


# ----------------------------------------------------------------------
# handlers
# ----------------------------------------------------------------------


def create_branch(svc, ctx) -> dict[str, Any]:
    """Zero-copy fork: one ref row pinned at the current trunk version."""
    p = ctx.params
    metastore_id, principal = p["metastore_id"], p["principal"]
    catalog, branch, bkey = _catalog_and_branch(p)
    _require_trunk(ctx)
    br.validate_branch_name(branch)

    def build(view: MetastoreView):
        entity = svc._resolve(view, metastore_id, SecurableKind.CATALOG, catalog)
        svc._authorize(view, metastore_id, principal, entity, "update", catalog)
        if view.row(br.BRANCHES_TABLE, bkey) is not None:
            raise AlreadyExistsError(f"branch already exists: {bkey}")
        ref = br.BranchRef(
            catalog=catalog,
            branch=branch,
            fork_version=view.version,
            head_version=view.version,
            created_at=svc.clock.now(),
        )
        return [WriteOp.put(br.BRANCHES_TABLE, bkey, ref.to_dict())], ref.to_dict()

    return svc._mutate(metastore_id, build)


def list_branches(svc, ctx) -> list[dict[str, Any]]:
    """All branches of one catalog (authorized like a metadata read)."""
    p = ctx.params
    metastore_id, principal = p["metastore_id"], p["principal"]
    catalog = p["catalog"]
    view = svc.view(metastore_id)
    entity = svc._resolve(view, metastore_id, SecurableKind.CATALOG, catalog)
    svc._authorize(view, metastore_id, principal, entity, "read_metadata",
                   catalog)
    refs = br.list_refs(svc.raw_snapshot(metastore_id), catalog)
    return [ref.to_dict() for ref in refs]


def diff_branch(svc, ctx) -> dict[str, Any]:
    """Securable-level diff between a branch and the trunk since the fork."""
    p = ctx.params
    metastore_id, principal = p["metastore_id"], p["principal"]
    catalog, _branch, bkey = _catalog_and_branch(p)
    _require_trunk(ctx)
    view = svc.view(metastore_id)
    entity = svc._resolve(view, metastore_id, SecurableKind.CATALOG, catalog)
    svc._authorize(view, metastore_id, principal, entity, "read_metadata",
                   catalog)
    diff = br.diff_branch(svc.store, metastore_id, bkey)
    return {
        "branch": bkey,
        "fork_version": diff.ref.fork_version,
        "head_version": diff.ref.head_version,
        "changes": [
            {"table": table, "key": key, "deleted": value is None}
            for table, key, value in diff.overlay
        ],
        "main_touched": len(diff.main_touched),
        "conflicts": [
            {"table": table, "key": key, "securable": name}
            for table, key, name in _describe_conflicts(
                svc, metastore_id, bkey, diff.conflicts
            )
        ],
    }


def merge_branch(svc, ctx) -> dict[str, Any]:
    """Merge a branch into main, or raise on securable-level conflicts."""
    p = ctx.params
    metastore_id, principal = p["metastore_id"], p["principal"]
    catalog, _branch, bkey = _catalog_and_branch(p)
    _require_trunk(ctx)

    def build(view: MetastoreView):
        entity = svc._resolve(view, metastore_id, SecurableKind.CATALOG, catalog)
        svc._authorize(view, metastore_id, principal, entity, "update", catalog)
        diff = br.diff_branch(svc.store, metastore_id, bkey)
        if diff.conflicts:
            described = _describe_conflicts(
                svc, metastore_id, bkey, diff.conflicts
            )
            table, key, name = described[0]
            raise MergeConflictError(
                f"cannot merge {bkey}: both branch and main changed "
                f"securable {name!r} ({table}/{key}) since the fork",
                conflicts=described,
            )
        result = {
            "branch": bkey,
            "merged_changes": len(diff.overlay),
            "fork_version": diff.ref.fork_version,
        }
        return br.merge_ops(diff), result

    result = svc._mutate(metastore_id, build)
    svc._drop_branch_caches(metastore_id, bkey)
    result["version"] = svc.head_version(metastore_id)
    return result


def delete_branch(svc, ctx) -> None:
    """Drop a branch: its overlay rows and ref, in one commit."""
    p = ctx.params
    metastore_id, principal = p["metastore_id"], p["principal"]
    catalog, _branch, bkey = _catalog_and_branch(p)
    _require_trunk(ctx)

    def build(view: MetastoreView):
        entity = svc._resolve(view, metastore_id, SecurableKind.CATALOG, catalog)
        svc._authorize(view, metastore_id, principal, entity, "update", catalog)
        return br.delete_branch_ops(svc.store, metastore_id, bkey), None

    svc._mutate(metastore_id, build)
    svc._drop_branch_caches(metastore_id, bkey)


# ----------------------------------------------------------------------
# REST marshalling
# ----------------------------------------------------------------------


def _split_ref_name(request: RestRequest) -> tuple[str, str]:
    """The trailing path segment of a branch route is ``catalog@branch``."""
    return br.split_branch_key(request.require_name())


def _bind_create(r: RestRequest) -> dict[str, Any]:
    return {
        "metastore_id": r.metastore_id(),
        "principal": r.principal,
        "catalog": r.require("catalog"),
        "branch": r.require("branch"),
    }


def _bind_list(r: RestRequest) -> dict[str, Any]:
    return {
        "metastore_id": r.metastore_id(),
        "principal": r.principal,
        "catalog": r.require("catalog"),
    }


def _bind_named(r: RestRequest) -> dict[str, Any]:
    catalog, branch = _split_ref_name(r)
    return {
        "metastore_id": r.metastore_id(),
        "principal": r.principal,
        "catalog": catalog,
        "branch": branch,
    }


def _plan_by_catalog(p: dict[str, Any]) -> RouteDecision:
    """Branch ops route by catalog key, like any write to that catalog."""
    return RouteDecision.shard(p["catalog"])


ENDPOINTS: tuple[EndpointDescriptor, ...] = (
    EndpointDescriptor(
        name="create_branch",
        domain="branching",
        handler=create_branch,
        mutation=True,
        target_param="branch",
        cluster=ClusterBinding(plan=_plan_by_catalog),
        rest=(
            RestBinding("POST", "branches", _bind_create, status=201),
        ),
        doc="Fork a zero-copy branch of a catalog at the current version.",
    ),
    EndpointDescriptor(
        name="list_branches",
        domain="branching",
        handler=list_branches,
        target_param="catalog",
        cluster=ClusterBinding(plan=_plan_by_catalog, stale_ok=True),
        rest=(
            RestBinding("GET", "branches", _bind_list,
                        render=lambda result, kwargs: {"branches": result}),
        ),
        doc="List a catalog's branches.",
    ),
    EndpointDescriptor(
        name="diff_branch",
        domain="branching",
        handler=diff_branch,
        target_param="branch",
        cluster=ClusterBinding(plan=_plan_by_catalog),
        rest=(
            RestBinding("GET", "branches", _bind_named, named=True),
        ),
        doc="Securable-level diff between a branch and main since the fork.",
    ),
    EndpointDescriptor(
        name="merge_branch",
        domain="branching",
        handler=merge_branch,
        mutation=True,
        target_param="branch",
        cluster=ClusterBinding(plan=_plan_by_catalog),
        rest=(
            RestBinding("PATCH", "branches", _bind_named, named=True),
        ),
        doc="Merge a branch into main (conflicts raise MERGE_CONFLICT).",
    ),
    EndpointDescriptor(
        name="delete_branch",
        domain="branching",
        handler=delete_branch,
        mutation=True,
        target_param="branch",
        cluster=ClusterBinding(plan=_plan_by_catalog),
        rest=(
            RestBinding("DELETE", "branches", _bind_named, named=True,
                        render=lambda result, kwargs: {"deleted": True}),
        ),
        doc="Delete a branch and its overlay rows.",
    ),
)

__all__ = [
    "ENDPOINTS",
    "create_branch",
    "delete_branch",
    "diff_branch",
    "list_branches",
    "merge_branch",
]
