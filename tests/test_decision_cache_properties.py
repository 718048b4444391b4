"""Model-based property: the fast path on equals the fast path off.

Two services are built identically, one with ``enable_fast_path=False``
(which recomputes every resolution and decision and so *is* the model).
A seeded random script of DDL, ownership and grant changes, interleaved
with point reads, listings and batched resolves as random principals,
runs against both; after **every** step the two outcomes — the value, or
the error class and message — must be equal, and at the end so must the
audit trails. Names come from small pools so collisions, denials and
"visible through a grant on a descendant" all occur on their own.

The cached side must never serve an answer the slow path would not
compute at that moment, which is exactly what an unsound invalidation
scope breaks: filing a subtree-dependent visibility denial as
chain-scoped fails this test (checked by hand when the scopes were
introduced — see EXPERIMENTS.md).
"""

from __future__ import annotations

from random import Random
from typing import Any

import pytest

from repro.clock import SimClock
from repro.core.auth.privileges import Privilege
from repro.core.model.entity import SecurableKind
from repro.core.service.catalog_service import UnityCatalogService
from repro.errors import UnityCatalogError

SEEDS = range(60)
STEPS = 300

ADMIN = "admin"
#: ann is in team, team in dept, ben directly in dept; cy belongs to nothing
USERS = ("ann", "ben", "cy")
GROUPS = ("team", "dept")
ACTORS = (ADMIN, *USERS)
GRANTEES = (*USERS, *GROUPS)

CATALOGS = ("c0", "c1")
SCHEMAS = ("s0", "s1")
TABLES = ("t0", "t1", "t2")
GRANTABLE = {
    SecurableKind.CATALOG: (Privilege.USE_CATALOG, Privilege.SELECT,
                            Privilege.MODIFY, Privilege.MANAGE),
    SecurableKind.SCHEMA: (Privilege.USE_SCHEMA, Privilege.SELECT,
                           Privilege.MODIFY, Privilege.MANAGE),
    SecurableKind.TABLE: (Privilege.SELECT, Privilege.MODIFY, Privilege.MANAGE),
}
TABLE_SPEC = {
    "table_type": "MANAGED",
    "format": "DELTA",
    "columns": [{"name": "id", "type": "BIGINT"}],
}


def build(fast_path: bool) -> tuple[UnityCatalogService, str]:
    service = UnityCatalogService(clock=SimClock(), enable_fast_path=fast_path)
    directory = service.directory
    for user in ACTORS:
        directory.add_user(user)
    for group in GROUPS:
        directory.add_group(group)
    directory.add_member("team", "ann")
    directory.add_member("dept", "team")
    directory.add_member("dept", "ben")
    mid = service.create_metastore("prop", owner=ADMIN).id
    # a populated estate whose gates are open to dept from the first
    # step on (the script creates, drops and revokes from there)
    for catalog in CATALOGS:
        service.create_securable(mid, ADMIN, SecurableKind.CATALOG, catalog)
        service.grant(mid, ADMIN, SecurableKind.CATALOG, catalog, "dept",
                      Privilege.USE_CATALOG)
        for schema in SCHEMAS:
            name = f"{catalog}.{schema}"
            service.create_securable(mid, ADMIN, SecurableKind.SCHEMA, name)
            service.grant(mid, ADMIN, SecurableKind.SCHEMA, name, "dept",
                          Privilege.USE_SCHEMA)
            for table in TABLES[:2]:
                service.create_securable(mid, ADMIN, SecurableKind.TABLE,
                                         f"{name}.{table}", spec=TABLE_SPEC)
    return service, mid


def script(seed: int, steps: int) -> list[dict]:
    rng = Random(seed)

    def catalog() -> str:
        return rng.choice(CATALOGS)

    def schema() -> str:
        return f"{catalog()}.{rng.choice(SCHEMAS)}"

    def table() -> str:
        return f"{schema()}.{rng.choice(TABLES)}"

    def securable(tables: int = 2) -> dict:
        kind = rng.choice((SecurableKind.CATALOG, SecurableKind.SCHEMA,
                           *[SecurableKind.TABLE] * tables))
        name = {SecurableKind.CATALOG: catalog, SecurableKind.SCHEMA: schema,
                SecurableKind.TABLE: table}[kind]()
        return {"kind": kind, "name": name}

    def writer() -> str:
        # mostly the admin, but enough others that MANAGE and ownership
        # decide who may write
        return ADMIN if rng.random() < 0.7 else rng.choice(USERS)

    granted: list[dict] = []

    def grant() -> dict:
        # mostly on tables, so containers are often visible only through
        # what lies beneath them
        target = securable(tables=4)
        granted.append({**target, "grantee": rng.choice(GRANTEES),
                        "privilege": rng.choice(GRANTABLE[target["kind"]])})
        return {"op": "grant", **granted[-1], "principal": writer()}

    def revoke() -> dict:
        # usually something the script granted earlier (it may be gone by now)
        if granted and rng.random() < 0.8:
            return {"op": "revoke", **rng.choice(granted), "principal": writer()}
        return {**grant(), "op": "revoke"}

    makers = [
        (5, lambda: {"op": "create", **securable(tables=4),
                     "principal": writer()}),
        (3, lambda: {"op": "drop", **securable(tables=6), "principal": writer(),
                     "cascade": rng.random() < 0.5}),
        (2, lambda: {"op": "rename", "kind": SecurableKind.TABLE,
                     "name": table(), "new_name": rng.choice(TABLES),
                     "principal": writer()}),
        (1, lambda: {"op": "rename", "kind": SecurableKind.SCHEMA,
                     "name": schema(), "new_name": rng.choice(SCHEMAS),
                     "principal": writer()}),
        (2, lambda: {"op": "transfer", **securable(), "principal": writer(),
                     "new_owner": rng.choice(ACTORS)}),
        (2, lambda: {"op": "comment", **securable(), "principal": writer(),
                     "comment": f"edit {rng.randint(0, 9)}"}),
        (7, grant),
        (4, revoke),
        (1, lambda: {"op": "membership", "group": rng.choice(GROUPS),
                     "member": rng.choice(USERS), "add": rng.random() < 0.5}),
        (12, lambda: {"op": "get", **securable(tables=1),
                      "principal": rng.choice(USERS)}),
        (6, lambda: {"op": "list", "principal": rng.choice(USERS),
                     **rng.choice([
                         {"kind": SecurableKind.CATALOG, "parent": None},
                         {"kind": SecurableKind.SCHEMA, "parent": catalog()},
                         {"kind": SecurableKind.TABLE, "parent": schema()},
                     ])}),
        (8, lambda: {"op": "resolve", "principal": rng.choice(USERS),
                     "names": sorted({table()
                                      for _ in range(rng.randint(1, 3))})}),
    ]
    weighted = [make for weight, make in makers for _ in range(weight)]
    return [rng.choice(weighted)() for _ in range(steps)]


def apply(service: UnityCatalogService, mid: str, op: dict) -> Any:
    """Run one step; a comparable value, or the error it raised."""
    kind, name, who = op.get("kind"), op.get("name"), op.get("principal")
    try:
        if op["op"] == "create":
            spec = TABLE_SPEC if kind is SecurableKind.TABLE else None
            return _entity(service.create_securable(mid, who, kind, name,
                                                    spec=spec))
        if op["op"] == "drop":
            return [_entity(e) for e in service.delete_securable(
                mid, who, kind, name, cascade=op["cascade"])]
        if op["op"] == "rename":
            return _entity(service.rename_securable(mid, who, kind, name,
                                                    op["new_name"]))
        if op["op"] == "transfer":
            return _entity(service.transfer_ownership(mid, who, kind, name,
                                                      op["new_owner"]))
        if op["op"] == "comment":
            return _entity(service.update_securable(mid, who, kind, name,
                                                    comment=op["comment"]))
        if op["op"] == "grant":
            service.grant(mid, who, kind, name, op["grantee"], op["privilege"])
            return "granted"
        if op["op"] == "revoke":
            service.revoke(mid, who, kind, name, op["grantee"], op["privilege"])
            return "revoked"
        if op["op"] == "membership":
            change = (service.directory.add_member if op["add"]
                      else service.directory.remove_member)
            change(op["group"], op["member"])
            return "membership"
        if op["op"] == "get":
            return _entity(service.get_securable(mid, who, kind, name))
        if op["op"] == "list":
            return [_entity(e) for e in service.list_securables(
                mid, who, kind, op["parent"])]
        resolution = service.resolve_for_query(mid, who, op["names"],
                                               engine_trusted=True)
        return {
            asset_name: (asset.table_type, asset.columns, asset.fgac.to_dict(),
                         asset.credential is not None)
            for asset_name, asset in sorted(resolution.assets.items())
        }
    except (UnityCatalogError, KeyError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


def _entity(entity) -> tuple:
    """What a caller can see of an entity, minus ids (minted per service)."""
    return (entity.kind.value, entity.name, entity.owner, entity.comment,
            entity.state.value)


def _audit(service: UnityCatalogService) -> list[tuple]:
    return [(r.principal, r.action, r.securable, r.allowed,
             sorted(r.details.items())) for r in service.audit]


@pytest.mark.parametrize("seed", SEEDS)
def test_cache_on_equals_cache_off_at_every_step(seed):
    cached, cached_mid = build(fast_path=True)
    model, model_mid = build(fast_path=False)
    assert cached.hot_caches(cached_mid) is not None
    assert model.hot_caches(model_mid) is None
    steps = script(seed, STEPS)
    for index, op in enumerate(steps):
        got, want = apply(cached, cached_mid, op), apply(model, model_mid, op)
        assert got == want, (
            f"seed {seed} step {index}: {op}\n cached {got}\n  model {want}\n"
            f"previous steps: {steps[max(0, index - 8):index]}"
        )
    assert _audit(cached) == _audit(model)
    stats = cached.hot_caches(cached_mid).stats
    assert stats.authz_hits and stats.invalidations, "the script never hit the cache"
