"""Property-style cluster equivalence: sharding must be invisible.

A 1-shard cluster and an N-shard cluster driven by the same seeded
operation sequence must produce identical per-operation outcomes
(results *and* errors, including authorization denials), end in the
same visible catalog state, and log the same set of audited decisions.

The generator and shrinker are hand-rolled (no external property
testing dependency): operations are drawn from small name pools so
hits, collisions and permission denials all occur naturally, and a
failing sequence is greedily delta-debugged down to a minimal
reproduction before the test fails.
"""

from __future__ import annotations

from random import Random
from typing import Any, Callable, Optional

import pytest

from repro.clock import SimClock
from repro.core.auth.privileges import Privilege
from repro.core.cluster import CatalogCluster
from repro.core.model.entity import Entity, SecurableKind
from repro.core.persistence import branching as br
from repro.core.persistence.sqlite import SqliteMetadataStore
from repro.core.persistence.store import Tables
from repro.core.persistence.treecat import TreeCatMetadataStore
from repro.errors import UnityCatalogError

ADMIN = "admin"
READER = "reader"
GROUP = "analysts"

CATALOG_POOL = ("c0", "c1", "c2", "c3", "r0", "r1")
SCHEMA_POOL = ("s0", "s1")
TABLE_POOL = ("t0", "t1", "t2")
GRANTEES = (GROUP, READER)
PRIVS = {
    SecurableKind.CATALOG: Privilege.USE_CATALOG,
    SecurableKind.SCHEMA: Privilege.USE_SCHEMA,
    SecurableKind.TABLE: Privilege.SELECT,
}
TABLE_SPEC = {
    "table_type": "MANAGED",
    "format": "DELTA",
    "columns": [{"name": "id", "type": "BIGINT"}],
}


def build_cluster(shards: int, backend: str) -> tuple[CatalogCluster, str]:
    factory = None
    if backend == "sqlite":
        factory = lambda index: SqliteMetadataStore()  # noqa: E731
    elif backend == "treecat":
        factory = lambda index: TreeCatMetadataStore()  # noqa: E731
    cluster = CatalogCluster(shards, clock=SimClock(), store_factory=factory)
    directory = cluster.directory
    directory.add_user(ADMIN)
    directory.add_user(READER)
    directory.add_group(GROUP)
    directory.add_member(GROUP, READER)
    mid = cluster.create_metastore("prop", owner=ADMIN).id
    return cluster, mid


# ---------------------------------------------------------------------------
# operation generation
# ---------------------------------------------------------------------------


def generate_ops(seed: int, count: int) -> list[dict]:
    rng = Random(seed)
    ops: list[dict] = []

    def principal() -> str:
        # mostly admin, but enough denied mutations to compare authz
        return ADMIN if rng.random() < 0.8 else READER

    def catalog() -> str:
        return rng.choice(CATALOG_POOL)

    def schema() -> str:
        return f"{catalog()}.{rng.choice(SCHEMA_POOL)}"

    def table() -> str:
        return f"{schema()}.{rng.choice(TABLE_POOL)}"

    def any_securable() -> tuple[SecurableKind, str]:
        roll = rng.random()
        if roll < 0.3:
            return SecurableKind.CATALOG, catalog()
        if roll < 0.6:
            return SecurableKind.SCHEMA, schema()
        return SecurableKind.TABLE, table()

    choices: list[tuple[int, Callable[[], dict]]] = [
        (3, lambda: {"op": "create", "kind": SecurableKind.CATALOG,
                     "name": catalog(), "principal": principal()}),
        (3, lambda: {"op": "create", "kind": SecurableKind.SCHEMA,
                     "name": schema(), "principal": principal()}),
        (4, lambda: {"op": "create", "kind": SecurableKind.TABLE,
                     "name": table(), "principal": principal()}),
        (3, lambda: {"op": "grant", **_kindname(any_securable()),
                     "grantee": rng.choice(GRANTEES),
                     "principal": principal()}),
        (2, lambda: {"op": "revoke", **_kindname(any_securable()),
                     "grantee": rng.choice(GRANTEES),
                     "principal": principal()}),
        (2, lambda: {"op": "drop", **_kindname(any_securable()),
                     "cascade": rng.random() < 0.5,
                     "principal": principal()}),
        (1, lambda: {"op": "rename_table", "name": table(),
                     "new_name": rng.choice(TABLE_POOL) + "x",
                     "principal": principal()}),
        (2, lambda: {"op": "rename_catalog", "name": catalog(),
                     "new_name": catalog(), "principal": principal()}),
        (2, lambda: {"op": "get", **_kindname(any_securable())}),
        (2, lambda: {"op": "list"}),
        (3, lambda: {"op": "resolve",
                     "names": sorted({table()
                                      for _ in range(rng.randint(1, 3))})}),
    ]
    weighted = [make for weight, make in choices for _ in range(weight)]
    for _ in range(count):
        ops.append(rng.choice(weighted)())
    return ops


def _kindname(pair: tuple[SecurableKind, str]) -> dict:
    return {"kind": pair[0], "name": pair[1]}


BRANCH_POOL = ("dev", "wip")


def generate_branched_ops(seed: int, count: int) -> list[dict]:
    """The base op stream with branch lifecycle and branch-content ops
    interleaved — forks, ``catalog@branch``-suffixed reads and writes,
    diffs, merges (clean and conflicting, as the interleaving lands),
    and deletes, all drawn from the same small pools so collisions and
    missing-branch errors occur naturally."""
    rng = Random(seed)
    ops: list[dict] = []

    def bkey() -> str:
        return f"{rng.choice(CATALOG_POOL)}@{rng.choice(BRANCH_POOL)}"

    def branch_pair() -> dict:
        return {"catalog": rng.choice(CATALOG_POOL),
                "branch": rng.choice(BRANCH_POOL)}

    for op in generate_ops(seed ^ 0x5EED, count):
        ops.append(op)
        roll = rng.random()
        if roll < 0.10:
            ops.append({"op": "create_branch", **branch_pair()})
        elif roll < 0.24:
            ops.append({
                "op": "branch_update",
                "name": f"{bkey()}.{rng.choice(SCHEMA_POOL)}"
                        f".{rng.choice(TABLE_POOL)}",
                "comment": f"b{rng.randint(0, 3)}",
            })
        elif roll < 0.30:
            ops.append({"op": "branch_get",
                        "name": f"{bkey()}.{rng.choice(SCHEMA_POOL)}"
                                f".{rng.choice(TABLE_POOL)}"})
        elif roll < 0.34:
            ops.append({"op": "list_branches",
                        "catalog": rng.choice(CATALOG_POOL)})
        elif roll < 0.38:
            ops.append({"op": "diff_branch", **branch_pair()})
        elif roll < 0.42:
            ops.append({"op": "merge_branch", **branch_pair()})
        elif roll < 0.45:
            ops.append({"op": "delete_branch", **branch_pair()})
    return ops


# ---------------------------------------------------------------------------
# applying one operation, with a comparable outcome
# ---------------------------------------------------------------------------


def apply_op(cluster: CatalogCluster, mid: str, op: dict) -> Any:
    try:
        if op["op"] == "create":
            params = {"metastore_id": mid, "principal": op["principal"],
                      "kind": op["kind"], "name": op["name"]}
            if op["kind"] is SecurableKind.TABLE:
                params["spec"] = TABLE_SPEC
            result = cluster.dispatch("create_securable", **params)
        elif op["op"] == "grant":
            result = cluster.dispatch(
                "grant", metastore_id=mid, principal=op["principal"],
                kind=op["kind"], name=op["name"], grantee=op["grantee"],
                privilege=PRIVS[op["kind"]])
        elif op["op"] == "revoke":
            result = cluster.dispatch(
                "revoke", metastore_id=mid, principal=op["principal"],
                kind=op["kind"], name=op["name"], grantee=op["grantee"],
                privilege=PRIVS[op["kind"]])
        elif op["op"] == "drop":
            result = cluster.dispatch(
                "delete_securable", metastore_id=mid,
                principal=op["principal"], kind=op["kind"], name=op["name"],
                cascade=op["cascade"])
        elif op["op"] == "rename_table":
            result = cluster.dispatch(
                "rename_securable", metastore_id=mid,
                principal=op["principal"], kind=SecurableKind.TABLE,
                name=op["name"], new_name=op["new_name"])
        elif op["op"] == "rename_catalog":
            result = cluster.dispatch(
                "rename_securable", metastore_id=mid,
                principal=op["principal"], kind=SecurableKind.CATALOG,
                name=op["name"], new_name=op["new_name"])
        elif op["op"] == "get":
            result = cluster.dispatch(
                "get_securable", metastore_id=mid, principal=READER,
                kind=op["kind"], name=op["name"])
        elif op["op"] == "list":
            result = cluster.dispatch(
                "list_securables", metastore_id=mid, principal=READER,
                kind=SecurableKind.CATALOG)
        elif op["op"] == "resolve":
            result = cluster.dispatch(
                "resolve_for_query", metastore_id=mid, principal=READER,
                table_names=op["names"], include_credentials=False)
        # -- branch ops: fingerprints must be shard-count independent, so
        # raw store versions (per-shard counters) never appear in them
        elif op["op"] == "create_branch":
            ref = cluster.dispatch(
                "create_branch", metastore_id=mid, principal=ADMIN,
                catalog=op["catalog"], branch=op["branch"])
            result = ("branch", ref["catalog"], ref["branch"], ref["parent"])
        elif op["op"] == "branch_update":
            result = cluster.dispatch(
                "update_securable", metastore_id=mid, principal=ADMIN,
                kind=SecurableKind.TABLE, name=op["name"],
                comment=op["comment"])
        elif op["op"] == "branch_get":
            result = cluster.dispatch(
                "get_securable", metastore_id=mid, principal=ADMIN,
                kind=SecurableKind.TABLE, name=op["name"])
        elif op["op"] == "list_branches":
            refs = cluster.dispatch(
                "list_branches", metastore_id=mid, principal=ADMIN,
                catalog=op["catalog"])
            result = tuple((r["catalog"], r["branch"]) for r in refs)
        elif op["op"] == "diff_branch":
            diff = cluster.dispatch(
                "diff_branch", metastore_id=mid, principal=ADMIN,
                catalog=op["catalog"], branch=op["branch"])
            # change keys are entity uuids and main_touched counts shared
            # version-counter traffic — both cluster-shape dependent
            result = ("diff", len(diff["changes"]),
                      sum(c["deleted"] for c in diff["changes"]),
                      sorted(c["securable"] for c in diff["conflicts"]))
        elif op["op"] == "merge_branch":
            merged = cluster.dispatch(
                "merge_branch", metastore_id=mid, principal=ADMIN,
                catalog=op["catalog"], branch=op["branch"])
            result = ("merged", merged["merged_changes"])
        elif op["op"] == "delete_branch":
            result = cluster.dispatch(
                "delete_branch", metastore_id=mid, principal=ADMIN,
                catalog=op["catalog"], branch=op["branch"])
        else:  # pragma: no cover - generator invariant
            raise AssertionError(f"unknown op {op['op']}")
    except UnityCatalogError as exc:
        return ("error", type(exc).__name__)
    return ("ok", _result_fingerprint(result))


def _result_fingerprint(result: Any) -> Any:
    if result is None:
        return None
    if isinstance(result, Entity):
        return (result.kind.value, result.name, result.owner)
    if isinstance(result, list):
        return sorted(_result_fingerprint(item) for item in result)
    if hasattr(result, "assets"):  # a QueryResolution
        return tuple(
            (name, result.assets[name].full_name,
             result.assets[name].table_type)
            for name in sorted(result.assets)
        )
    if hasattr(result, "privilege"):  # a PrivilegeGrant
        return (result.principal, result.privilege.value)
    return repr(result)


# ---------------------------------------------------------------------------
# cluster-wide fingerprints (id-free: uuids differ between clusters)
# ---------------------------------------------------------------------------


def state_fingerprint(cluster: CatalogCluster, mid: str) -> tuple:
    entities: dict[str, dict] = {}
    grant_rows: list[dict] = []
    refs: dict[str, dict] = {}
    overlays: dict[str, dict[str, dict]] = {}
    for shard in cluster.shards:
        snapshot = shard.service.store.snapshot(mid)
        for key, value in snapshot.scan(Tables.ENTITIES):
            entities.setdefault(key, value)
        for _, value in snapshot.scan(Tables.GRANTS):
            grant_rows.append(value)
        for bkey, value in snapshot.scan(Tables.BRANCHES):
            refs.setdefault(bkey, value)
            for key, row in snapshot.scan(
                    br.overlay_table(Tables.ENTITIES, bkey)):
                overlays.setdefault(bkey, {}).setdefault(key, row)

    def full_name(entity_id: str) -> str:
        parts = []
        current = entities.get(entity_id)
        while current is not None:
            parts.append(current["name"])
            parent = current.get("parent_id")
            current = entities.get(parent) if parent else None
        return ".".join(reversed(parts))

    ents = sorted(
        (value["kind"], full_name(key), value["state"], value.get("owner"))
        for key, value in entities.items()
    )
    grants = sorted({
        (full_name(row["securable_id"]), row["principal"], row["privilege"])
        for row in grant_rows
    })
    # the branch dimension: refs (sans per-shard version counters) and
    # overlay rows by resolved name — sharding must not change either
    branches = sorted((value["catalog"], value["branch"], value["parent"])
                      for value in refs.values())
    overlay_rows = sorted(
        (bkey, full_name(key),
         "tombstone" if br.is_tombstone(row) else
         (row["kind"], row["state"], row.get("comment")))
        for bkey, rows in overlays.items()
        for key, row in rows.items()
    )
    return (tuple(ents), tuple(grants), tuple(branches), tuple(overlay_rows))


def audit_fingerprint(cluster: CatalogCluster) -> set:
    """The set of distinct audited decisions across all shards.

    A set, not a sequence: replicated writes legitimately audit on every
    shard, and partitioned reads audit per sub-request — but the
    *decisions* (who did what to what, and whether it was allowed) must
    be identical whatever the shard count. Per-operation outcome
    comparison already pins down ordering.
    """
    records = set()
    for shard in cluster.shards:
        for record in shard.service.audit:
            if "resolve" in record.action:
                continue  # partitioned sub-requests audit per catalog
            records.add((record.principal, record.action,
                         record.securable, record.allowed))
    return records


# ---------------------------------------------------------------------------
# the property, with shrinking
# ---------------------------------------------------------------------------


def run_sequence(ops: list[dict], shards: int,
                 backend: str) -> Optional[str]:
    """None when the property holds, else a description of the failure."""
    single, mid1 = build_cluster(1, backend)
    multi, midn = build_cluster(shards, backend)
    for index, op in enumerate(ops):
        out1 = apply_op(single, mid1, op)
        outn = apply_op(multi, midn, op)
        if out1 != outn:
            return (f"op {index} {op!r} diverged: "
                    f"1-shard={out1!r} {shards}-shard={outn!r}")
    if state_fingerprint(single, mid1) != state_fingerprint(multi, midn):
        return "final visible state diverged"
    if audit_fingerprint(single) != audit_fingerprint(multi):
        return "audited decision sets diverged"
    return None


def shrink(ops: list[dict],
           fails: Callable[[list[dict]], bool]) -> list[dict]:
    """Greedy delta-debugging: drop ops one at a time while still failing."""
    changed = True
    while changed:
        changed = False
        for index in range(len(ops)):
            candidate = ops[:index] + ops[index + 1:]
            if candidate and fails(candidate):
                ops = candidate
                changed = True
                break
    return ops


def assert_equivalent(seed: int, count: int, shards: int, backend: str,
                      generator: Callable[[int, int], list[dict]]
                      = generate_ops) -> None:
    ops = generator(seed, count)
    failure = run_sequence(ops, shards, backend)
    if failure is None:
        return
    minimal = shrink(
        ops, lambda cand: run_sequence(cand, shards, backend) is not None
    )
    final = run_sequence(minimal, shards, backend)
    pytest.fail(
        f"seed {seed}: {failure}\nminimal repro ({len(minimal)} ops): "
        + "\n".join(repr(op) for op in minimal)
        + f"\nminimal failure: {final}"
    )


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_sharded_cluster_equivalent_to_single_shard_memory(seed):
    assert_equivalent(seed, count=60, shards=3, backend="memory")


def test_sharded_cluster_equivalent_to_single_shard_sqlite():
    assert_equivalent(seed=5, count=30, shards=3, backend="sqlite")


def test_sharded_cluster_equivalent_to_single_shard_treecat():
    assert_equivalent(seed=9, count=40, shards=3, backend="treecat")


def test_sqlite_backend_equivalent_to_memory_backend():
    """The two independent store implementations must be invisible: a
    SQLite-backed catalog and an in-memory one driven by the same ops
    agree on every outcome, the final state, and the audited
    decisions."""
    ops = generate_ops(13, 60)
    memory, mid_memory = build_cluster(1, "memory")
    sqlite, mid_sqlite = build_cluster(1, "sqlite")
    for index, op in enumerate(ops):
        out_memory = apply_op(memory, mid_memory, op)
        out_sqlite = apply_op(sqlite, mid_sqlite, op)
        assert out_memory == out_sqlite, (
            f"op {index} {op!r} diverged: memory={out_memory!r} "
            f"sqlite={out_sqlite!r}"
        )
    assert (state_fingerprint(memory, mid_memory)
            == state_fingerprint(sqlite, mid_sqlite))
    assert audit_fingerprint(memory) == audit_fingerprint(sqlite)


def test_equivalence_holds_on_five_shards():
    assert_equivalent(seed=11, count=40, shards=5, backend="memory")


# -- branched state: sharding must stay invisible with forks in play --------


@pytest.mark.parametrize("seed", [3, 17])
def test_branched_equivalence_memory(seed):
    assert_equivalent(seed, count=50, shards=3, backend="memory",
                      generator=generate_branched_ops)


def test_branched_equivalence_sqlite():
    assert_equivalent(seed=5, count=30, shards=3, backend="sqlite",
                      generator=generate_branched_ops)


def test_branched_equivalence_treecat():
    assert_equivalent(seed=9, count=30, shards=3, backend="treecat",
                      generator=generate_branched_ops)


def test_branched_generator_is_deterministic():
    ops = generate_branched_ops(42, 50)
    assert ops == generate_branched_ops(42, 50)
    assert any(op["op"] == "create_branch" for op in ops)
    assert any(op["op"] == "branch_update" for op in ops)
    assert any(op["op"] == "merge_branch" for op in ops)


def test_shrinker_finds_minimal_core():
    # the harness itself: a synthetic oracle failing iff both "a" and "c"
    # survive must shrink to exactly those two ops, in order
    ops = [{"op": x} for x in "abcde"]

    def fails(candidate):
        present = {op["op"] for op in candidate}
        return {"a", "c"} <= present

    assert shrink(ops, fails) == [{"op": "a"}, {"op": "c"}]


def test_generator_is_deterministic():
    assert generate_ops(42, 50) == generate_ops(42, 50)
