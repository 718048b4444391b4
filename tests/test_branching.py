"""Branching & time travel: the commit-DAG overlay contract.

Three layers of coverage, mirroring the module layering:

* **Persistence parity** — the branch primitives (zero-copy fork,
  copy-on-write commit, fall-through reads, diff / merge / delete) run
  an identical scripted history on all three backends, including at
  MVCC-tombstoned and post-``compact`` versions, and must produce an
  identical fingerprint — exceptions included.
* **Overlay fall-through property** — a seeded random interleaving of
  base writes, branch writes, branch tombstones, and post-fork main
  writes, checked key-by-key against a plain dict model (the same
  hand-rolled generator style as ``test_cluster_properties``).
* **Service & replication** — branch isolation, single-commit merges,
  conflict naming, and branch ops surviving a kill-the-leader failover
  with the fencing token still enforced.
"""

from __future__ import annotations

from random import Random

import pytest

from repro.clock import SimClock
from repro.core.cluster import CatalogCluster
from repro.core.model.entity import SecurableKind
from repro.core.persistence import branching as br
from repro.core.persistence.memory import InMemoryMetadataStore
from repro.core.persistence.sqlite import SqliteMetadataStore
from repro.core.persistence.store import Tables, WriteOp
from repro.core.persistence.treecat import TreeCatMetadataStore
from repro.errors import (
    AlreadyExistsError,
    FencingTokenError,
    InvalidRequestError,
    MergeConflictError,
    NotFoundError,
)

MID = "ms-1"
ADMIN = "admin"
TABLE_SPEC = {
    "table_type": "MANAGED",
    "format": "DELTA",
    "columns": [{"name": "id", "type": "BIGINT"}],
}

BACKENDS = {
    "memory": lambda: InMemoryMetadataStore(),
    "sqlite": lambda: SqliteMetadataStore(":memory:"),
    # the same class as "memory", reached through the TreeCat import path
    "treecat": lambda: TreeCatMetadataStore(),
}


@pytest.fixture(params=sorted(BACKENDS))
def store(request):
    backend = BACKENDS[request.param]()
    backend.create_metastore_slot(MID)
    yield backend
    if request.param == "sqlite":
        backend.close()


def put(key, **value):
    return WriteOp.put(Tables.ENTITIES, key, value or {"v": key})


def delete(key):
    return WriteOp.delete(Tables.ENTITIES, key)


# ---------------------------------------------------------------------------
# persistence primitives, one backend at a time
# ---------------------------------------------------------------------------


class TestBranchPrimitives:
    def test_fork_is_zero_copy(self, store):
        store.commit(MID, 0, [put("a", x=1), put("b", x=2)])
        ref = br.create_branch(store, MID, "cat", "dev")
        assert (ref.fork_version, ref.head_version) == (1, 1)
        # exactly one ref row, no copied data rows
        snap = store.snapshot(MID)
        assert len(list(snap.scan(br.BRANCHES_TABLE))) == 1
        assert list(snap.scan(br.overlay_table(Tables.ENTITIES, ref.key))) == []

    def test_duplicate_fork_rejected(self, store):
        store.commit(MID, 0, [put("a")])
        br.create_branch(store, MID, "cat", "dev")
        with pytest.raises(AlreadyExistsError):
            br.create_branch(store, MID, "cat", "dev")

    def test_fork_of_main_rejected(self, store):
        with pytest.raises(InvalidRequestError):
            br.create_branch(store, MID, "cat", "main")

    def test_overlay_shadows_and_falls_through(self, store):
        version = store.commit(MID, 0, [put("a", x=1)])
        ref = br.create_branch(store, MID, "cat", "dev")
        version = br.commit_to_branch(
            store, MID, ref.key, version + 1,
            [put("a", x=2), put("b", x=3)],
        )
        snap = br.branch_snapshot(store, MID, ref.key)
        assert snap.get(Tables.ENTITIES, "a") == {"x": 2}  # overlay wins
        assert snap.get(Tables.ENTITIES, "b") == {"x": 3}  # branch-only
        # the trunk never sees either write
        trunk = store.snapshot(MID)
        assert trunk.get(Tables.ENTITIES, "a") == {"x": 1}
        assert trunk.get(Tables.ENTITIES, "b") is None

    def test_branch_tombstone_hides_base_row(self, store):
        version = store.commit(MID, 0, [put("a", x=1), put("b", x=2)])
        ref = br.create_branch(store, MID, "cat", "dev")
        br.commit_to_branch(store, MID, ref.key, version + 1, [delete("a")])
        snap = br.branch_snapshot(store, MID, ref.key)
        assert snap.get(Tables.ENTITIES, "a") is None
        assert [k for k, _ in snap.scan(Tables.ENTITIES)] == ["b"]
        assert set(snap.multi_get(Tables.ENTITIES, ["a", "b"])) == {"b"}
        # deleted on the branch, alive on the trunk
        assert store.snapshot(MID).get(Tables.ENTITIES, "a") == {"x": 1}

    def test_main_commits_after_fork_are_invisible(self, store):
        version = store.commit(MID, 0, [put("a", x=1)])
        ref = br.create_branch(store, MID, "cat", "dev")
        store.commit(MID, version + 1, [put("a", x=9), put("c", x=9)])
        snap = br.branch_snapshot(store, MID, ref.key)
        assert snap.get(Tables.ENTITIES, "a") == {"x": 1}  # pinned at fork
        assert snap.get(Tables.ENTITIES, "c") is None
        diff = br.diff_branch(store, MID, ref.key)
        assert (Tables.ENTITIES, "a") in diff.main_touched
        assert diff.conflicts == ()  # branch has no opinion on "a"

    def test_branch_as_of_rewinds_the_overlay(self, store):
        version = store.commit(MID, 0, [put("a", x=1)])
        ref = br.create_branch(store, MID, "cat", "dev")
        v_fork = version + 1
        v_put = br.commit_to_branch(
            store, MID, ref.key, v_fork, [put("a", x=2)])
        br.commit_to_branch(store, MID, ref.key, v_put, [delete("a")])
        # AS OF each branch version: pre-overlay, post-put, post-delete
        assert br.branch_snapshot(store, MID, ref.key, at_version=v_fork) \
            .get(Tables.ENTITIES, "a") == {"x": 1}
        assert br.branch_snapshot(store, MID, ref.key, at_version=v_put) \
            .get(Tables.ENTITIES, "a") == {"x": 2}
        assert br.branch_snapshot(store, MID, ref.key) \
            .get(Tables.ENTITIES, "a") is None

    def test_branch_changes_feed_cache_invalidation(self, store):
        version = store.commit(MID, 0, [put("a", x=1)])
        ref = br.create_branch(store, MID, "cat", "dev")
        version = br.commit_to_branch(
            store, MID, ref.key, version + 1, [put("b", x=2)])
        br.commit_to_branch(store, MID, ref.key, version, [delete("a")])
        changed = {(r.table, r.key)
                   for r in br.branch_changes_since(store, MID, ref.key, 0)}
        # renamed back to base tables, tombstone included: exactly what a
        # per-branch cache bundle must invalidate
        assert changed == {(Tables.ENTITIES, "a"), (Tables.ENTITIES, "b")}
        # ...and the trunk's own log never leaks into the branch replay
        store.commit(MID, store.current_version(MID), [put("c", x=3)])
        assert {(r.table, r.key)
                for r in br.branch_changes_since(store, MID, ref.key, 0)} \
            == changed

    def test_merge_is_one_commit_and_drops_the_overlay(self, store):
        version = store.commit(MID, 0, [put("a", x=1), put("b", x=2)])
        ref = br.create_branch(store, MID, "cat", "dev")
        version = br.commit_to_branch(
            store, MID, ref.key, version + 1,
            [put("a", x=5), delete("b"), put("c", x=7)],
        )
        before = store.current_version(MID)
        diff = br.diff_branch(store, MID, ref.key)
        after = store.commit(MID, before, br.merge_ops(diff))
        assert after == before + 1  # single-history-equivalent audit
        trunk = store.snapshot(MID)
        assert trunk.get(Tables.ENTITIES, "a") == {"x": 5}
        assert trunk.get(Tables.ENTITIES, "b") is None
        assert trunk.get(Tables.ENTITIES, "c") == {"x": 7}
        assert br.read_ref(trunk, ref.key) is None
        assert list(trunk.scan(br.overlay_table(Tables.ENTITIES, ref.key))) \
            == []

    def test_delete_branch_discards_everything(self, store):
        version = store.commit(MID, 0, [put("a", x=1)])
        ref = br.create_branch(store, MID, "cat", "dev")
        br.commit_to_branch(store, MID, ref.key, version + 1,
                            [put("a", x=9), delete("a")])
        ops = br.delete_branch_ops(store, MID, ref.key)
        store.commit(MID, store.current_version(MID), ops)
        trunk = store.snapshot(MID)
        assert br.read_ref(trunk, ref.key) is None
        assert trunk.get(Tables.ENTITIES, "a") == {"x": 1}
        with pytest.raises(NotFoundError):
            br.branch_snapshot(store, MID, ref.key)


# ---------------------------------------------------------------------------
# three-backend parity at tombstoned and compacted versions
# ---------------------------------------------------------------------------


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # parity includes *which* error is raised
        return f"raise:{type(exc).__name__}"


def _branch_history_fingerprint(make_store) -> list:
    """One scripted history — MVCC deletes, a fork, branch tombstones,
    a merge, then compaction — probed at every interesting version.

    The return value is the parity fingerprint: every backend must
    produce it byte-for-byte, including any exceptions, so time travel
    over tombstoned and compacted history cannot quietly diverge."""
    store = make_store()
    store.create_metastore_slot(MID)
    out = []
    v1 = store.commit(MID, 0, [put("a", x=1), put("b", x=2)])
    v2 = store.commit(MID, v1, [delete("b"), put("c", x=3)])  # MVCC tombstone
    ref = br.create_branch(store, MID, "cat", "dev")
    v_fork = v2 + 1
    v4 = br.commit_to_branch(store, MID, ref.key, v_fork,
                             [put("a", x=4), delete("c")])
    # sorted: ordering *within* one commit is unspecified by the contract
    out.append(("changes", sorted((r.version, r.table, r.key, r.deleted)
                                  for r in store.changes_since(MID, 0))))
    out.append(("branch_changes",
                [(r.table, r.key)
                 for r in br.branch_changes_since(store, MID, ref.key, 0)]))
    # snapshot(at_version=...) around the trunk tombstone
    for version in (v1, v2):
        snap = store.snapshot(MID, version)
        out.append((f"trunk@{version}",
                    sorted(snap.scan(Tables.ENTITIES))))
    # the branch view around its own tombstone
    for version in (v_fork, v4):
        snap = br.branch_snapshot(store, MID, ref.key, at_version=version)
        out.append((f"branch@{version}",
                    sorted(snap.scan(Tables.ENTITIES))))
    # merge, then compact away everything below the head
    diff = br.diff_branch(store, MID, ref.key)
    out.append(("conflicts", diff.conflicts))
    v5 = store.commit(MID, v4, br.merge_ops(diff))
    store.compact(MID, min_version=v5)
    out.append(("post-compact head",
                sorted(store.snapshot(MID).scan(Tables.ENTITIES))))
    out.append(("post-compact changes",
                sorted((r.table, r.key, r.deleted)
                       for r in store.changes_since(MID, 0))))
    # time travel into compacted history must fail (or not) identically
    out.append(("trunk@v1 post-compact", _outcome(
        lambda: sorted(store.snapshot(MID, v1).scan(Tables.ENTITIES)))))
    out.append(("branch@v4 post-compact", _outcome(
        lambda: br.branch_snapshot(store, MID, ref.key, at_version=v4))))
    if hasattr(store, "close"):
        store.close()
    return out


def test_three_backend_parity_over_tombstones_and_compaction():
    prints = {name: _branch_history_fingerprint(make)
              for name, make in BACKENDS.items()}
    assert prints["sqlite"] == prints["memory"]
    assert prints["treecat"] == prints["memory"]
    # and the shared fingerprint says what it should: the merge landed,
    # tombstones hid rows at the right versions, compaction kept the head
    by_label = dict(prints["memory"])
    assert [k for k, _ in by_label["trunk@2"]] == ["a", "c"]
    assert [k for k, _ in by_label["branch@3"]] == ["a", "c"]
    assert [k for k, _ in by_label["branch@4"]] == ["a"]
    assert by_label["conflicts"] == ()
    assert [k for k, _ in by_label["post-compact head"]] == ["a"]


# ---------------------------------------------------------------------------
# overlay fall-through property (hand-rolled generator, like
# test_cluster_properties: small key pool, seeded interleaving)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 7, 23, 41])
def test_overlay_fall_through_matches_model(store, seed):
    rng = Random(seed)
    keys = [f"k{i}" for i in range(8)]
    version = 0
    base_model: dict[str, dict] = {}
    for _ in range(15):
        key = rng.choice(keys)
        if key in base_model and rng.random() < 0.25:
            version = store.commit(MID, version, [delete(key)])
            base_model.pop(key)
        else:
            value = {"v": rng.randint(0, 9)}
            version = store.commit(MID, version, [put(key, **value)])
            base_model[key] = value
    ref = br.create_branch(store, MID, "cat", "dev")
    version += 1
    model = dict(base_model)  # the branch view: fork base + overlay
    for _ in range(30):
        key = rng.choice(keys)
        if rng.random() < 0.6:
            value = {"v": rng.randint(10, 19)}
            version = br.commit_to_branch(
                store, MID, ref.key, version, [put(key, **value)])
            model[key] = value
        else:
            version = br.commit_to_branch(
                store, MID, ref.key, version, [delete(key)])
            model.pop(key, None)
        if rng.random() < 0.3:  # post-fork trunk noise: invisible here
            version = store.commit(
                MID, version, [put(rng.choice(keys), v=99)])
    snap = br.branch_snapshot(store, MID, ref.key)
    for key in keys:
        assert snap.get(Tables.ENTITIES, key) == model.get(key), key
    assert dict(snap.scan(Tables.ENTITIES)) == model
    assert snap.multi_get(Tables.ENTITIES, keys) == model
    # and no overlay value ever leaked onto the trunk
    for _, value in store.snapshot(MID).scan(Tables.ENTITIES):
        assert not (10 <= value["v"] <= 19)


TREE_PARENTS = ["p0", "p1", "p2"]
TREE_KINDS = ["TABLE", "VOLUME"]
TREE_NAMES = ["a", "b", "c"]
TREE_IDS = [f"e{i}" for i in range(6)] + ["e10", "e11"]
TREE_PREFIXES = ["", "e", "e1", "e5", "x"]


def _tree_step(rng: Random, model: dict[str, dict]) -> WriteOp:
    """One entity write against ``model`` (applied to it): a rename, a
    reparent, a soft delete, a hard delete, or a create that often
    reuses the slot of a deleted entity (a same-name recreate)."""
    key = rng.choice(TREE_IDS)
    row = model.get(key)
    if row is None or row["state"] != "ACTIVE":
        dead = [v for v in model.values() if v["state"] != "ACTIVE"]
        if dead and rng.random() < 0.6:
            slot = rng.choice(dead)
            parent, kind, name = slot["parent_id"], slot["kind"], slot["name"]
        else:
            parent, kind, name = (rng.choice(TREE_PARENTS), rng.choice(TREE_KINDS),
                                  rng.choice(TREE_NAMES))
        row = {"id": key, "parent_id": parent, "kind": kind, "name": name,
               "state": "ACTIVE"}
    else:
        move = rng.choice(["rename", "reparent", "soft_delete", "hard_delete"])
        if move == "hard_delete":
            model.pop(key)
            return delete(key)
        row = dict(row)
        if move == "rename":
            row["name"] = rng.choice(TREE_NAMES)
        elif move == "reparent":
            row["parent_id"] = rng.choice(TREE_PARENTS)
        else:
            row["state"] = "DELETED"
    model[key] = row
    return WriteOp.put(Tables.ENTITIES, key, row)


def _check_tree_against_model(snap, model: dict[str, dict]) -> None:
    for prefix in TREE_PREFIXES:
        under = sorted(k for k in model if k.startswith(prefix))
        assert list(snap.scan_prefix(Tables.ENTITIES, prefix)) == [
            (k, model[k]) for k in under], prefix
        assert snap.count(Tables.ENTITIES, prefix) == len(under), prefix
    for parent in TREE_PARENTS:
        for kind in [None] + TREE_KINDS:
            # index order: (kind, name, id) under the parent
            rows = sorted(
                (v for v in model.values()
                 if v["parent_id"] == parent and kind in (None, v["kind"])),
                key=lambda v: (v["kind"], v["name"], v["id"]),
            )
            active = [v["id"] for v in rows if v["state"] == "ACTIVE"]
            assert snap.children_ids(parent, kind, include_deleted=True) == [
                v["id"] for v in rows], (parent, kind)
            assert snap.children_ids(parent, kind) == active, (parent, kind)
            assert snap.count_children(parent, kind) == len(active)
            if kind is None:
                continue
            for name in TREE_NAMES:
                named = [v["id"] for v in rows
                         if v["name"] == name and v["state"] == "ACTIVE"]
                assert snap.child_id(parent, kind, name) == (
                    min(named) if named else None), (parent, kind, name)


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_branch_tree_index_matches_model(store, seed):
    """Branch name resolution (the base index at the fork, corrected by
    the overlay's entity rows) and branch range reads agree with a dict
    model after every rename, reparent, soft/hard delete and same-name
    recreate — on either side of the fork, at the head and AS OF."""
    rng = Random(seed)
    version = 0
    trunk: dict[str, dict] = {}
    for _ in range(12):
        version = store.commit(MID, version, [_tree_step(rng, trunk)])
        _check_tree_against_model(store.snapshot(MID), trunk)
    ref = br.create_branch(store, MID, "cat", "dev")
    version += 1
    model = {k: dict(v) for k, v in trunk.items()}
    history = {version: dict(model)}  # the branch view at each version
    for _ in range(30):
        if rng.random() < 0.35:  # a trunk write: invisible on the branch
            version = store.commit(MID, version, [_tree_step(rng, trunk)])
        else:
            version = br.commit_to_branch(
                store, MID, ref.key, version, [_tree_step(rng, model)])
        history[version] = dict(model)
        _check_tree_against_model(br.branch_snapshot(store, MID, ref.key),
                                  model)
        as_of = rng.choice(sorted(history))
        _check_tree_against_model(
            br.branch_snapshot(store, MID, ref.key, at_version=as_of),
            history[as_of])


# ---------------------------------------------------------------------------
# service level: isolation, merges, conflicts — through the full stack
# ---------------------------------------------------------------------------


def _service():
    cluster = CatalogCluster(1, clock=SimClock())
    cluster.directory.add_user(ADMIN)
    mid = cluster.create_metastore("branchy", owner=ADMIN).id
    svc = cluster.shards[0].service
    svc.create_securable(mid, ADMIN, SecurableKind.CATALOG, "sales")
    svc.create_securable(mid, ADMIN, SecurableKind.SCHEMA, "sales.q1")
    svc.create_securable(mid, ADMIN, SecurableKind.TABLE, "sales.q1.orders",
                         spec=TABLE_SPEC)
    return svc, mid


class TestServiceBranching:
    def test_branch_writes_are_isolated_until_merge(self):
        svc, mid = _service()
        svc.create_branch(mid, ADMIN, "sales", "dev")
        svc.update_securable(mid, ADMIN, SecurableKind.TABLE,
                             "sales@dev.q1.orders", comment="experiment")
        on_branch = svc.get_securable(mid, ADMIN, SecurableKind.TABLE,
                                      "sales@dev.q1.orders")
        on_trunk = svc.get_securable(mid, ADMIN, SecurableKind.TABLE,
                                     "sales.q1.orders")
        assert on_branch.comment == "experiment"
        assert on_trunk.comment != "experiment"

    def test_clean_merge_is_one_version_and_lands_the_change(self):
        svc, mid = _service()
        svc.create_branch(mid, ADMIN, "sales", "dev")
        svc.update_securable(mid, ADMIN, SecurableKind.TABLE,
                             "sales@dev.q1.orders", comment="merged in")
        before = svc.head_version(mid)
        result = svc.merge_branch(mid, ADMIN, "sales", "dev")
        assert result["merged_changes"] == 1
        assert result["version"] == before + 1  # atomic, single commit
        assert svc.get_securable(mid, ADMIN, SecurableKind.TABLE,
                                 "sales.q1.orders").comment == "merged in"
        assert svc.list_branches(mid, ADMIN, "sales") == []

    def test_merge_conflict_names_the_securable(self):
        svc, mid = _service()
        svc.create_branch(mid, ADMIN, "sales", "dev")
        svc.update_securable(mid, ADMIN, SecurableKind.TABLE,
                             "sales@dev.q1.orders", comment="branch side")
        svc.update_securable(mid, ADMIN, SecurableKind.TABLE,
                             "sales.q1.orders", comment="trunk side")
        with pytest.raises(MergeConflictError) as exc_info:
            svc.merge_branch(mid, ADMIN, "sales", "dev")
        assert exc_info.value.code == "MERGE_CONFLICT"
        assert "orders" in str(exc_info.value)
        assert any(name == "orders"
                   for _, _, name in exc_info.value.conflicts)
        # nothing merged: both sides keep their own value
        assert svc.get_securable(mid, ADMIN, SecurableKind.TABLE,
                                 "sales.q1.orders").comment == "trunk side"
        assert svc.get_securable(mid, ADMIN, SecurableKind.TABLE,
                                 "sales@dev.q1.orders").comment \
            == "branch side"

    def test_deleted_branch_work_is_discarded(self):
        svc, mid = _service()
        svc.create_branch(mid, ADMIN, "sales", "dev")
        svc.update_securable(mid, ADMIN, SecurableKind.TABLE,
                             "sales@dev.q1.orders", comment="scrapped")
        svc.delete_branch(mid, ADMIN, "sales", "dev")
        svc.create_branch(mid, ADMIN, "sales", "dev")  # fresh fork
        diff = svc.diff_branch(mid, ADMIN, "sales", "dev")
        assert diff["changes"] == []
        assert svc.get_securable(mid, ADMIN, SecurableKind.TABLE,
                                 "sales.q1.orders").comment != "scrapped"


# ---------------------------------------------------------------------------
# replication: branch ops survive kill-the-leader, fencing intact
# ---------------------------------------------------------------------------


def test_branch_ops_survive_failover_with_fencing():
    clock = SimClock()
    cluster = CatalogCluster(1, clock=clock, replicas_per_shard=3,
                             lease_duration=1.0)
    cluster.directory.add_user(ADMIN)
    mid = cluster.create_metastore("repl", owner=ADMIN).id
    cluster.dispatch("create_securable", metastore_id=mid, principal=ADMIN,
                     kind=SecurableKind.CATALOG, name="sales")
    cluster.dispatch("create_securable", metastore_id=mid, principal=ADMIN,
                     kind=SecurableKind.SCHEMA, name="sales.q1")
    cluster.dispatch("create_securable", metastore_id=mid, principal=ADMIN,
                     kind=SecurableKind.TABLE, name="sales.q1.orders",
                     spec=TABLE_SPEC)
    cluster.dispatch("create_branch", metastore_id=mid, principal=ADMIN,
                     catalog="sales", branch="dev")
    cluster.dispatch("update_securable", metastore_id=mid, principal=ADMIN,
                     kind=SecurableKind.TABLE, name="sales@dev.q1.orders",
                     comment="pre-failover")

    group = cluster.shards[0].group
    old = group.leader()
    group.crash_leader()
    clock.advance(2.0)  # past the lease window: next write promotes

    # the branch (ref + overlay) replicated through the change log, so
    # the new leader serves it — reads and new branch writes both work
    branches = cluster.dispatch("list_branches", metastore_id=mid,
                                principal=ADMIN, catalog="sales")
    assert [b["branch"] for b in branches] == ["dev"]
    got = cluster.dispatch("get_securable", metastore_id=mid,
                           principal=ADMIN, kind=SecurableKind.TABLE,
                           name="sales@dev.q1.orders")
    assert got.comment == "pre-failover"
    # the first post-crash write promotes a follower under a new epoch
    cluster.dispatch("update_securable", metastore_id=mid, principal=ADMIN,
                     kind=SecurableKind.TABLE, name="sales@dev.q1.orders",
                     comment="post-failover")
    assert group.epoch == 2

    # the deposed leader's stale-epoch branch write is fenced at the
    # store, exactly like any other mutation
    with pytest.raises(FencingTokenError):
        old.service.dispatch("merge_branch", metastore_id=mid,
                             principal=ADMIN, catalog="sales", branch="dev")

    # and the merge still lands cleanly through the promoted leader
    result = cluster.dispatch("merge_branch", metastore_id=mid,
                              principal=ADMIN, catalog="sales", branch="dev")
    assert result["merged_changes"] == 1
    assert cluster.dispatch("get_securable", metastore_id=mid,
                            principal=ADMIN, kind=SecurableKind.TABLE,
                            name="sales.q1.orders").comment == "post-failover"

    # every live replica converged on the merged trunk and an empty ref
    # table — the overlay left no residue anywhere in the group
    for replica in group.replicas:
        if replica.name == old.name:
            continue
        snap = replica.store.inner.snapshot(mid)
        assert list(snap.scan(br.BRANCHES_TABLE)) == []
        assert [v.get("comment") for _, v in snap.scan(Tables.ENTITIES)
                if v.get("name") == "orders"] == ["post-failover"]
