"""Model-based property of the cache node: every read through a node's
snapshot equals the same read on a view of the raw store at that version.

Random scripts create, update, rename, move, soft-delete, grant and
revoke, some through the node (write-through) and some by a peer
straight into the backing store; snapshots are pinned along the way and
re-read after later commits, evictions, reconciles and prunes. Runs
under every entity cap in {1, 5, None} and both reconcile modes.
"""

from __future__ import annotations

import random
import sys
import threading
import time

from hypothesis import given, settings, strategies as st

from repro.clock import SimClock
from repro.cloudstore.object_store import StoragePath
from repro.core.assets.builtin import builtin_registry
from repro.core.auth.privileges import Privilege, PrivilegeGrant
from repro.core.cache.eviction import LfuPolicy, LruPolicy
from repro.core.cache.node import MetastoreCacheNode, ReconcileMode
from repro.core.model.entity import Entity, SecurableKind
from repro.core.persistence.memory import InMemoryMetadataStore
from repro.core.persistence.store import Tables, WriteOp
from repro.core.view import SnapshotView
from repro.errors import ConcurrentModificationError

MID = "m"
REGISTRY = builtin_registry()
NAMES = ("a", "b", "c", "d")
PRINCIPALS = ("bob", "carol")
#: kind -> the kind of its parent (None: the metastore root)
PARENT_KIND = {
    SecurableKind.CATALOG: None,
    SecurableKind.SCHEMA: SecurableKind.CATALOG,
    SecurableKind.TABLE: SecurableKind.SCHEMA,
}
GROUPS = sorted({REGISTRY.get(kind).namespace_group for kind in PARENT_KIND})

_writer = st.sampled_from(["node", "peer"])
_pick = st.integers(min_value=0, max_value=63)
ACTIONS = st.one_of(
    st.tuples(st.just("create"), st.sampled_from(list(PARENT_KIND)), _pick,
              st.sampled_from(NAMES), _writer),
    st.tuples(st.just("update"), _pick, _writer),
    st.tuples(st.just("rename"), _pick, st.sampled_from(NAMES), _writer),
    st.tuples(st.just("move_path"), _pick, _writer),
    st.tuples(st.just("soft_delete"), _pick, _writer),
    st.tuples(st.just("grant"), _pick, st.sampled_from(PRINCIPALS), _writer),
    st.tuples(st.just("revoke"), _pick, st.sampled_from(PRINCIPALS), _writer),
    st.tuples(st.just("pin"), st.booleans()),
    st.tuples(st.just("advance"),),
    st.tuples(st.just("reconcile"),),
)


class _Script:
    """Turns drawn actions into write batches over a model of the live
    entities, keeping the catalog's invariants (unique sibling names,
    non-overlapping paths) so both read paths can answer."""

    def __init__(self, store: InMemoryMetadataStore, node: MetastoreCacheNode):
        self.store, self.node = store, node
        self.rows: dict[str, dict] = {}  # entity id -> newest row
        self.grants: dict[str, dict] = {}
        self.serial = 0

    def _live(self, kind=None):
        return sorted(key for key, row in self.rows.items()
                      if row["state"] == "ACTIVE" and (kind is None or row["kind"] == kind.value))

    def _name_free(self, parent_id, kind, name) -> bool:
        group = REGISTRY.get(kind).namespace_group
        return not any(
            row["parent_id"] == parent_id and row["name"] == name and row["state"] == "ACTIVE"
            and REGISTRY.get(SecurableKind(row["kind"])).namespace_group == group
            for row in self.rows.values())

    def _path(self) -> str:
        self.serial += 1
        return f"s3://bucket/p{self.serial}"

    def ops(self, action) -> list[WriteOp]:
        verb = action[0]
        if verb == "create":
            _, kind, pick, name, _ = action
            parent_kind = PARENT_KIND[kind]
            parents = [MID] if parent_kind is None else self._live(parent_kind)
            if not parents:
                return []
            parent_id = parents[pick % len(parents)]
            if not self._name_free(parent_id, kind, name):
                return []
            self.serial += 1
            entity = Entity(
                id=f"e{self.serial:04d}", kind=kind, name=name, metastore_id=MID,
                parent_id=parent_id, owner="admin", created_at=0.0, updated_at=0.0,
                storage_path=self._path() if kind is SecurableKind.TABLE else None,
                spec={"table_type": "EXTERNAL"} if kind is SecurableKind.TABLE else {},
            )
            return [self._put(entity.to_dict())]
        if verb in ("update", "rename", "move_path", "soft_delete"):
            live = self._live(SecurableKind.TABLE if verb == "move_path" else None)
            if not live:
                return []
            row = dict(self.rows[live[action[1] % len(live)]])
            if verb == "update":
                row["comment"] = f"c{self.serial}"
                self.serial += 1
            elif verb == "rename":
                kind = SecurableKind(row["kind"])
                if not self._name_free(row["parent_id"], kind, action[2]):
                    return []
                row["name"] = action[2]
            elif verb == "move_path":
                row["storage_path"] = self._path()
            else:
                row = Entity.from_dict(row).soft_deleted(at=1.0).to_dict()
            return [self._put(row)]
        if verb in ("grant", "revoke"):
            live = self._live()
            if not live:
                return []
            grant = PrivilegeGrant(live[action[1] % len(live)], action[2],
                                   Privilege.SELECT, "admin", 0.0)
            if verb == "grant":
                self.grants[grant.key] = grant.to_dict()
                return [WriteOp.put(Tables.GRANTS, grant.key, grant.to_dict())]
            if self.grants.pop(grant.key, None) is None:
                return []
            return [WriteOp.delete(Tables.GRANTS, grant.key)]
        return []

    def _put(self, row: dict) -> WriteOp:
        self.rows[row["id"]] = row
        return WriteOp.put(Tables.ENTITIES, row["id"], row)

    def write(self, ops: list[WriteOp], writer: str) -> None:
        if writer == "peer":
            self.store.commit(MID, self.store.current_version(MID), ops)
            return
        while True:
            try:
                self.node.commit(ops)
                return
            except ConcurrentModificationError:
                continue  # the failed CAS reconciled the node


def _observe(view: SnapshotView, rows: dict[str, dict], grants: dict[str, dict]) -> dict:
    """Every read the property compares, on one fresh view, over the
    entities and grants a script has written."""
    ids = sorted(rows) + ["missing"]
    parents = [MID] + ids
    table_paths = [rows[key]["storage_path"] for key in sorted(rows)
                   if rows[key].get("storage_path")]
    paths = [StoragePath.parse(p) for p in table_paths]
    paths += [StoragePath.parse(p + "/part-0") for p in table_paths]
    paths.append(StoragePath.parse("s3://bucket/nowhere"))

    def entity(e):
        return None if e is None else e.to_dict()

    return {
        "version": view.version,
        "by_id": {key: entity(view.entity_by_id(key)) for key in ids},
        "by_name": {(parent, group, name): entity(view.entity_by_name(parent, group, name))
                    for parent in parents for group in GROUPS for name in NAMES},
        "children": {parent: [e.id for e in view.children(parent)] for parent in parents},
        "grants": {key: sorted(g.key for g in view.grants_on(key)) for key in ids},
        "row": {key: view.row(Tables.GRANTS, key) for key in sorted(grants)},
        "rows": sorted(key for key, _ in view.rows(Tables.GRANTS)),
        "entities": sorted(e.id for e in view.entities()),
        "resolve": [entity(view.resolve_path(path)) for path in paths],
        "overlap": [sorted(view.overlapping_assets(path)) for path in paths],
    }


def _estate(cap, mode, policy, clock) -> _Script:
    """A node and a store holding two catalogs, two schemas each, two
    tables each and four grants, written before the node warms."""
    store = InMemoryMetadataStore()
    store.create_metastore_slot(MID)
    node = MetastoreCacheNode(store, MID, clock=clock, reconcile_mode=mode,
                              eviction_policy=policy(), max_cached_entities=cap,
                              request_timeout_seconds=60.0)
    script = _Script(store, node)
    for kind, count in zip(PARENT_KIND, (2, 4, 8)):
        for pick in range(count):
            script.write(script.ops(("create", kind, pick // 2, NAMES[pick % 2], "")), "peer")
    for pick in range(4):
        script.write(script.ops(("grant", pick, "bob", "")), "peer")
    node.warm()
    return script


def _check(snapshot, script: _Script, rows=None, grants=None) -> None:
    rows = script.rows if rows is None else rows
    grants = script.grants if grants is None else grants
    raw_snapshot = script.store.snapshot(MID, snapshot.version)
    cached = _observe(SnapshotView(snapshot, REGISTRY), rows, grants)
    raw = _observe(SnapshotView(raw_snapshot, REGISTRY), rows, grants)
    assert cached == raw, snapshot.version
    for parent in [MID] + sorted(rows):  # soft-deleted children too
        assert (snapshot.children_ids(parent, include_deleted=True)
                == raw_snapshot.children_ids(parent, include_deleted=True)), parent


@settings(max_examples=120, deadline=None)
@given(
    cap=st.sampled_from([1, 5, None]),
    mode=st.sampled_from(list(ReconcileMode)),
    policy=st.sampled_from([LruPolicy, LfuPolicy]),
    actions=st.lists(ACTIONS, min_size=1, max_size=25),
)
def test_node_snapshots_read_as_the_raw_store_at_their_version(cap, mode, policy, actions):
    clock = SimClock()
    script = _estate(cap, mode, policy, clock)
    node = script.node
    pins = [node.view()]  # the warm version, read again after every step
    for action in actions:
        if action[0] == "pin":
            pins.append(node.view(check_version=action[1]))
        elif action[0] == "advance":
            clock.advance(61.0)
        elif action[0] == "reconcile":
            node.reconcile()  # under EVICT_ALL, drops even a current copy
        else:
            ops = script.ops(action)
            if ops:
                script.write(ops, action[-1])
        for snapshot in pins + [node.view()]:
            _check(snapshot, script)
        if cap is not None:
            assert node.cached_entities() <= cap


def test_threads_read_pinned_snapshots_while_others_write():
    """More threads than cores and a short switch interval: readers on
    snapshots pinned at many versions, a writer through the node and one
    through the store, evicting at a cap of 5. Every read still equals
    the raw store's at the snapshot's version."""
    script = _estate(5, ReconcileMode.SELECTIVE, LruPolicy, SimClock())
    model_lock = threading.Lock()
    errors: list[BaseException] = []
    deadline = time.monotonic() + 1.5
    verbs = ("update", "rename", "move_path", "soft_delete", "grant", "revoke")

    def writer(name: str) -> None:
        rng = random.Random(name)
        try:
            while time.monotonic() < deadline and not errors:
                verb = rng.choice(verbs)
                action = (verb, rng.randrange(64)) + (
                    (rng.choice(NAMES if verb == "rename" else PRINCIPALS),)
                    if verb in ("rename", "grant", "revoke") else ()) + (name,)
                with model_lock:
                    ops = script.ops(action)
                    if ops:
                        script.write(ops, name)
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    def reader(seed: int) -> None:
        rng = random.Random(seed)
        pins = []
        try:
            while time.monotonic() < deadline and not errors:
                pins.append(script.node.view(check_version=rng.random() < 0.8))
                with model_lock:
                    rows, grants = dict(script.rows), dict(script.grants)
                _check(rng.choice(pins[-8:]), script, rows, grants)
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(name,)) for name in ("node", "peer")]
    threads += [threading.Thread(target=reader, args=(seed,)) for seed in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[0]
    assert script.node.stats.evictions > 0
