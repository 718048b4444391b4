"""Kill-the-leader failover bench (``python -m repro.bench.failover``).

A 2-shard, 3-replica :class:`~repro.core.cluster.CatalogCluster` serves
a mixed read/write trace on simulated time; the leader of the hot
catalog's shard is killed mid-trace via a fault-rule crash. Gates:
**zero** user-visible read errors across the whole trace, a
write-unavailability window bounded by 1.5x the leader lease, a
fencing-token rejection for the deposed leader's in-flight write, and a
final state byte-identical (modulo random uuids) to a no-failure twin
run fed only the accepted writes. ``--check`` also reruns the whole
bench and fails on any divergence (:mod:`repro.bench.harness`).

Writes ``BENCH_failover.json``.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from repro.bench import harness
from repro.clock import SimClock
from repro.core.auth.privileges import Privilege
from repro.core.cluster import CatalogCluster
from repro.core.model.entity import SecurableKind
from repro.core.persistence.store import Tables
from repro.errors import FencingTokenError, LeaseExpiredError, UnityCatalogError
from repro.faults import FaultInjector
from repro.obs import Observability

ADMIN = "admin"
READER = "alice"

#: fleet shape, trace length and the availability gate
FAILOVER_SHARDS = 2
FAILOVER_REPLICAS = 3
FAILOVER_LEASE_S = 0.25
FAILOVER_OPS = 400
FAILOVER_CRASH_AT = 150
FAILOVER_STEP_S = 0.005
FAILOVER_WRITE_EVERY = 10
FAILOVER_SCATTER_EVERY = 16
#: the write-unavailability window may span the (jittered) remaining
#: lease plus the gap to the next write attempt, never more
FAILOVER_WINDOW_FACTOR = 1.5


_FAILOVER_TABLES = (Tables.ENTITIES, Tables.GRANTS, Tables.TAGS,
                    Tables.POLICIES, Tables.COMMITS, Tables.SHARES)


def entity_tokens(snapshot, mid: str) -> dict[str, str]:
    """Every entity id of a snapshot mapped to a ``<KIND:path>`` token,
    the path walked up ``parent_id`` below the metastore
    (``<SCHEMA:cat0.s0>``): stable across two separately built clusters,
    whose uuids differ, and distinct for same-named entities under
    different parents."""
    rows = {value["id"]: value for _, value in snapshot.scan(Tables.ENTITIES)
            if isinstance(value, dict) and "id" in value and "kind" in value}
    tokens = {mid: "<metastore>"}
    for entity_id, value in rows.items():
        names = [str(value.get("name"))]
        parent = rows.get(value.get("parent_id"))
        while parent is not None and parent["id"] != mid:
            names.append(str(parent.get("name")))
            parent = rows.get(parent.get("parent_id"))
        tokens[entity_id] = f"<{value['kind']}:{'.'.join(reversed(names))}>"
    return tokens


def _normalized_state(replica, mid: str) -> str:
    """One replica's full governed state with every random uuid rewritten
    to its :func:`entity_tokens` token — byte-comparable across two
    separately built clusters, and fingerprint-stable across runs."""
    store = replica.store.inner
    snap = store.snapshot(mid)
    ids = entity_tokens(snap, mid)

    def norm(obj):
        if isinstance(obj, str):
            for raw, token in ids.items():
                if raw in obj:
                    obj = obj.replace(raw, token)
            return obj
        if isinstance(obj, dict):
            return {norm(k): norm(v) for k, v in sorted(obj.items())}
        if isinstance(obj, (list, tuple)):
            return [norm(v) for v in obj]
        return obj

    state = {
        "version": store.current_version(mid),
        "rows": {
            table: sorted(
                ([norm(key), norm(value)] for key, value in snap.scan(table)),
                key=lambda kv: repr(kv[0]),
            )
            for table in _FAILOVER_TABLES
        },
    }
    return json.dumps(state, sort_keys=True)


def _cluster_state(cluster, mid: str) -> str:
    """The whole cluster's governed rows, uuid-normalized and merged
    across shards. Shard placement hashes on the (random) metastore id,
    so two separately built clusters are only comparable cluster-wide —
    per-shard contents and version counters legitimately differ."""
    merged: dict[str, dict[str, Any]] = {t: {} for t in _FAILOVER_TABLES}
    for shard in cluster.shards:
        state = json.loads(_normalized_state(shard.group.leader(), mid))
        for table, rows in state["rows"].items():
            for key, value in rows:
                # broadcast rows (the metastore root) repeat identically
                # on every shard; everything else lives on exactly one
                merged[table][json.dumps(key, sort_keys=True)] = value
    return json.dumps({table: sorted(rows.items())
                       for table, rows in merged.items()}, sort_keys=True)


def _build_failover_cluster(seed: int) -> tuple:
    clock = SimClock()
    obs = Observability(clock=clock)
    faults = FaultInjector(clock, seed=seed, metrics=obs.metrics)
    cluster = CatalogCluster(
        FAILOVER_SHARDS, clock=clock, obs=obs, faults=faults,
        replicas_per_shard=FAILOVER_REPLICAS,
        lease_duration=FAILOVER_LEASE_S,
        read_preference="nearest_fresh",
    )
    directory = cluster.directory
    directory.add_user(ADMIN)
    directory.add_user(READER)
    directory.add_group("analysts")
    directory.add_member("analysts", READER)
    # a seeded metastore id: placement hashes on it, and the trace (which
    # writes land on the crashed shard, how many lease draws happen) must
    # be identical run to run and between the chaos run and its twin
    mid = cluster.dispatch("create_metastore", name="failbench",
                           owner=ADMIN, region="us-west",
                           metastore_id=f"{0xFA11BE4C ^ seed:032x}").id
    for c in range(4):
        catalog = f"cat{c}"
        cluster.dispatch("create_securable", metastore_id=mid,
                         principal=ADMIN, kind=SecurableKind.CATALOG,
                         name=catalog)
        cluster.dispatch("grant", metastore_id=mid, principal=ADMIN,
                         kind=SecurableKind.CATALOG, name=catalog,
                         grantee="analysts", privilege=Privilege.USE_CATALOG)
        cluster.dispatch("create_securable", metastore_id=mid,
                         principal=ADMIN, kind=SecurableKind.SCHEMA,
                         name=f"{catalog}.s0")
        cluster.dispatch("grant", metastore_id=mid, principal=ADMIN,
                         kind=SecurableKind.SCHEMA, name=f"{catalog}.s0",
                         grantee="analysts", privilege=Privilege.USE_SCHEMA)
        cluster.dispatch(
            "create_securable", metastore_id=mid, principal=ADMIN,
            kind=SecurableKind.TABLE, name=f"{catalog}.s0.t0",
            spec={"table_type": "MANAGED", "format": "DELTA",
                  "columns": [{"name": "id", "type": "BIGINT"}]},
        )
        cluster.dispatch("grant", metastore_id=mid, principal=ADMIN,
                         kind=SecurableKind.TABLE, name=f"{catalog}.s0.t0",
                         grantee="analysts", privilege=Privilege.SELECT)
    return cluster, mid, faults


def run_failover_trace(seed: int, *, crash: bool,
                       skip_writes: frozenset = frozenset()) -> dict[str, Any]:
    """One kill-the-leader trace on simulated time.

    ``crash=False`` with ``skip_writes`` set to a prior crash run's
    rejected writes is the *twin*: the same trace and clock advances
    minus the failure — the two runs must end byte-identical.
    """
    cluster, mid, faults = _build_failover_cluster(seed)
    target = "cat0"
    owner = cluster.router.owner_for(mid, target)
    group = cluster.shard_named(owner).group
    session = cluster.read_session()

    reads = read_errors = writes_accepted = 0
    rejected: list[str] = []
    crash_time = first_accept_time = None
    old_leader = crash_op = None

    for i in range(FAILOVER_OPS):
        if crash and i == FAILOVER_CRASH_AT:
            old_leader = group.leader()
            crash_op = f"replica.{owner}.{old_leader.name}.serve"
            faults.crash(crash_op)
            crash_time = cluster.clock.now()
        if i % FAILOVER_WRITE_EVERY == 0:
            name = f"{target}.s0.w{i}"
            if name not in skip_writes:
                try:
                    cluster.dispatch(
                        "create_securable", metastore_id=mid,
                        principal=ADMIN, kind=SecurableKind.TABLE, name=name,
                        spec={"table_type": "MANAGED", "format": "DELTA",
                              "columns": [{"name": "id", "type": "BIGINT"}]},
                        _session=session,
                    )
                    writes_accepted += 1
                    if crash_time is not None and first_accept_time is None:
                        first_accept_time = cluster.clock.now()
                except LeaseExpiredError:
                    rejected.append(name)
        elif i % FAILOVER_SCATTER_EVERY == 0:
            try:
                cluster.dispatch("list_securables", metastore_id=mid,
                                 principal=READER,
                                 kind=SecurableKind.CATALOG,
                                 _session=session)
                reads += 1
            except UnityCatalogError:
                read_errors += 1
        else:
            try:
                cluster.dispatch("get_securable", metastore_id=mid,
                                 principal=READER, kind=SecurableKind.TABLE,
                                 name=f"{target}.s0.t0", _session=session)
                reads += 1
            except UnityCatalogError:
                read_errors += 1
        cluster.clock.advance(FAILOVER_STEP_S)

    # a deposed leader's in-flight mutation must die on its stale
    # fencing token, not fork history
    fenced_rejection = False
    if old_leader is not None:
        try:
            old_leader.service.dispatch(
                "create_securable", metastore_id=mid, principal=ADMIN,
                kind=SecurableKind.CATALOG, name="zombie",
            )
        except FencingTokenError as exc:
            fenced_rejection = exc.code == "FENCED_LEADER"
        except UnityCatalogError:
            fenced_rejection = False

    # lift the crash and stream the old leader back up, then require
    # every replica of every shard to agree byte-for-byte
    if crash_op is not None:
        faults.restore(crash_op)
    converged = True
    for shard in cluster.shards:
        shard.group.replicate()
        states = {_normalized_state(replica, mid)
                  for replica in shard.group.replicas}
        converged = converged and len(states) == 1

    snapshot = cluster.obs.metrics.snapshot()

    def total(prefix: str, *needles: str) -> float:
        return sum(v for k, v in snapshot.items()
                   if k.startswith(prefix) and all(n in k for n in needles))

    window = None
    if crash_time is not None and first_accept_time is not None:
        window = first_accept_time - crash_time
    return {
        "reads": reads,
        "read_errors": read_errors,
        "writes_accepted": writes_accepted,
        "writes_rejected": rejected,
        "write_window_s": window,
        "epoch": group.epoch,
        "failovers": total("uc_replica_failovers_total"),
        "fenced_writes": total("uc_replica_fenced_writes_total"),
        "fenced_rejection": fenced_rejection,
        "replicas_converged": converged,
        "follower_reads": total("uc_replica_reads_total", 'role="follower"'),
        "state": _cluster_state(cluster, mid),
    }


def run_failover(seed: int = 11) -> dict[str, Any]:
    """Kill-the-leader chaos run + its no-failure twin, with gates."""
    chaos = run_failover_trace(seed, crash=True)
    twin = run_failover_trace(
        seed, crash=False, skip_writes=frozenset(chaos["writes_rejected"])
    )
    window_bound = FAILOVER_LEASE_S * FAILOVER_WINDOW_FACTOR
    report: dict[str, Any] = {
        "config": {
            "seed": seed,
            "shards": FAILOVER_SHARDS,
            "replicas_per_shard": FAILOVER_REPLICAS,
            "lease_duration_s": FAILOVER_LEASE_S,
            "ops": FAILOVER_OPS,
            "crash_at_op": FAILOVER_CRASH_AT,
            "step_s": FAILOVER_STEP_S,
            "write_window_bound_s": window_bound,
        },
        "chaos": {k: v for k, v in chaos.items() if k != "state"},
        "twin": {
            "writes_accepted": twin["writes_accepted"],
            "writes_rejected": twin["writes_rejected"],
            "read_errors": twin["read_errors"],
        },
    }
    report["checks"] = {
        "zero_read_errors": (chaos["read_errors"] == 0
                             and twin["read_errors"] == 0),
        "write_window_bounded": (chaos["write_window_s"] is not None
                                 and chaos["write_window_s"] <= window_bound),
        "failover_completed": (chaos["failovers"] == 1
                               and chaos["epoch"] == 2),
        "deposed_leader_fenced": chaos["fenced_rejection"],
        "replicas_converged": (chaos["replicas_converged"]
                               and twin["replicas_converged"]),
        "twin_state_identical": chaos["state"] == twin["state"],
        "twin_rejected_nothing": twin["writes_rejected"] == [],
    }
    return report


def _summary(report: dict[str, Any]) -> str:
    chaos = report["chaos"]
    return "\n".join([
        f"failover: {chaos['reads']} reads, {chaos['read_errors']} read "
        f"errors, {chaos['writes_accepted']} writes accepted, "
        f"{len(chaos['writes_rejected'])} rejected in the failure window",
        f"write-unavailability window: {chaos['write_window_s']:.3f}s "
        f"(bound {report['config']['write_window_bound_s']:.3f}s), "
        f"epoch {chaos['epoch']}, "
        f"fenced rejection: {chaos['fenced_rejection']}",
    ])


SCENARIO = harness.Scenario(
    name="failover", doc=__doc__, seed=11,
    run=lambda args: run_failover(args.seed), summary=_summary,
)


def main(argv: Optional[list[str]] = None) -> int:
    return harness.main(SCENARIO, argv)


if __name__ == "__main__":
    raise SystemExit(main())
