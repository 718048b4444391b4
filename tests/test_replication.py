"""Replica groups: replicated change log, lease-based follower reads,
and fenced leader failover.

The contract under test, end to end:

* every committed write streams to the followers through the bounded
  change log, and all replicas of a shard converge to byte-identical
  stores (memory and SQLite backends);
* reads never error while any replica of the shard is live — a
  kill-the-leader run serves every read, and a read-your-writes session
  never observes state older than its last write (a lagging follower
  *waits* by catching up, or the router *proxies* to the next
  candidate);
* failover is deterministic and clock-driven: the dead leader's lease
  must lapse before the freshest live follower is promoted under a
  bumped fencing epoch, and the deposed leader's in-flight mutations are
  rejected with :class:`FencingTokenError` — accepted history is
  byte-identical to a no-failure twin run modulo the rejected writes;
* a restored replica drains the log, or resyncs from the leader via
  ``changes_since`` when the bounded log was truncated past its cursor.
"""

from __future__ import annotations

import pytest

from repro.bench.scaleout import entity_tokens
from repro.clock import SimClock
from repro.core.auth.privileges import Privilege
from repro.core.cluster import CatalogCluster
from repro.core.cluster.replication import ReplicatedChangeLog
from repro.core.model.entity import SecurableKind
from repro.core.persistence.sqlite import SqliteMetadataStore
from repro.core.persistence.store import Tables
from repro.errors import (
    FencingTokenError,
    InvalidRequestError,
    LeaseExpiredError,
    StorageUnavailableError,
)
from repro.faults import FaultInjector
from repro.obs import Observability

ADMIN = "admin"
TABLE_SPEC = {
    "table_type": "MANAGED",
    "format": "DELTA",
    "columns": [{"name": "id", "type": "BIGINT"}],
}
ALL_TABLES = (Tables.ENTITIES, Tables.GRANTS, Tables.TAGS, Tables.POLICIES,
              Tables.COMMITS, Tables.SHARES)

BACKENDS = {
    "memory": None,
    "sqlite": lambda index: SqliteMetadataStore(),
}


def build_cluster(shards=1, replicas=3, *, with_faults=False, lease=1.0,
                  log_capacity=4096, read_preference="leader",
                  store_factory=None):
    clock = SimClock()
    obs = Observability(clock=clock)
    faults = FaultInjector(clock, seed=5, metrics=obs.metrics) \
        if with_faults else None
    cluster = CatalogCluster(
        shards, clock=clock, obs=obs, faults=faults,
        store_factory=store_factory, replicas_per_shard=replicas,
        read_preference=read_preference, lease_duration=lease,
        replica_log_capacity=log_capacity,
    )
    cluster.directory.add_user(ADMIN)
    mid = cluster.create_metastore("repl", owner=ADMIN).id
    return cluster, mid, clock, faults


def make_catalog(cluster, mid, name):
    cluster.dispatch("create_securable", metastore_id=mid, principal=ADMIN,
                     kind=SecurableKind.CATALOG, name=name)
    cluster.dispatch("create_securable", metastore_id=mid, principal=ADMIN,
                     kind=SecurableKind.SCHEMA, name=f"{name}.s")
    cluster.dispatch("create_securable", metastore_id=mid, principal=ADMIN,
                     kind=SecurableKind.TABLE, name=f"{name}.s.t",
                     spec=TABLE_SPEC)


def dump(replica):
    """Every row of every logical table of a replica's raw store —
    the byte-level convergence check."""
    store = replica.store.inner
    out = {}
    for mid in sorted(store.metastore_ids()):
        snap = store.snapshot(mid)
        out[mid] = {
            "version": store.current_version(mid),
            "rows": {
                table: sorted(snap.scan(table), key=lambda kv: kv[0])
                for table in ALL_TABLES
            },
        }
    return out


def normalized_dump(replica):
    """`dump`, with every (random uuid) entity id rewritten to a stable
    path-qualified ``<KIND:cat.schema>`` token — comparable across two
    separately built clusters, where uuids differ but the governed state
    must not."""
    store = replica.store.inner
    out = {}
    for mid in store.metastore_ids():
        snap = store.snapshot(mid)
        ids = entity_tokens(snap, mid)

        def norm(obj, ids=ids):
            if isinstance(obj, str):
                for raw, token in ids.items():
                    if raw in obj:
                        obj = obj.replace(raw, token)
                return obj
            if isinstance(obj, dict):
                return {norm(k): norm(v) for k, v in obj.items()}
            if isinstance(obj, (list, tuple)):
                return [norm(v) for v in obj]
            return obj

        rows = {
            table: sorted(
                ((norm(key), norm(value)) for key, value in snap.scan(table)),
                key=lambda kv: repr(kv[0]),
            )
            for table in ALL_TABLES
        }
        out[norm(mid)] = {"version": store.current_version(mid),
                          "rows": rows}
    return out


def assert_converged(cluster):
    for shard in cluster.shards:
        replicas = shard.group.replicas
        want = dump(replicas[0])
        for replica in replicas[1:]:
            assert dump(replica) == want, (
                f"replica {replica.name} of {shard.name} diverged"
            )


def metric_sum(cluster, prefix, **labels):
    snap = cluster.obs.metrics.snapshot()
    total = 0.0
    for key, value in snap.items():
        if not key.startswith(prefix):
            continue
        if all(f'{name}="{val}"' in key for name, val in labels.items()):
            total += value
    return total


# -- streaming replication ---------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS, ids=list(BACKENDS))
def test_writes_stream_to_all_replicas(backend):
    cluster, mid, _, _ = build_cluster(
        shards=2, replicas=3, store_factory=BACKENDS[backend]
    )
    for name in ("alpha", "beta", "gamma"):
        make_catalog(cluster, mid, name)
    cluster.dispatch("grant", metastore_id=mid, principal=ADMIN,
                     kind=SecurableKind.CATALOG, name="alpha",
                     grantee=ADMIN, privilege=Privilege.USE_CATALOG)
    assert_converged(cluster)
    for shard in cluster.shards:
        for status in shard.group.status():
            assert status["lag"] == 0
            assert not status["crashed"]
    assert metric_sum(cluster, "uc_replica_log_entries_total") > 0
    assert metric_sum(cluster, "uc_replica_applied_entries_total") > 0


def test_follower_preference_offloads_reads():
    cluster, mid, _, _ = build_cluster(replicas=2,
                                       read_preference="follower")
    make_catalog(cluster, mid, "sales")
    leader_view = cluster.shards[0].group.leader().service.dispatch(
        "get_securable", metastore_id=mid, principal=ADMIN,
        kind=SecurableKind.TABLE, name="sales.s.t",
    )
    got = cluster.dispatch("get_securable", metastore_id=mid,
                           principal=ADMIN, kind=SecurableKind.TABLE,
                           name="sales.s.t")
    assert got.id == leader_view.id
    assert metric_sum(cluster, "uc_replica_reads_total",
                      role="follower") >= 1


def test_nearest_fresh_preference_and_per_call_override():
    cluster, mid, _, _ = build_cluster(replicas=3)
    make_catalog(cluster, mid, "ops")
    got = cluster.dispatch("get_securable", metastore_id=mid,
                           principal=ADMIN, kind=SecurableKind.TABLE,
                           name="ops.s.t", _read_preference="nearest_fresh")
    assert got.name == "t"
    with pytest.raises(InvalidRequestError):
        cluster.dispatch("get_securable", metastore_id=mid,
                         principal=ADMIN, kind=SecurableKind.TABLE,
                         name="ops.s.t", _read_preference="quantum")
    with pytest.raises(InvalidRequestError):
        CatalogCluster(1, read_preference="bogus")


# -- read-your-writes --------------------------------------------------------


def test_read_your_writes_proxies_past_lagging_follower():
    """A partitioned follower (its pulls fail) cannot serve a session
    that has written past it: the read proxies to the leader with zero
    user-visible errors, and the follower catches up once restored."""
    cluster, mid, _, faults = build_cluster(
        replicas=2, with_faults=True, read_preference="follower"
    )
    make_catalog(cluster, mid, "sales")
    group = cluster.shards[0].group
    faults.crash("replica.shard-0.r1.pull")

    session = cluster.read_session()
    cluster.dispatch("create_securable", metastore_id=mid, principal=ADMIN,
                     kind=SecurableKind.TABLE, name="sales.s.fresh",
                     spec=TABLE_SPEC, _session=session)
    status = {s["replica"]: s for s in group.status()}
    assert status["r1"]["lag"] > 0, "the partitioned follower must lag"

    # the session's follower read never observes a version older than
    # its last write — here, by proxying to the leader
    got = cluster.dispatch("get_securable", metastore_id=mid,
                           principal=ADMIN, kind=SecurableKind.TABLE,
                           name="sales.s.fresh", _session=session)
    assert got.name == "fresh"

    faults.restore("replica.shard-0.r1.pull")
    # the failed pulls opened r1's breaker; once its reset window
    # elapses, the next session read catches the follower up and is
    # served locally
    cluster.clock.advance(31.0)
    got = cluster.dispatch("get_securable", metastore_id=mid,
                           principal=ADMIN, kind=SecurableKind.TABLE,
                           name="sales.s.fresh", _session=session)
    assert got.name == "fresh"
    status = {s["replica"]: s for s in group.status()}
    assert status["r1"]["lag"] == 0, "restored follower must catch up"
    assert_converged(cluster)


# -- failover ----------------------------------------------------------------


def run_failover_trace(crash):
    """Drive one fixed write/read/clock trace; optionally kill the
    leader mid-trace. Returns (cluster, accepted write names, rejected
    write names)."""
    cluster, mid, clock, _ = build_cluster(replicas=3, lease=1.0)
    make_catalog(cluster, mid, "t0")
    group = cluster.shards[0].group
    accepted, rejected = ["t0"], []
    for i in range(1, 8):
        if crash and i == 3:
            group.crash_leader()
        if i == 5:
            clock.advance(2.0)  # past any jittered lease expiry
        name = f"c{i}"
        if crash or name not in run_failover_trace.skip:
            try:
                make_catalog(cluster, mid, name)
                accepted.append(name)
            except LeaseExpiredError:
                rejected.append(name)
        # reads are served through the whole trace, failure or not
        got = cluster.dispatch("get_securable", metastore_id=mid,
                               principal=ADMIN, kind=SecurableKind.TABLE,
                               name="t0.s.t")
        assert got.name == "t"
        clock.advance(0.05)
    return cluster, mid, accepted, rejected


run_failover_trace.skip = set()


def test_kill_the_leader_zero_read_errors_and_twin_equivalence():
    cluster, mid, accepted, rejected = run_failover_trace(crash=True)
    group = cluster.shards[0].group

    # the write-unavailability window is the lease window: writes in it
    # were rejected fast, writes after the clock jump were accepted
    assert rejected == ["c3", "c4"]
    assert accepted == ["t0", "c1", "c2", "c5", "c6", "c7"]
    assert group.epoch == 2
    assert metric_sum(cluster, "uc_replica_failovers_total") == 1
    leader = group.leader()
    assert leader.name != "r0"
    assert {s["replica"]: s["role"] for s in group.status()}[leader.name] \
        == "leader"

    # a no-failure twin fed only the accepted writes, with identical
    # clock advances, ends byte-identical: nothing lost, nothing doubled
    run_failover_trace.skip = set(rejected)
    try:
        twin, twin_mid, twin_accepted, twin_rejected = \
            run_failover_trace(crash=False)
    finally:
        run_failover_trace.skip = set()
    assert twin_rejected == []
    assert twin_accepted == accepted
    assert normalized_dump(group.leader()) == \
        normalized_dump(twin.shards[0].group.leader())


def test_deposed_leader_is_fenced():
    cluster, mid, clock, _ = build_cluster(replicas=2, lease=1.0)
    make_catalog(cluster, mid, "sales")
    group = cluster.shards[0].group
    old = group.leader()
    group.crash_leader()
    clock.advance(2.0)
    make_catalog(cluster, mid, "post")  # promotes r1 under epoch 2
    assert group.epoch == 2

    # the deposed leader's in-flight mutation carries a stale fencing
    # token: the store-level check rejects it before anything commits
    with pytest.raises(FencingTokenError) as exc_info:
        old.service.dispatch("create_securable", metastore_id=mid,
                             principal=ADMIN, kind=SecurableKind.CATALOG,
                             name="zombie")
    assert exc_info.value.code == "FENCED_LEADER"
    assert metric_sum(cluster, "uc_replica_fenced_writes_total") >= 1

    # the zombie write forked no history: restore the old leader and
    # every replica agrees — and nobody has a "zombie" catalog
    group.restore("r0")
    assert_converged(cluster)
    names = [value["name"] for _, value in
             group.leader().store.inner.snapshot(mid).scan(Tables.ENTITIES)
             if value.get("kind") == "CATALOG"]
    assert "zombie" not in names
    # the restored replica serves reads again as a follower
    got = cluster.dispatch("get_securable", metastore_id=mid,
                           principal=ADMIN, kind=SecurableKind.TABLE,
                           name="post.s.t", _read_preference="follower")
    assert got.name == "t"


def test_fault_injector_crash_rule_drives_failover():
    """``crash("replica.<shard>.<name>.serve")`` is the chaos-rule way
    to down a replica; the group must fail over exactly as with the
    direct test hook."""
    cluster, mid, clock, faults = build_cluster(
        replicas=2, with_faults=True, lease=1.0
    )
    make_catalog(cluster, mid, "sales")
    group = cluster.shards[0].group
    faults.crash("replica.shard-0.r0.serve")

    # inside the lease window: reads served by the follower, writes
    # rejected fast with the lease error
    got = cluster.dispatch("get_securable", metastore_id=mid,
                           principal=ADMIN, kind=SecurableKind.TABLE,
                           name="sales.s.t")
    assert got.name == "t"
    with pytest.raises(LeaseExpiredError):
        cluster.dispatch("create_securable", metastore_id=mid,
                         principal=ADMIN, kind=SecurableKind.CATALOG,
                         name="during")
    clock.advance(2.0)
    make_catalog(cluster, mid, "after")
    assert group.epoch == 2
    assert group.leader().name == "r1"

    faults.restore("replica.shard-0.r0.serve")
    make_catalog(cluster, mid, "healed")  # replicate() pulls r0 back up
    assert_converged(cluster)


def test_lease_expiry_storm_rejects_writes_keeps_reads():
    cluster, mid, clock, faults = build_cluster(
        replicas=2, with_faults=True, lease=1.0
    )
    make_catalog(cluster, mid, "ops")
    clock.advance(5.0)  # the leader's lease is long expired
    faults.inject("replica.shard-0.r0.lease.renew", 1.0, kind="throttle")

    # the live leader cannot renew: writes fail with the lease error...
    with pytest.raises(LeaseExpiredError):
        cluster.dispatch("create_securable", metastore_id=mid,
                         principal=ADMIN, kind=SecurableKind.CATALOG,
                         name="stormy")
    # ...while reads keep flowing (follower leases renew via pulls)
    got = cluster.dispatch("get_securable", metastore_id=mid,
                           principal=ADMIN, kind=SecurableKind.TABLE,
                           name="ops.s.t")
    assert got.name == "t"

    faults.clear()
    renewals_before = metric_sum(cluster, "uc_replica_lease_renewals_total")
    make_catalog(cluster, mid, "calm")
    assert metric_sum(cluster, "uc_replica_lease_renewals_total") \
        > renewals_before
    assert_converged(cluster)


# -- catch-up ----------------------------------------------------------------


def test_restored_replica_resyncs_past_truncated_log():
    """When the bounded log no longer reaches back to a restored
    replica's cursor, it rebuilds from the leader via ``changes_since``
    and still converges byte-for-byte."""
    cluster, mid, _, _ = build_cluster(replicas=2, log_capacity=4)
    make_catalog(cluster, mid, "base")
    group = cluster.shards[0].group
    group.crash("r1")
    for i in range(8):  # far past the 4-entry log while r1 is down
        cluster.dispatch("create_securable", metastore_id=mid,
                         principal=ADMIN, kind=SecurableKind.TABLE,
                         name=f"base.s.t{i}", spec=TABLE_SPEC)
    follower = group.replica_named("r1")
    assert group.log.entries_since(follower.applied) is None, \
        "the log must have truncated past the dead replica's cursor"
    group.restore("r1")
    assert follower.applied == group.log.length()
    assert_converged(cluster)


def test_all_replicas_dark_degrades_to_stale_cache():
    cluster, mid, _, _ = build_cluster(replicas=2)
    make_catalog(cluster, mid, "sales")
    group = cluster.shards[0].group
    warm = cluster.dispatch("get_securable", metastore_id=mid,
                            principal=ADMIN, kind=SecurableKind.TABLE,
                            name="sales.s.t")
    group.crash("r0")
    group.crash("r1")
    stale = cluster.dispatch("get_securable", metastore_id=mid,
                             principal=ADMIN, kind=SecurableKind.TABLE,
                             name="sales.s.t")
    assert stale.id == warm.id
    assert metric_sum(cluster, "uc_shard_stale_reads_total") >= 1
    # a never-cached read surfaces the outage instead
    with pytest.raises(StorageUnavailableError):
        cluster.dispatch("get_securable", metastore_id=mid,
                         principal=ADMIN, kind=SecurableKind.SCHEMA,
                         name="sales.s")


def test_cross_shard_operations_after_failover():
    cluster, mid, clock, _ = build_cluster(shards=2, replicas=2, lease=1.0)
    make_catalog(cluster, mid, "ledger")
    owner = cluster.router.owner_for(mid, "ledger")
    group = cluster.shard_named(owner).group
    group.crash_leader()
    clock.advance(2.0)
    cluster.dispatch("create_securable", metastore_id=mid, principal=ADMIN,
                     kind=SecurableKind.CATALOG, name="promoter-probe")
    assert group.maybe_failover() or group.epoch == 2

    # a 2PC rename whose legs land on the promoted leader
    moved = cluster.dispatch("rename_securable", metastore_id=mid,
                             principal=ADMIN, kind=SecurableKind.CATALOG,
                             name="ledger", new_name="journal")
    assert moved.name == "journal"
    assert cluster.coordinator.held_keys() == {}
    # a broadcast (metastore creation) lands on every shard's leader
    second = cluster.create_metastore("second", owner=ADMIN)
    assert second.name == "second"
    group.restore("r0")  # the deposed leader rejoins and catches up
    assert_converged(cluster)


# -- building blocks ---------------------------------------------------------


def test_replicated_change_log_bounds_and_gaps():
    log = ReplicatedChangeLog(capacity=3)
    for version in range(1, 6):
        log.append("commit", "m", version, ())
    assert log.length() == 5
    assert log.first_index == 2
    assert [e.index for e in log.entries_since(3)] == [3, 4]
    assert log.entries_since(5) == []
    assert log.entries_since(1) is None, "truncated cursor must resync"
    with pytest.raises(InvalidRequestError):
        ReplicatedChangeLog(capacity=0)


def test_crash_rule_prefix_matching():
    clock = SimClock()
    injector = FaultInjector(clock, seed=1)
    injector.crash("replica.shard-0.r0.*")
    assert injector.crashed("replica.shard-0.r0.serve")
    assert injector.crashed("replica.shard-0.r0.lease.renew")
    assert not injector.crashed("replica.shard-0.r1.serve")
    with pytest.raises(StorageUnavailableError):
        injector.raise_for("replica.shard-0.r0.pull")
    injector.restore("replica.shard-0.r0.*")
    assert not injector.crashed("replica.shard-0.r0.serve")


def test_single_replica_groups_stay_on_the_legacy_path():
    """``replicas_per_shard=1`` must not change behavior: no leases, no
    fencing, no replica metrics — the seed's dispatch path, byte for
    byte (the scale-out bench's determinism check pins this too)."""
    cluster, mid, _, _ = build_cluster(replicas=1)
    make_catalog(cluster, mid, "solo")
    group = cluster.shards[0].group
    assert not group.replicated
    got = cluster.dispatch("get_securable", metastore_id=mid,
                           principal=ADMIN, kind=SecurableKind.TABLE,
                           name="solo.s.t")
    assert got.name == "t"
    assert metric_sum(cluster, "uc_replica_reads_total") == 0
    assert metric_sum(cluster, "uc_replica_log_entries_total") == 0
