"""Cross-shard two-phase commit: conflicts, replication, dark shards.

The interesting interleavings of two conflicting cross-shard catalog
moves are enumerated explicitly (both phases of each move, in every
order that keeps prepare before commit): exactly one move wins, the
loser aborts with a clean transaction record, and no shard is left with
an orphaned subtree row. Replicated (broadcast) writes and breaker
degradation under a dark shard are covered in the same file because all
three behaviours share the coordinator.
"""

from __future__ import annotations

import pytest

from repro.clock import SimClock
from repro.core.auth.privileges import Privilege
from repro.core.cluster import CatalogCluster
from repro.core.events import ChangeType
from repro.core.model.entity import SecurableKind
from repro.core.persistence.store import Tables
from repro.errors import (
    AlreadyExistsError,
    ConcurrentModificationError,
    InvalidRequestError,
    NotFoundError,
    PartialBroadcastError,
    TransientError,
    UnityCatalogError,
)
from repro.faults import FaultInjector
from repro.obs import Observability

ADMIN = "admin"
READER = "reader"
TABLE_SPEC = {
    "table_type": "MANAGED",
    "format": "DELTA",
    "columns": [{"name": "id", "type": "BIGINT"}],
}

#: every order of {A,B} x {prepare,commit} with prepare before commit
SCHEDULES = [
    ("A.prepare", "B.prepare", "A.commit", "B.commit"),
    ("A.prepare", "B.prepare", "B.commit", "A.commit"),
    ("A.prepare", "A.commit", "B.prepare", "B.commit"),
    ("B.prepare", "A.prepare", "A.commit", "B.commit"),
    ("B.prepare", "A.prepare", "B.commit", "A.commit"),
    ("B.prepare", "B.commit", "A.prepare", "A.commit"),
]


def build_cluster(shards=3, with_faults=False, breaker_reset_timeout=5.0):
    clock = SimClock()
    obs = Observability(clock=clock)
    faults = FaultInjector(clock, seed=3, metrics=obs.metrics) \
        if with_faults else None
    cluster = CatalogCluster(shards, clock=clock, obs=obs, faults=faults,
                             breaker_reset_timeout=breaker_reset_timeout)
    directory = cluster.directory
    directory.add_user(ADMIN)
    directory.add_user(READER)
    directory.add_group("analysts")
    directory.add_member("analysts", READER)
    mid = cluster.create_metastore("twophase", owner=ADMIN).id
    return cluster, mid, faults


def make_catalog(cluster, mid, name):
    """A catalog with a schema, a table and reader grants riding along."""
    cluster.dispatch("create_securable", metastore_id=mid, principal=ADMIN,
                     kind=SecurableKind.CATALOG, name=name)
    cluster.dispatch("create_securable", metastore_id=mid, principal=ADMIN,
                     kind=SecurableKind.SCHEMA, name=f"{name}.s")
    cluster.dispatch("create_securable", metastore_id=mid, principal=ADMIN,
                     kind=SecurableKind.TABLE, name=f"{name}.s.t",
                     spec=TABLE_SPEC)
    for kind, target, privilege in [
        (SecurableKind.CATALOG, name, Privilege.USE_CATALOG),
        (SecurableKind.SCHEMA, f"{name}.s", Privilege.USE_SCHEMA),
        (SecurableKind.TABLE, f"{name}.s.t", Privilege.SELECT),
    ]:
        cluster.dispatch("grant", metastore_id=mid, principal=ADMIN,
                         kind=kind, name=target, grantee="analysts",
                         privilege=privilege)


def active_catalog_rows(cluster, mid, name):
    """How many shards hold an ACTIVE row for catalog ``name``."""
    count = 0
    for shard in cluster.shards:
        snapshot = shard.service.store.snapshot(mid)
        count += sum(
            1 for _, value in snapshot.scan(Tables.ENTITIES)
            if value["kind"] == "CATALOG" and value["name"] == name
            and value["state"] == "ACTIVE"
        )
    return count


def run_schedule(cluster, mid, schedule, moves):
    """Drive both moves through one interleaving; report per-move fate."""
    errors = {"A": None, "B": None}
    for step in schedule:
        label, phase = step.split(".")
        if errors[label] is not None:
            continue  # a failed move has no further phase to run
        try:
            getattr(moves[label], phase)()
        except UnityCatalogError as exc:
            errors[label] = exc
    return errors


@pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: ">".join(s))
def test_conflicting_moves_same_source_one_winner(schedule):
    cluster, mid, _ = build_cluster()
    make_catalog(cluster, mid, "sales")
    moves = {
        "A": cluster.begin_catalog_move(mid, ADMIN, "sales", "archive"),
        "B": cluster.begin_catalog_move(mid, ADMIN, "sales", "backup"),
    }
    errors = run_schedule(cluster, mid, schedule, moves)

    losers = [label for label, exc in errors.items() if exc is not None]
    assert len(losers) == 1, f"expected one loser, got {errors}"
    loser = losers[0]
    winner = "B" if loser == "A" else "A"
    assert isinstance(
        errors[loser], (ConcurrentModificationError, NotFoundError)
    )

    # the winner's name exists on exactly one shard, loser's on none
    new_name = {"A": "archive", "B": "backup"}
    assert active_catalog_rows(cluster, mid, new_name[winner]) == 1
    assert active_catalog_rows(cluster, mid, new_name[loser]) == 0
    assert active_catalog_rows(cluster, mid, "sales") == 0

    # the subtree survived the move intact, grants included
    resolution = cluster.dispatch(
        "resolve_for_query", metastore_id=mid, principal=READER,
        table_names=[f"{new_name[winner]}.s.t"], include_credentials=False)
    assert f"{new_name[winner]}.s.t" in resolution.assets

    committed = [r for r in cluster.coordinator.log
                 if r.kind == "catalog_move" and r.state == "committed"]
    assert len(committed) == 1
    aborted = cluster.coordinator.aborted()
    assert len(aborted) == 1
    assert aborted[0].reason  # names the conflicting key or the cause


@pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: ">".join(s))
def test_conflicting_moves_same_target_one_winner(schedule):
    cluster, mid, _ = build_cluster()
    make_catalog(cluster, mid, "sales")
    make_catalog(cluster, mid, "ops")
    moves = {
        "A": cluster.begin_catalog_move(mid, ADMIN, "sales", "shared"),
        "B": cluster.begin_catalog_move(mid, ADMIN, "ops", "shared"),
    }
    errors = run_schedule(cluster, mid, schedule, moves)

    losers = [label for label, exc in errors.items() if exc is not None]
    assert len(losers) == 1, f"expected one loser, got {errors}"
    loser = losers[0]
    winner = "B" if loser == "A" else "A"
    assert isinstance(
        errors[loser], (ConcurrentModificationError, AlreadyExistsError)
    )

    # exactly one "shared" catalog; the loser keeps its original name
    assert active_catalog_rows(cluster, mid, "shared") == 1
    old_name = {"A": "sales", "B": "ops"}
    assert active_catalog_rows(cluster, mid, old_name[winner]) == 0
    assert active_catalog_rows(cluster, mid, old_name[loser]) == 1

    # the losing catalog is still fully usable under its old name
    resolution = cluster.dispatch(
        "resolve_for_query", metastore_id=mid, principal=READER,
        table_names=[f"{old_name[loser]}.s.t"], include_credentials=False)
    assert f"{old_name[loser]}.s.t" in resolution.assets
    assert len(cluster.coordinator.aborted()) == 1


def test_abort_record_names_conflicting_key_and_holder():
    cluster, mid, _ = build_cluster()
    make_catalog(cluster, mid, "sales")
    winner = cluster.begin_catalog_move(mid, ADMIN, "sales", "archive")
    winner.prepare()
    loser = cluster.begin_catalog_move(mid, ADMIN, "sales", "backup")
    with pytest.raises(ConcurrentModificationError):
        loser.prepare()
    record = cluster.coordinator.aborted()[0]
    assert winner.txn.txn_id in record.reason
    assert any("sales" in key for key in record.keys)
    winner.commit()
    # the winner's locks were released: a fresh move can run end to end
    cluster.begin_catalog_move(mid, ADMIN, "archive", "sales").execute()
    assert active_catalog_rows(cluster, mid, "sales") == 1


def test_broadcast_write_replicates_to_every_shard():
    cluster, mid, _ = build_cluster()
    cluster.dispatch("create_securable", metastore_id=mid, principal=ADMIN,
                     kind=SecurableKind.STORAGE_CREDENTIAL, name="cred",
                     spec={"root_secret": cluster.sts.root_secret})
    rows = []
    for shard in cluster.shards:
        snapshot = shard.service.store.snapshot(mid)
        rows.append([
            (key, value["name"]) for key, value in snapshot.scan(Tables.ENTITIES)
            if value["kind"] == "STORAGE_CREDENTIAL"
        ])
    # pre-minted ids: every shard holds the byte-identical row
    assert rows[0] and all(r == rows[0] for r in rows[1:])
    committed = [r for r in cluster.coordinator.log
                 if r.kind == "broadcast" and r.state == "committed"]
    assert committed


def test_broadcast_validation_failure_aborts_cleanly():
    cluster, mid, _ = build_cluster()
    cluster.dispatch("create_securable", metastore_id=mid, principal=ADMIN,
                     kind=SecurableKind.STORAGE_CREDENTIAL, name="cred",
                     spec={"root_secret": cluster.sts.root_secret})
    with pytest.raises(AlreadyExistsError):
        cluster.dispatch("create_securable", metastore_id=mid,
                         principal=ADMIN,
                         kind=SecurableKind.STORAGE_CREDENTIAL, name="cred",
                         spec={"root_secret": cluster.sts.root_secret})
    aborted = [r for r in cluster.coordinator.aborted()
               if r.kind == "broadcast"]
    assert len(aborted) == 1
    assert "AlreadyExistsError" in aborted[0].reason
    # no shard holds a second credential row
    for shard in cluster.shards:
        snapshot = shard.service.store.snapshot(mid)
        count = sum(
            1 for _, value in snapshot.scan(Tables.ENTITIES)
            if value["kind"] == "STORAGE_CREDENTIAL"
        )
        assert count == 1


def test_broadcast_replica_failure_aborts_with_partial_state():
    """A replica dying mid-broadcast must not wedge the key lock."""
    cluster, mid, _ = build_cluster()
    victim = cluster.shards[1]
    original = victim.service.dispatch

    def failing(api, **params):
        if api == "create_securable":
            raise TransientError("replica down")
        return original(api, **params)

    victim.service.dispatch = failing
    with pytest.raises(PartialBroadcastError) as exc_info:
        cluster.dispatch("create_securable", metastore_id=mid,
                         principal=ADMIN,
                         kind=SecurableKind.STORAGE_CREDENTIAL, name="cred",
                         spec={"root_secret": cluster.sts.root_secret})
    assert victim.name in str(exc_info.value)

    # the partial state is on the transaction record, not silent
    record = [r for r in cluster.coordinator.aborted()
              if r.kind == "broadcast"][-1]
    assert "partial commit" in record.reason
    assert record.details["failed"] == victim.name
    assert record.details["applied"] == (cluster.home.name,)

    # divergence is real (home committed, the victim did not) ...
    def credential_rows(shard):
        snapshot = shard.service.store.snapshot(mid)
        return sum(1 for _, v in snapshot.scan(Tables.ENTITIES)
                   if v["kind"] == "STORAGE_CREDENTIAL")

    assert credential_rows(cluster.home) == 1
    assert credential_rows(victim) == 0

    # ... but the key lock was released: a later broadcast of the same
    # key gets the canonical validation error, not a lock conflict
    victim.service.dispatch = original
    with pytest.raises(AlreadyExistsError):
        cluster.dispatch("create_securable", metastore_id=mid,
                         principal=ADMIN,
                         kind=SecurableKind.STORAGE_CREDENTIAL, name="cred",
                         spec={"root_secret": cluster.sts.root_secret})
    # and an unrelated broadcast replicates everywhere, end to end
    cluster.dispatch("create_securable", metastore_id=mid, principal=ADMIN,
                     kind=SecurableKind.STORAGE_CREDENTIAL, name="cred2",
                     spec={"root_secret": cluster.sts.root_secret})
    for shard in cluster.shards:
        snapshot = shard.service.store.snapshot(mid)
        assert any(v["name"] == "cred2"
                   for _, v in snapshot.scan(Tables.ENTITIES)
                   if v["kind"] == "STORAGE_CREDENTIAL")


def test_move_subtree_delete_failure_rolls_back_import():
    """A fault between the import and delete legs of a cross-shard move
    must compensate: the catalog stays under its old name on the source,
    and the target holds no orphaned copy of the subtree."""
    cluster, mid, _ = build_cluster()
    make_catalog(cluster, mid, "sales")
    source_name = cluster.router.owner_for(mid, "sales")
    new_name = next(
        name for name in ("archive", "backup", "vault", "annex", "ledger")
        if cluster.router.owner_for(mid, name) != source_name
    )
    source = cluster.shard_named(source_name)
    target = cluster.shard_named(cluster.router.owner_for(mid, new_name))
    original = source.service._mutate

    def failing(*args, **kwargs):
        # during commit() the only source-side _mutate is the delete leg
        raise TransientError("source store down")

    source.service._mutate = failing
    with pytest.raises(TransientError):
        cluster.begin_catalog_move(mid, ADMIN, "sales", new_name).execute()
    source.service._mutate = original

    # clean abort: old name intact, new name resolvable nowhere
    assert active_catalog_rows(cluster, mid, "sales") == 1
    assert active_catalog_rows(cluster, mid, new_name) == 0
    snapshot = target.service.store.snapshot(mid)
    orphans = [v for _, v in snapshot.scan(Tables.ENTITIES)
               if v["kind"] in ("CATALOG", "SCHEMA", "TABLE")]
    assert orphans == []
    record = [r for r in cluster.coordinator.aborted()
              if r.kind == "catalog_move"][-1]
    assert "TransientError" in record.reason

    # the catalog is fully usable under the old name, and the locks were
    # released: the same move now runs end to end
    resolution = cluster.dispatch(
        "resolve_for_query", metastore_id=mid, principal=READER,
        table_names=["sales.s.t"], include_credentials=False)
    assert "sales.s.t" in resolution.assets
    cluster.begin_catalog_move(mid, ADMIN, "sales", new_name).execute()
    assert active_catalog_rows(cluster, mid, new_name) == 1
    assert active_catalog_rows(cluster, mid, "sales") == 0


def test_metastore_creation_event_reaches_cluster_bus():
    """The cluster keeps no copy of its shards' events: the metastore's
    creation is read from the home shard's own bus."""
    cluster, mid, _ = build_cluster()
    events = cluster.home.service.events.peek(mid)
    assert any(e.change is ChangeType.CREATED
               and e.securable_kind == SecurableKind.METASTORE.value
               and e.securable_id == mid
               for e in events)


def test_stale_read_cache_is_lru_bounded():
    clock = SimClock()
    cluster = CatalogCluster(2, clock=clock, stale_cache_size=3)
    cluster.directory.add_user(ADMIN)
    mid = cluster.create_metastore("lru", owner=ADMIN).id
    cluster.dispatch("create_securable", metastore_id=mid, principal=ADMIN,
                     kind=SecurableKind.CATALOG, name="c")
    for index in range(6):
        cluster.dispatch("create_securable", metastore_id=mid,
                         principal=ADMIN, kind=SecurableKind.SCHEMA,
                         name=f"c.s{index}")
    # writes drop the written shard's entries, so read afterwards
    for index in range(6):
        cluster.dispatch("get_securable", metastore_id=mid, principal=ADMIN,
                         kind=SecurableKind.SCHEMA, name=f"c.s{index}")
    assert len(cluster._stale) == 3
    # the survivors are the most recently used entries
    cached_names = {key[2] for key in cluster._stale}
    assert any("c.s5" in repr(entry) for entry in cached_names)


def test_merged_resolution_carries_per_catalog_versions():
    cluster, mid, _ = build_cluster()
    make_catalog(cluster, mid, "sales")
    make_catalog(cluster, mid, "ops")
    resolution = cluster.dispatch(
        "resolve_for_query", metastore_id=mid, principal=READER,
        table_names=["sales.s.t", "ops.s.t"], include_credentials=False)
    assert set(resolution.catalog_versions) == {"sales", "ops"}
    for catalog in ("sales", "ops"):
        shard = cluster.shard_named(cluster.router.owner_for(mid, catalog))
        assert (resolution.catalog_versions[catalog]
                == shard.service.view(mid).version)
    # the scalar version is only an upper bound; pinning goes per catalog
    assert resolution.metastore_version == max(
        resolution.catalog_versions.values()
    )
    assert (resolution.pinnable_version("sales.s.t")
            == resolution.catalog_versions["sales"])
    assert (resolution.pinnable_version("ops.s.t")
            == resolution.catalog_versions["ops"])


def _stale_reads_total(cluster) -> float:
    return sum(
        value for key, value in cluster.obs.metrics.snapshot().items()
        if key.startswith("uc_shard_stale_reads_total")
    )


def test_dark_shard_degrades_stale_ok_reads_instead_of_erroring():
    cluster, mid, faults = build_cluster(with_faults=True)
    make_catalog(cluster, mid, "sales")
    make_catalog(cluster, mid, "ops")
    owner = cluster.router.owner_for(mid, "sales")
    other = cluster.router.owner_for(mid, "ops")

    # warm the last-known-good cache while the shard is healthy
    healthy = cluster.dispatch("get_securable", metastore_id=mid,
                               principal=READER, kind=SecurableKind.TABLE,
                               name="sales.s.t")

    faults.inject(f"shard.{owner}.dispatch", 1.0, kind="unavailable")

    # the warmed read degrades to the stale answer, and says so in metrics
    stale = cluster.dispatch("get_securable", metastore_id=mid,
                             principal=READER, kind=SecurableKind.TABLE,
                             name="sales.s.t")
    assert stale.id == healthy.id
    assert _stale_reads_total(cluster) >= 1

    # a read with no last-known-good answer still surfaces the outage
    with pytest.raises(TransientError):
        cluster.dispatch("get_securable", metastore_id=mid,
                         principal=READER, kind=SecurableKind.SCHEMA,
                         name="sales.s")

    # writes are never served stale: they fail fast
    with pytest.raises(TransientError):
        cluster.dispatch("create_securable", metastore_id=mid,
                         principal=ADMIN, kind=SecurableKind.TABLE,
                         name="sales.s.t2", spec=TABLE_SPEC)
    assert cluster.shard_named(owner).breaker.state == "open"

    # unrelated shards keep serving fresh reads
    if other != owner:
        fresh = cluster.dispatch("get_securable", metastore_id=mid,
                                 principal=READER, kind=SecurableKind.TABLE,
                                 name="ops.s.t")
        assert fresh.name == "t"

    # recovery: faults stop, the breaker's reset window elapses, and the
    # next read is fresh again
    faults.clear()
    cluster.clock.advance(6.0)
    recovered = cluster.dispatch("get_securable", metastore_id=mid,
                                 principal=READER, kind=SecurableKind.SCHEMA,
                                 name="sales.s")
    assert recovered.name == "s"


# -- real-thread races -------------------------------------------------------
#
# The schedules above enumerate interleavings by hand; these let the OS
# scheduler pick one. They need no serving tier: the coordinator's
# key-lock table is the contended object, and two bare threads racing
# `execute()` hit its check-and-acquire critical section directly.


def test_threaded_conflicting_moves_exactly_one_winner_each_round():
    import threading

    cluster, mid, _ = build_cluster()
    for i in range(5):
        source = f"race{i}"
        make_catalog(cluster, mid, source)
        moves = {
            "A": cluster.begin_catalog_move(mid, ADMIN, source, f"left{i}"),
            "B": cluster.begin_catalog_move(mid, ADMIN, source, f"right{i}"),
        }
        barrier = threading.Barrier(2)
        errors = {}

        def run(label):
            barrier.wait()
            try:
                moves[label].execute()
                errors[label] = None
            except UnityCatalogError as exc:
                errors[label] = exc

        threads = [
            threading.Thread(target=run, args=(label,))
            for label in ("A", "B")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        losers = [label for label, exc in errors.items() if exc is not None]
        assert len(losers) == 1, f"round {i}: {errors}"
        assert isinstance(
            errors[losers[0]], (ConcurrentModificationError, NotFoundError)
        )
        winner_name = f"left{i}" if losers[0] == "B" else f"right{i}"
        assert cluster.coordinator.held_keys() == {}
        assert active_catalog_rows(cluster, mid, winner_name) == 1
        assert active_catalog_rows(cluster, mid, source) == 0


# -- bounded transaction log -------------------------------------------
# The coordinator's log is append-only in spirit but compacted in
# memory: finished records past the retention bound are dropped, while
# PREPARED records (live key locks) and abort records whose conflict
# attribution names a still-live transaction always survive.


def build_coordinator(retention):
    from repro.core.cluster.twophase import TwoPhaseCoordinator

    clock = SimClock()
    obs = Observability(clock=clock)
    coord = TwoPhaseCoordinator(clock, metrics=obs.metrics,
                                log_retention=retention)
    return coord, obs


def test_txn_log_compacts_finished_records_past_retention():
    coord, obs = build_coordinator(retention=5)
    for i in range(20):
        record = coord.begin("broadcast", "t", (f"k{i}",), ("shard-0",))
        coord.commit(record)
    assert len(coord.log) == 5
    # the newest finished records survive, oldest were dropped
    assert [r.txn_id for r in coord.log] == \
        [f"txn-{i:06d}" for i in range(16, 21)]
    assert coord.compacted_records == 15
    snap = obs.metrics.snapshot()
    assert sum(v for k, v in snap.items()
               if k.startswith("uc_2pc_log_compactions_total")) >= 1


def test_txn_log_below_retention_never_compacts():
    coord, obs = build_coordinator(retention=50)
    for i in range(20):
        record = coord.begin("broadcast", "t", (f"k{i}",), ("shard-0",))
        coord.commit(record)
    assert len(coord.log) == 20
    assert coord.compacted_records == 0
    snap = obs.metrics.snapshot()
    assert sum(v for k, v in snap.items()
               if k.startswith("uc_2pc_log_compactions_total")) == 0


def test_txn_log_compaction_keeps_prepared_and_live_attribution():
    from repro.core.cluster.twophase import ABORTED, PREPARED

    coord, _ = build_coordinator(retention=1)
    winner = coord.begin("catalog_move", "move", ("hot",), ("shard-0",))
    with pytest.raises(ConcurrentModificationError):
        coord.begin("catalog_move", "move", ("hot",), ("shard-1",))
    # churn well past retention: the PREPARED winner and the loser's
    # abort record (which names the winner) must both survive
    for i in range(10):
        record = coord.begin("broadcast", "t", (f"k{i}",), ("shard-0",))
        coord.commit(record)
    states = {r.txn_id: r.state for r in coord.log}
    assert states[winner.txn_id] == PREPARED
    loser = [r for r in coord.log if r.state == ABORTED]
    assert len(loser) == 1
    assert winner.txn_id in loser[0].reason
    # once the winner finishes, its loser's breadcrumb becomes fair game
    coord.commit(winner)
    record = coord.begin("broadcast", "t", ("kx",), ("shard-0",))
    coord.commit(record)
    assert all(r.state != ABORTED for r in coord.log)
    assert len(coord.log) == 1


def test_txn_log_retention_must_be_positive():
    from repro.core.cluster.twophase import TwoPhaseCoordinator

    with pytest.raises(InvalidRequestError):
        TwoPhaseCoordinator(SimClock(), log_retention=0)
