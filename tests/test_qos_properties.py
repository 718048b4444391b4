"""Property-based fairness suite for the multi-tenant QoS scheduler.

Hand-rolled generator + greedy shrinking (same harness style as
``tests/test_cluster_properties.py``) over random tenant mixes, checking
the scheduler's core invariants:

* **work conservation** — a request is never shed while the scheduler is
  idle (no queued work, no excess-band backlog);
* **bounded queue depth** — no (lane, class) queue ever exceeds
  ``max_queue_depth``;
* **weight-proportional throughput** — during a fully backlogged period
  the DRR drain gives each class excess-band capacity proportional to
  its configured weight, within quantum tolerance;
* **QoS-off no-op equivalence** — a service built with
  ``QosConfig(enabled=False)`` behaves byte-identically to one built
  with no QoS at all (results, audits, clock, store traffic), on both
  the memory and sqlite backends.
"""

from __future__ import annotations

import json
import secrets
import uuid
from random import Random
from typing import Callable, Optional

import pytest

from repro.clock import SimClock
from repro.core.model.entity import SecurableKind
from repro.core.persistence.sqlite import SqliteMetadataStore
from repro.core.service.catalog_service import UnityCatalogService
from repro.core.service.qos import (
    BACKGROUND,
    BATCH,
    INTERACTIVE,
    PRIORITY_CLASSES,
    QosConfig,
    QosScheduler,
    work_snapshot,
)
from repro.errors import TenantThrottledError, UnityCatalogError

TENANTS = ("t-a", "t-b", "t-c", "t-d")


class _FakeUuid:
    def __init__(self, hex_value: str):
        self.hex = hex_value

    def __str__(self) -> str:
        return self.hex


@pytest.fixture
def deterministic_ids(monkeypatch):
    """Replace uuid4/token_hex with counters; returns a reset callable."""
    state = {"uuid": 0, "token": 0}

    def fake_uuid4():
        state["uuid"] += 1
        return _FakeUuid(f"{state['uuid']:032x}")

    def fake_token_hex(nbytes: int = 16) -> str:
        state["token"] += 1
        return f"{state['token']:0{2 * nbytes}x}"

    monkeypatch.setattr(uuid, "uuid4", fake_uuid4)
    monkeypatch.setattr(secrets, "token_hex", fake_token_hex)

    def reset():
        state["uuid"] = 0
        state["token"] = 0

    return reset


# ---------------------------------------------------------------------------
# scenario generation: a config plus a time-stamped request mix
# ---------------------------------------------------------------------------


def generate_scenario(seed: int, count: int) -> tuple[QosConfig, list[dict]]:
    rng = Random(seed)
    config = QosConfig(
        refill_rate=rng.choice((2.0, 10.0, 50.0)),
        burst=rng.choice((3.0, 10.0, 25.0)),
        capacity_rate=rng.choice((50.0, 200.0)),
        excess_rate=rng.choice((10.0, 40.0)),
        # >= 1 so an over-budget request with idle queues queues instead
        # of shedding (work conservation is only claimed for real queues)
        max_queue_depth=rng.choice((1, 4, 16)),
        max_queue_delay=rng.choice((0.5, 2.0, 10.0)),
    )
    ops: list[dict] = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.25:
            ops.append({"advance": rng.choice((0.01, 0.1, 0.5, 2.0))})
        else:
            ops.append({
                "tenant": rng.choice(TENANTS),
                "cls": rng.choice(PRIORITY_CLASSES),
                "cost": rng.choice((0.5, 1.0, 3.0, 8.0)),
                "mutation": rng.random() < 0.3,
            })
    return config, ops


def _is_idle(scheduler: QosScheduler) -> bool:
    return all(
        scheduler.backlog(lane) == 0.0
        and all(scheduler.queue_depth(lane, cls) == 0
                for cls in PRIORITY_CLASSES)
        for lane in scheduler.lane_names
    )


def run_scenario(config: QosConfig, ops: list[dict]) -> Optional[str]:
    """None when every invariant holds, else a failure description."""
    clock = SimClock()
    scheduler = QosScheduler(config, clock)
    for index, op in enumerate(ops):
        if "advance" in op:
            clock.advance(op["advance"])
            continue
        idle = _is_idle(scheduler)
        try:
            scheduler.acquire(
                op["tenant"], "op", mutation=op["mutation"],
                requested_class=op["cls"], cost=op["cost"],
            )
        except TenantThrottledError as exc:
            if idle:
                return (f"op {index} {op!r} shed ({exc.reason}) while the "
                        f"scheduler was idle — work not conserved")
        for lane in scheduler.lane_names:
            for cls in PRIORITY_CLASSES:
                depth = scheduler.queue_depth(lane, cls)
                if depth > config.max_queue_depth:
                    return (f"op {index}: queue depth {depth} > bound "
                            f"{config.max_queue_depth} on ({lane}, {cls})")
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


def assert_invariants(seed: int, count: int = 120) -> None:
    config, ops = generate_scenario(seed, count)
    failure = run_scenario(config, ops)
    if failure is None:
        return
    minimal = shrink(
        ops, lambda cand: run_scenario(config, cand) is not None
    )
    pytest.fail(
        f"seed {seed}: {failure}\nconfig: {config!r}\n"
        f"minimal repro ({len(minimal)} ops): "
        + "\n".join(repr(op) for op in minimal)
    )


@pytest.mark.parametrize("seed", [1, 7, 23, 42, 99])
def test_work_conservation_and_bounded_queues(seed):
    assert_invariants(seed)


def test_generator_is_deterministic():
    assert generate_scenario(42, 50) == generate_scenario(42, 50)


def test_shrinker_finds_minimal_core():
    ops = [{"op": x} for x in "abcde"]

    def fails(candidate):
        present = {op["op"] for op in candidate}
        return {"a", "c"} <= present

    assert shrink(ops, fails) == [{"op": "a"}, {"op": "c"}]


# ---------------------------------------------------------------------------
# weight-proportional throughput (two-phase submit/resolve drain)
# ---------------------------------------------------------------------------


def test_drr_throughput_proportional_to_weights():
    """Batch-enqueue an equal backlog per class, drain, and check each
    class's share of the backlogged period tracks its weight."""
    clock = SimClock()
    config = QosConfig(
        refill_rate=0.001, burst=0.5,   # everyone is over budget
        excess_rate=100.0, max_queue_depth=512, max_queue_delay=1e9,
        max_tenant_queue_share=1.0, quantum=4.0,
    )
    scheduler = QosScheduler(config, clock)
    cost = 2.0
    per_class = 150
    grants = []
    for cls in PRIORITY_CLASSES:
        for _ in range(per_class):
            grants.append(scheduler.submit(
                f"tenant-{cls}", "op", requested_class=cls, cost=cost,
            ))
    ready: dict[str, list[float]] = {cls: [] for cls in PRIORITY_CLASSES}
    for grant in grants:
        scheduler.resolve(grant)
        ready[grant.cls].append(grant.wait)

    # window where every class still has backlog: up to the earliest
    # class completion (the highest-weight class finishes first)
    horizon = min(max(waits) for waits in ready.values())
    weights = config.class_weights
    shares = {
        cls: sum(cost for wait in ready[cls] if wait <= horizon)
        / weights[cls]
        for cls in PRIORITY_CLASSES
    }
    reference = shares[INTERACTIVE]
    for cls in (BATCH, BACKGROUND):
        assert shares[cls] == pytest.approx(reference, rel=0.25), (
            f"class {cls} drained {shares[cls]:.1f} units/weight vs "
            f"{reference:.1f} for interactive — not weight-proportional"
        )
    # and within a class the drain is FIFO: waits are non-decreasing
    for cls in PRIORITY_CLASSES:
        assert ready[cls] == sorted(ready[cls])


def test_drr_starves_no_class():
    """Even weight-1 background work completes while heavier classes
    keep a standing backlog (DRR, unlike strict priority)."""
    clock = SimClock()
    config = QosConfig(
        refill_rate=0.001, burst=0.5, excess_rate=50.0,
        max_queue_depth=512, max_queue_delay=1e9,
        max_tenant_queue_share=1.0,
    )
    scheduler = QosScheduler(config, clock)
    grants = []
    for _ in range(100):
        grants.append(scheduler.submit("hog", "op",
                                       requested_class=INTERACTIVE, cost=2.0))
    background = scheduler.submit("meek", "op",
                                  requested_class=BACKGROUND, cost=2.0)
    for grant in grants:
        scheduler.resolve(grant)
    scheduler.resolve(background)
    # the background request drains well before the interactive backlog
    # is exhausted, at roughly its 1/9 weight share of the early rounds
    assert background.wait < max(g.wait for g in grants)


# ---------------------------------------------------------------------------
# QoS-off no-op equivalence (memory and sqlite backends)
# ---------------------------------------------------------------------------


def _build_service(backend: str, qos) -> UnityCatalogService:
    store = SqliteMetadataStore() if backend == "sqlite" else None
    service = UnityCatalogService(store=store, clock=SimClock(), qos=qos)
    service.directory.add_user("alice")
    service.directory.add_user("bob")
    return service


def _drive(service: UnityCatalogService, seed: int) -> list:
    """A seeded mixed workload; returns comparable outcome fingerprints."""
    rng = Random(seed)
    mid = service.create_metastore("m", owner="alice").id
    outcomes: list = []
    names = [f"cat{i}" for i in range(4)]
    for _ in range(60):
        roll = rng.random()
        name = rng.choice(names)
        principal = "alice" if rng.random() < 0.7 else "bob"
        try:
            if roll < 0.35:
                entity = service.create_securable(
                    mid, principal, SecurableKind.CATALOG, name
                )
                outcomes.append(("created", entity.id, entity.name))
            elif roll < 0.8:
                entity = service.get_securable(
                    mid, principal, SecurableKind.CATALOG, name
                )
                outcomes.append(("got", entity.id, entity.name))
            else:
                entity = service.delete_securable(
                    mid, principal, SecurableKind.CATALOG, name,
                    cascade=False,
                )
                outcomes.append(("dropped", name))
        except UnityCatalogError as exc:
            outcomes.append(("error", type(exc).__name__, exc.message))
    return outcomes


def _observable_state(service: UnityCatalogService) -> str:
    audit = [
        (record.principal, record.action, record.securable, record.allowed,
         record.details.get("error"))
        for record in service.audit
    ]
    return json.dumps(
        {
            "clock": service.clock.now(),
            "audit": audit,
            "reads": service.store.read_count,
            "scans": service.store.scan_row_count,
            "auth_evals": service.authorizer.evaluations,
        },
        sort_keys=True,
    )


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_qos_disabled_is_byte_identical_to_no_qos(backend,
                                                  deterministic_ids):
    """``QosConfig(enabled=False)`` must be a true no-op: the pipeline
    builds no admission stage, so results, audits, clock advancement and
    store traffic all match a service with no QoS wired at all."""
    deterministic_ids()
    without = _build_service(backend, qos=None)
    base_outcomes = _drive(without, seed=17)
    base_state = _observable_state(without)

    deterministic_ids()
    disabled = _build_service(backend, qos=QosConfig(enabled=False))
    off_outcomes = _drive(disabled, seed=17)
    off_state = _observable_state(disabled)

    assert disabled.qos is None  # normalized away at construction
    assert base_outcomes == off_outcomes
    assert base_state == off_state


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_qos_enabled_with_roomy_budgets_changes_no_outcome(backend,
                                                           deterministic_ids):
    """With budgets far above the workload every request is admitted
    uncontended, so outcomes and audits match the no-QoS run — QoS adds
    admission, never behavioral drift for in-budget traffic."""
    deterministic_ids()
    without = _build_service(backend, qos=None)
    base_outcomes = _drive(without, seed=23)

    deterministic_ids()
    generous = _build_service(backend, qos=QosConfig(
        refill_rate=1e9, burst=1e9, capacity_rate=1e12, excess_rate=1e12,
    ))
    on_outcomes = _drive(generous, seed=23)

    assert generous.qos is not None
    assert base_outcomes == on_outcomes
    snapshot = generous.qos.snapshot()
    assert snapshot["shed"] == {}
    assert snapshot["queued"] == {}


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_work_snapshot_counts_a_snapshot_open_on_every_backend(backend):
    """A snapshot open is one read on every store, so admission charges a
    SQLite-backed tenant the reads it charges a memory-backed one."""
    service = _build_service(backend, qos=None)
    mid = service.create_metastore("m", owner="alice").id
    before = work_snapshot(service)
    service.store.snapshot(mid)
    assert work_snapshot(service)[1] - before[1] == 1


def test_scheduler_snapshot_deterministic_across_runs():
    def run() -> dict:
        config, ops = generate_scenario(seed=7, count=200)
        clock = SimClock()
        scheduler = QosScheduler(config, clock)
        for op in ops:
            if "advance" in op:
                clock.advance(op["advance"])
                continue
            try:
                scheduler.acquire(op["tenant"], "op",
                                  mutation=op["mutation"],
                                  requested_class=op["cls"],
                                  cost=op["cost"])
            except TenantThrottledError:
                pass
        return scheduler.snapshot()

    first, second = run(), run()
    assert json.dumps(first, sort_keys=True) == json.dumps(second,
                                                           sort_keys=True)
    assert sum(first["shed"].values()) + sum(first["admitted"].values()) > 0
