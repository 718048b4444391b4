"""QoS bench: one abusive tenant vs 9k victims on the shared hot path.

The defining "heavy traffic from millions of users" scenario (ROADMAP):
a heavy-tailed 9,000-tenant trace from :mod:`repro.workloads` runs
against the admission scheduler while one abusive tenant floods the
write path at several times the whole account's baseline load. The gate
asserts three things:

* **QoS on** — every victim class's p99 latency stays inside its SLO,
  no victim request is shed, and the abuser absorbs the shedding;
* **QoS off** (one FIFO server at the same total capacity) — the same
  trace demonstrably violates at least one victim SLO, so the isolation
  is the scheduler's doing, not spare capacity;
* **determinism** — same seed, byte-identical report (``--check`` runs
  everything twice through :mod:`repro.bench.harness`).

The bench drives :class:`~repro.core.service.qos.QosScheduler` directly
on a :class:`~repro.clock.SimClock` in open loop: arrivals come from the
trace's timestamps, waits are the scheduler's simulated queueing delays,
and nothing sleeps. A second, service-level scenario
(:func:`run_qos_scenario`) layers QoS over injected faults for the
chaos-determinism suite.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.bench import harness
from repro.bench.report import render_table
from repro.bench.stats import percentile, summarize
from repro.clock import SimClock
from repro.core.auth.privileges import Privilege
from repro.core.model.entity import SecurableKind
from repro.core.service.catalog_service import UnityCatalogService
from repro.core.service.qos import QosConfig, QosScheduler
from repro.errors import TenantThrottledError, UnityCatalogError
from repro.faults import FaultInjector
from repro.obs import Observability
from repro.workloads.tenants import TenantTraceConfig, generate_tenant_trace

#: per-class SLOs the gate enforces (seconds, p99 of victim latency)
SLO = {"interactive": 0.5, "batch": 2.0, "background": 10.0}


def bench_config() -> QosConfig:
    """The scheduler sizing for the 9k-tenant trace.

    Baseline victim load is ~370 cost units/s; the abuser adds ~600
    units/s during its burst. The admitted band absorbs the baseline,
    per-tenant buckets keep victims in budget, and the excess band +
    bounded queues force the abuser's flood into shedding.
    """
    return QosConfig(
        refill_rate=60.0,
        burst=150.0,
        capacity_rate=700.0,
        excess_rate=250.0,
        max_queue_depth=32,
        max_queue_delay=4.0,
        class_slo=dict(SLO),
    )


def run_qos_bench(seed: int = 11, qos_enabled: bool = True,
                  config: Optional[QosConfig] = None,
                  trace_config: Optional[TenantTraceConfig] = None) -> dict:
    """Replay the trace; returns a deterministic report dict."""
    trace_config = trace_config or TenantTraceConfig(seed=seed)
    trace = generate_tenant_trace(trace_config)
    config = config or bench_config()
    abuser = trace_config.abuser

    clock = SimClock()
    latencies: dict[str, list[float]] = {}      # victim latency per class
    abuser_latencies: list[float] = []
    shed = {"abuser": 0, "victim": 0}
    completed = {"abuser": 0, "victim": 0}

    if qos_enabled:
        scheduler = QosScheduler(config, clock)
        for request in trace:
            if request.timestamp > clock.now():
                clock.advance(request.timestamp - clock.now())
            try:
                grant = scheduler.acquire(
                    request.tenant,
                    "write" if request.is_write else "read",
                    mutation=request.is_write,
                    requested_class=request.qos_class,
                    cost=request.cost,
                )
            except TenantThrottledError:
                shed["abuser" if request.tenant == abuser else "victim"] += 1
                continue
            scheduler.settle(grant)
            if request.tenant == abuser:
                completed["abuser"] += 1
                abuser_latencies.append(grant.wait)
            else:
                completed["victim"] += 1
                latencies.setdefault(request.qos_class, []).append(grant.wait)
        counters = scheduler.snapshot()
    else:
        # one undifferentiated FIFO server at the same total capacity:
        # what the pipeline did before this module existed
        rate = config.capacity_rate + config.excess_rate
        server_free = 0.0
        for request in trace:
            if request.timestamp > clock.now():
                clock.advance(request.timestamp - clock.now())
            now = clock.now()
            server_free = max(server_free, now) + request.cost / rate
            wait = server_free - now
            if request.tenant == abuser:
                completed["abuser"] += 1
                abuser_latencies.append(wait)
            else:
                completed["victim"] += 1
                latencies.setdefault(request.qos_class, []).append(wait)
        counters = {"admitted": {}, "queued": {}, "shed": {}}

    per_class = {}
    for cls in sorted(latencies):
        values = latencies[cls]
        summary = summarize(values)
        per_class[cls] = {
            "count": summary["count"],
            "p50": round(summary["p50"], 6),
            "p99": round(summary["p99"], 6),
            "max": round(summary["max"], 6),
            "slo": SLO[cls],
            "within_slo": percentile(values, 99.0) <= SLO[cls],
        }
    total_shed = shed["abuser"] + shed["victim"]
    return {
        "seed": seed,
        "qos_enabled": qos_enabled,
        "tenants": trace_config.tenants,
        "events": len(trace),
        "completed": completed,
        "shed": shed,
        "abuser_shed_share": (
            round(shed["abuser"] / total_shed, 6) if total_shed else None
        ),
        "abuser_p99": round(percentile(abuser_latencies, 99.0), 6)
        if abuser_latencies else None,
        "classes": per_class,
        "counters_total": {
            key: sum(values.values())
            for key, values in sorted(counters.items())
        },
    }


def evaluate_gates(on: dict, off: dict) -> dict[str, bool]:
    """The --check gate conditions (all must hold)."""
    return {
        # with QoS, every victim class meets its p99 SLO
        "victims_within_slo": all(
            entry["within_slo"] for entry in on["classes"].values()
        ),
        # the abuser absorbs the shedding; victims are never shed
        "abuser_absorbs_shedding": (
            on["shed"]["abuser"] > 0 and on["shed"]["victim"] == 0
        ),
        # without QoS the same trace violates at least one victim SLO
        "qos_off_violates_slo": any(
            not entry["within_slo"] for entry in off["classes"].values()
        ),
        # and QoS-off sheds nothing (it has no mechanism to): the SLO
        # damage comes from unbounded queueing, not lost requests
        "qos_off_sheds_nothing": (
            off["shed"]["abuser"] == 0 and off["shed"]["victim"] == 0
        ),
    }


# ---------------------------------------------------------------------------
# service-level scenario (chaos-determinism suite)
# ---------------------------------------------------------------------------


def run_qos_scenario(seed: int = 11, fault_rate: float = 0.10,
                     rounds: int = 40, victims: int = 6) -> dict:
    """QoS + injected faults through the real service pipeline.

    ``victims`` in-budget tenants issue paced reads while one abusive
    tenant bursts mutations far past its budget, all at a 10% storage
    fault rate. In-budget tenants must see **zero** user-visible errors
    (retries absorb the faults, admission never triggers); the abuser
    absorbs every 429. The returned report is byte-stable per seed.
    """
    clock = SimClock()
    obs = Observability(clock=clock)
    injector = FaultInjector(clock, seed=seed, metrics=obs.metrics)
    service = UnityCatalogService(
        clock=clock, obs=obs, faults=injector,
        qos=QosConfig(
            refill_rate=20.0, burst=40.0,
            # depth 0: over-budget => immediate 429 (a sequential driver
            # advances the clock past every queue wait, so only the
            # no-queue configuration sheds deterministically)
            max_queue_depth=0,
        ),
    )
    names = [f"user-{i}" for i in range(victims)]
    for name in names:
        service.directory.add_user(name)
    service.directory.add_user("abuser")
    mid = service.create_metastore("qos", owner="user-0").id
    service.create_securable(mid, "user-0", SecurableKind.CATALOG, "cat")
    service.create_securable(mid, "user-0", SecurableKind.SCHEMA, "cat.sch")
    for name in names[1:]:
        service.grant(mid, "user-0", SecurableKind.CATALOG, "cat",
                      name, Privilege.USE_CATALOG)
    service.grant(mid, "user-0", SecurableKind.CATALOG, "cat",
                  "abuser", Privilege.USE_CATALOG)
    service.grant(mid, "user-0", SecurableKind.SCHEMA, "cat.sch",
                  "abuser", Privilege.USE_SCHEMA)
    service.grant(mid, "user-0", SecurableKind.CATALOG, "cat",
                  "abuser", Privilege.CREATE_SCHEMA)
    clock.advance(5.0)  # refill every setup charge before measuring

    injector.inject("put", fault_rate, kind="throttle")
    injector.inject("get", fault_rate, kind="throttle")
    injector.inject("store.commit", fault_rate / 2, kind="unavailable")

    victim_errors = 0
    victim_ok = 0
    abuser_ok = 0
    abuser_throttled = 0
    abuser_other_errors = 0
    for round_index in range(rounds):
        for name in names:
            try:
                service.get_securable(mid, name, SecurableKind.CATALOG, "cat")
                victim_ok += 1
            except UnityCatalogError:
                victim_errors += 1
        # the abuser bursts mutations with no pacing: its bucket empties
        # after a few rounds and every further burst is shed with 429
        for burst in range(4):
            try:
                service.create_securable(
                    mid, "abuser", SecurableKind.SCHEMA,
                    f"cat.abuse-{round_index}-{burst}",
                )
                abuser_ok += 1
            except TenantThrottledError:
                abuser_throttled += 1
            except UnityCatalogError:
                abuser_other_errors += 1
        clock.advance(0.25)

    audit_denied = sum(1 for record in service.audit if not record.allowed)
    return {
        "seed": seed,
        "fault_rate": fault_rate,
        "rounds": rounds,
        "victim_ok": victim_ok,
        "victim_errors": victim_errors,
        "abuser_ok": abuser_ok,
        "abuser_throttled": abuser_throttled,
        "abuser_other_errors": abuser_other_errors,
        "audit_denied": audit_denied,
        "qos": service.qos.snapshot(),
        "sim_seconds": round(clock.now(), 6),
    }


# ---------------------------------------------------------------------------
# the bench
# ---------------------------------------------------------------------------


def run_bench(args) -> dict[str, Any]:
    on = run_qos_bench(args.seed, qos_enabled=True)
    off = run_qos_bench(args.seed, qos_enabled=False)
    return {"qos_on": on, "qos_off": off, "checks": evaluate_gates(on, off)}


def render_report(report: dict[str, Any]) -> str:
    on, off = report["qos_on"], report["qos_off"]
    rows = []
    for label, run in (("on", on), ("off", off)):
        for cls, entry in sorted(run["classes"].items()):
            rows.append([
                label, cls, entry["count"],
                round(entry["p50"] * 1000, 3),
                round(entry["p99"] * 1000, 3),
                round(entry["slo"] * 1000, 1),
                "yes" if entry["within_slo"] else "NO",
            ])
    table = render_table(
        ["qos", "class", "victim reqs", "p50 ms", "p99 ms", "slo ms",
         "within"],
        rows,
        title=(f"qos bench — abusive tenant vs {on['tenants']} tenants, "
               f"seed {on['seed']}"),
    )
    lines = [table, ""]
    lines.append(
        f"shed (qos on): abuser={on['shed']['abuser']} "
        f"victims={on['shed']['victim']} "
        f"(abuser share {on['abuser_shed_share']})"
    )
    for gate, passed in report["checks"].items():
        lines.append(f"gate {gate}: {'PASS' if passed else 'FAIL'}")
    return "\n".join(lines)


SCENARIO = harness.Scenario(
    name="qos", doc=__doc__, seed=11, run=run_bench, summary=render_report,
)


def main(argv: Optional[list[str]] = None) -> int:
    return harness.main(SCENARIO, argv)


if __name__ == "__main__":
    raise SystemExit(main())
