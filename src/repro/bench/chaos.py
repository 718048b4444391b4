"""Chaos benchmark: goodput and tail latency under injected faults.

The paper's service lives on infrastructure that throttles and fails;
this scenario measures how the reproduction behaves when it does. A
seeded :class:`~repro.faults.FaultInjector` degrades the object store,
the STS endpoint, and the metadata-store commit path while a mixed
catalog + Delta workload runs on :class:`~repro.clock.SimClock`. The
resilience layer (retry/backoff in the storage client, STS issuer, and
service commit loop) must absorb every injected fault: the acceptance
bar is **zero user-visible errors** at a 10% storage fault rate.

Everything is deterministic: same seed → byte-identical goodput, tail
latencies, and retry/fault/breaker counters. ``python -m
repro.bench.chaos --check`` fails on any user-visible error and, through
:mod:`repro.bench.harness`, runs every seed twice and fails on any
divergence. The JSON report (``BENCH_chaos.json``) is not committed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from random import Random
from typing import Any, Optional

from repro.bench import harness
from repro.bench.report import render_table
from repro.bench.stats import summarize
from repro.clock import SimClock
from repro.cloudstore.object_store import StoragePath
from repro.cloudstore.sts import AccessLevel
from repro.core.model.entity import SecurableKind
from repro.core.service.catalog_service import UnityCatalogService
from repro.deltalog.table import DeltaTable
from repro.errors import UnityCatalogError
from repro.faults import FaultInjector
from repro.obs import Observability
from repro.resilience import RetryPolicy

#: simulated service-side cost charged per operation, seconds — gives
#: fault-free ops a nonzero latency so retry amplification is visible
#: as a p99/goodput shift rather than a divide-by-zero
_BASE_OP_COST = 0.001


@dataclass
class ChaosReport:
    """Outcome of one seeded chaos run."""

    seed: int
    operations: int
    ok: int = 0
    user_errors: int = 0
    sim_seconds: float = 0.0
    latencies: list[float] = field(default_factory=list)
    retries: dict[str, float] = field(default_factory=dict)
    faults: dict[str, float] = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)

    @property
    def goodput(self) -> float:
        """Successful operations per simulated second."""
        return self.ok / self.sim_seconds if self.sim_seconds > 0 else 0.0

    def latency_summary(self) -> dict[str, float]:
        return summarize(self.latencies)

    def summary_row(self) -> list[object]:
        latency = self.latency_summary()
        return [
            self.seed,
            self.operations,
            self.ok,
            self.user_errors,
            round(self.goodput, 2),
            round(latency["p50"] * 1000, 3),
            round(latency["p99"] * 1000, 3),
            int(sum(self.retries.values())),
            int(sum(self.faults.values())),
        ]


def run_chaos_scenario(
    seed: int = 11,
    operations: int = 300,
    fault_rate: float = 0.10,
    tables: int = 8,
    retry_policy: Optional[RetryPolicy] = None,
) -> ChaosReport:
    """One seeded chaos run: set up a catalog, turn on faults, drive a
    mixed workload, report goodput/p99 and every resilience counter."""
    clock = SimClock()
    obs = Observability(clock=clock)
    injector = FaultInjector(clock, seed=seed, metrics=obs.metrics)
    policy = retry_policy or RetryPolicy(
        max_attempts=6, base_delay=0.02, max_delay=1.0, jitter=0.5
    )
    service = UnityCatalogService(
        clock=clock, obs=obs, faults=injector, retry_policy=policy
    )
    service.directory.add_user("admin")
    mid = service.create_metastore("chaos", owner="admin").id
    service.create_securable(mid, "admin", SecurableKind.CATALOG, "cat")
    service.create_securable(mid, "admin", SecurableKind.SCHEMA, "cat.sch")

    handles: list[tuple[str, DeltaTable]] = []
    for i in range(tables):
        name = f"cat.sch.t{i}"
        entity = service.create_securable(
            mid, "admin", SecurableKind.TABLE, name,
            spec={
                "table_type": "MANAGED",
                "columns": [{"name": "k", "type": "INT"},
                            {"name": "v", "type": "STRING"}],
            },
        )
        credential = service.vend_credentials(
            mid, "admin", SecurableKind.TABLE, name, AccessLevel.READ_WRITE
        )
        client = service.governed_client(credential)
        root = StoragePath.parse(entity.storage_path)
        table = DeltaTable.create(
            client, root, entity.id,
            [{"name": "k", "type": "INT"}, {"name": "v", "type": "STRING"}],
            clock=clock, metrics=obs.metrics,
        )
        table.append([{"k": i, "v": f"seed-{i}"}])
        handles.append((name, table))

    # setup done — degrade the infrastructure
    injector.inject("put", fault_rate, kind="throttle")
    injector.inject("get", fault_rate, kind="throttle")
    injector.inject("list", fault_rate / 2, kind="unavailable")
    injector.inject("store.commit", fault_rate / 2, kind="unavailable")
    injector.inject("sts.mint", fault_rate / 2, kind="throttle")

    rng = Random(seed ^ 0xC4A05)
    report = ChaosReport(seed=seed, operations=operations)
    started = clock.now()
    row = 0
    for _ in range(operations):
        name, table = handles[rng.randrange(len(handles))]
        op = rng.random()
        issued = clock.now()
        try:
            clock.advance(_BASE_OP_COST)
            if op < 0.40:
                service.get_securable(mid, "admin", SecurableKind.TABLE, name)
            elif op < 0.60:
                service.vend_credentials(
                    mid, "admin", SecurableKind.TABLE, name, AccessLevel.READ
                )
            elif op < 0.85:
                row += 1
                table.append([{"k": row, "v": f"row-{row}"}])
            else:
                table.read_all()
        except UnityCatalogError:
            report.user_errors += 1
        else:
            report.ok += 1
            report.latencies.append(clock.now() - issued)
    report.sim_seconds = clock.now() - started

    snapshot = obs.metrics.snapshot()
    report.metrics = snapshot
    report.retries = {
        key: value for key, value in snapshot.items()
        if key.startswith("uc_retries_total")
    }
    report.faults = {
        key: value for key, value in snapshot.items()
        if key.startswith("uc_faults_injected_total")
    }
    return report


def run_bench(args) -> dict[str, Any]:
    runs = [
        run_chaos_scenario(seed, args.ops, args.fault_rate)
        for seed in args.seeds
    ]
    return {
        "config": {"seeds": args.seeds, "ops": args.ops,
                   "fault_rate": args.fault_rate},
        "runs": [asdict(report) for report in runs],
        "checks": {"zero_user_errors": all(not r.user_errors for r in runs)},
    }


def render_report(report: dict[str, Any]) -> str:
    return render_table(
        ["seed", "ops", "ok", "errors", "goodput/s", "p50 ms", "p99 ms",
         "retries", "faults"],
        [ChaosReport(**run).summary_row() for run in report["runs"]],
        title="chaos bench — goodput/p99 under injected faults",
    )


def _options(parser) -> None:
    parser.add_argument("--seeds", type=int, nargs="+", default=[11, 23, 47])
    parser.add_argument("--ops", type=int, default=300)
    parser.add_argument("--fault-rate", type=float, default=0.10)


SCENARIO = harness.Scenario(
    name="chaos", doc=__doc__, seed=None, run=run_bench,
    summary=render_report, options=_options,
)


def main(argv: Optional[list[str]] = None) -> int:
    return harness.main(SCENARIO, argv)


if __name__ == "__main__":
    raise SystemExit(main())
