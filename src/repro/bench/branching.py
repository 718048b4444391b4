"""Branching benchmark: replayable audit over zero-copy catalog branches.

The scenario the branch model exists for: fork a branch from a seeded
estate, replay a recorded workload trace (:mod:`repro.workloads.traces`)
against the branch while production keeps hammering main, then prove —
with byte-stable fingerprints — that

* **nothing leaks across the fork** in either direction: main never sees
  branch writes, the branch never sees post-fork main writes;
* the replay on the branch is **outcome- and audit-identical** to the
  same trace replayed on an untouched control copy of the estate — the
  branch is a faithful sandbox of main at the fork point;
* a **clean merge** lands every branch change on main in one atomic
  commit (single-history-equivalent: one version bump, rows byte-equal
  to the branch's), and a contended merge raises
  :class:`~repro.errors.MergeConflictError` naming the securable;
* the whole run is **deterministic**: same seed → identical report.

``python -m repro.bench.branching --check`` enforces all of the above
(the rerun through :mod:`repro.bench.harness`) and writes
``BENCH_branching.json`` — the CI ``branching`` gate.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from random import Random
from typing import Any, Optional

from repro.bench import harness
from repro.clock import SimClock
from repro.core.model.entity import Entity, SecurableKind
from repro.core.service.catalog_service import UnityCatalogService
from repro.errors import MergeConflictError, UnityCatalogError
from repro.workloads.deployment import (
    DeploymentConfig,
    SyntheticDeployment,
    generate_deployment,
    materialize_deployment,
)
from repro.workloads.traces import TraceConfig, generate_trace

#: deployment knobs for a laptop-size but non-trivial estate
_ESTATE = dict(
    metastores=1,
    catalog_mode=3.0, catalog_cap=5,
    schema_mode=2.0, schema_cap=4,
    tables_per_catalog_mode=5.0, tables_cap=40,
    volumes_per_catalog_mode=1.0, volumes_cap=3,
    models_per_schema_mode=1.0,
    functions_per_schema_mode=1.0,
)

_REPLAY_BRANCH = "replay"
_CONFLICT_BRANCH = "contended"


@dataclass
class BranchingReport:
    """Outcome of one seeded branching run."""

    seed: int
    estate_entities: int = 0
    trace_events: int = 0
    replay_ops: int = 0
    prod_ops: int = 0
    #: branch writes visible from main / post-fork main writes visible
    #: from the branch — the acceptance bar is zero for both
    leaks_into_main: int = 0
    leaks_into_branch: int = 0
    #: replayed outcomes that differ from the control replay
    outcome_mismatches: int = 0
    audit_mismatches: int = 0
    merged_changes: int = 0
    #: store versions consumed by the merge (must be 1: one atomic commit)
    merge_version_cost: int = 0
    merge_landed_rows: int = 0
    merge_missing_rows: int = 0
    conflict_raised: bool = False
    conflict_securable: str = ""
    details: dict[str, Any] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return (
            self.leaks_into_main == 0
            and self.leaks_into_branch == 0
            and self.outcome_mismatches == 0
            and self.audit_mismatches == 0
            and self.merge_version_cost == 1
            and self.merge_missing_rows == 0
            and self.merged_changes > 0
            and self.conflict_raised
        )


# ----------------------------------------------------------------------
# estate + trace
# ----------------------------------------------------------------------


def _name_map(deployment: SyntheticDeployment) -> dict[str, tuple[SecurableKind, str]]:
    """entity id -> (kind, live full name), mirroring materialization."""
    source = deployment.metastores[0]
    names: dict[str, str] = {source.id: ""}

    def full_name(entity: Entity) -> str:
        prefix = names[entity.parent_id]
        return f"{prefix}.{entity.name}" if prefix else entity.name

    out: dict[str, tuple[SecurableKind, str]] = {}
    for catalog in sorted(deployment.catalogs, key=lambda e: e.name):
        if catalog.metastore_id != source.id:
            continue
        names[catalog.id] = catalog.name
        out[catalog.id] = (SecurableKind.CATALOG, catalog.name)
    for schema in sorted(deployment.schemas, key=lambda e: e.name):
        if schema.metastore_id != source.id or schema.parent_id not in names:
            continue
        names[schema.id] = full_name(schema)
        out[schema.id] = (SecurableKind.SCHEMA, names[schema.id])
    for asset in deployment.assets():
        if asset.metastore_id != source.id or asset.parent_id not in names:
            continue
        if asset.spec.get("table_type") == "SHALLOW_CLONE":
            continue
        out[asset.id] = (asset.kind, full_name(asset))
    return out


def _build_estate(seed: int, clock: SimClock) -> tuple[UnityCatalogService, str]:
    service = UnityCatalogService(clock=clock)
    deployment = generate_deployment(DeploymentConfig(seed=seed, **_ESTATE))
    mid = materialize_deployment(deployment, service, owner="admin")
    return service, mid


def _record_trace(seed: int) -> list[tuple[str, SecurableKind, str, bool]]:
    """The recorded workload: (op id, kind, live name, is_read) tuples."""
    deployment = generate_deployment(DeploymentConfig(seed=seed, **_ESTATE))
    mapping = _name_map(deployment)
    events = generate_trace(
        deployment,
        TraceConfig(seed=seed ^ 0xB4A9C, duration_seconds=240.0,
                    active_fraction=0.6, max_events=240,
                    # write-heavier than the paper's 98.2% read mix: a
                    # replayed what-if workload exists to test writes
                    read_fraction=0.85),
    )
    trace = []
    for index, event in enumerate(events):
        if event.entity_id not in mapping:
            continue
        kind, name = mapping[event.entity_id]
        trace.append((f"op{index}", kind, name, event.is_read))
    return trace


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------


def _entity_digest(entity: Entity) -> dict[str, Any]:
    """Identity-free digest: ids/paths differ across service instances."""
    return {
        "name": entity.name,
        "kind": entity.kind.value,
        "comment": entity.comment,
        "properties": dict(entity.properties or {}),
    }


def _branched(name: str, branch: Optional[str]) -> str:
    if branch is None:
        return name
    head, _, rest = name.partition(".")
    head = f"{head}@{branch}"
    return f"{head}.{rest}" if rest else head


def _replay(
    service: UnityCatalogService,
    mid: str,
    trace: list[tuple[str, SecurableKind, str, bool]],
    branch: Optional[str],
    catalog: str,
    prod: Optional[Random] = None,
    prod_targets: Optional[list[tuple[SecurableKind, str]]] = None,
) -> tuple[list[tuple[str, str, str]], int, int]:
    """Replay the trace (on ``branch`` when set, via name suffixes),
    optionally interleaving production writes on main. Returns the
    outcome log, replayed-op count, and production-op count."""
    outcomes: list[tuple[str, str, str]] = []
    replayed = prod_ops = 0
    for op_id, kind, name, is_read in trace:
        if name.split(".", 1)[0] != catalog:
            continue  # a branch scopes one catalog; replay stays inside it
        target = _branched(name, branch)
        try:
            if is_read:
                entity = service.get_securable(mid, "admin", kind, target)
                outcome = json.dumps(_entity_digest(entity), sort_keys=True)
            else:
                entity = service.update_securable(
                    mid, "admin", kind, target, comment=f"replay {op_id}"
                )
                outcome = json.dumps(_entity_digest(entity), sort_keys=True)
        except UnityCatalogError as exc:
            outcome = f"error:{exc.code}"
        outcomes.append((op_id, name, outcome))
        replayed += 1
        # production hammers main between replayed ops — other catalogs,
        # so the later merge is clean by construction
        if prod is not None and prod_targets and prod.random() < 0.7:
            pkind, pname = prod_targets[prod.randrange(len(prod_targets))]
            service.update_securable(
                mid, "admin", pkind, pname, comment=f"prod {prod_ops}"
            )
            prod_ops += 1
    return outcomes, replayed, prod_ops


def _audit_tail(service: UnityCatalogService, since: int) -> list[tuple[str, str, bool]]:
    """(action, securable, allowed) triples after sequence ``since``."""
    return [
        (r.action, r.securable, r.allowed)
        for r in service.audit
        if r.sequence > since
    ]


# ----------------------------------------------------------------------
# the scenario
# ----------------------------------------------------------------------


def _estate_walk(
    service: UnityCatalogService, mid: str
) -> tuple[int, dict[str, list[tuple[SecurableKind, str]]]]:
    """(total entities, catalog -> [(kind, full name)] of its assets)."""
    total = 0
    assets: dict[str, list[tuple[SecurableKind, str]]] = {}
    for cat in service.list_securables(mid, "admin", SecurableKind.CATALOG):
        total += 1
        assets[cat.name] = []
        for schema in service.list_securables(
            mid, "admin", SecurableKind.SCHEMA, cat.name
        ):
            total += 1
            for kind in (SecurableKind.TABLE, SecurableKind.VOLUME,
                         SecurableKind.FUNCTION,
                         SecurableKind.REGISTERED_MODEL):
                for asset in service.list_securables(
                    mid, "admin", kind, f"{cat.name}.{schema.name}"
                ):
                    total += 1
                    assets[cat.name].append(
                        (kind, f"{cat.name}.{schema.name}.{asset.name}")
                    )
    return total, assets


def run_branching_scenario(seed: int = 23) -> BranchingReport:
    report = BranchingReport(seed=seed)

    # two identically-seeded estates: the system under test, and an
    # untouched control the trace is replayed against directly
    clock = SimClock()
    service, mid = _build_estate(seed, clock)
    control_clock = SimClock()
    control, control_mid = _build_estate(seed, control_clock)

    trace = _record_trace(seed)
    report.trace_events = len(trace)

    report.estate_entities, assets_by_catalog = _estate_walk(service, mid)

    # the branch scopes the busiest traced catalog that owns a table
    # (the conflict scenario needs one to contend on)
    traffic: dict[str, int] = {}
    for _, _, name, _ in trace:
        top = name.split(".", 1)[0]
        traffic[top] = traffic.get(top, 0) + 1
    tables_of = {
        cat: [n for k, n in pairs if k is SecurableKind.TABLE]
        for cat, pairs in assets_by_catalog.items()
    }
    candidates = sorted(c for c in traffic if tables_of.get(c))
    if candidates:
        catalog = max(candidates, key=lambda c: traffic[c])
    else:
        catalog = max(sorted(tables_of), key=lambda c: len(tables_of[c]))
    prod_targets = [
        (kind, name)
        for cat, pairs in sorted(assets_by_catalog.items())
        if cat != catalog
        for kind, name in pairs
        if kind in (SecurableKind.TABLE, SecurableKind.VOLUME)
    ]

    # pre-fork state of everything in the branch catalog, for leak checks
    def catalog_digests(
        svc: UnityCatalogService, smid: str, suffix: str = ""
    ) -> dict[str, str]:
        digests: dict[str, str] = {}
        branched_cat = _branched(catalog, suffix or None)
        for schema in svc.list_securables(
            smid, "admin", SecurableKind.SCHEMA, branched_cat
        ):
            digests[f"schema:{schema.name}"] = json.dumps(
                _entity_digest(schema), sort_keys=True
            )
            for kind in (SecurableKind.TABLE, SecurableKind.VOLUME,
                         SecurableKind.FUNCTION,
                         SecurableKind.REGISTERED_MODEL):
                for entity in svc.list_securables(
                    smid, "admin", kind, f"{branched_cat}.{schema.name}"
                ):
                    digests[f"{kind.value}:{schema.name}.{entity.name}"] = (
                        json.dumps(_entity_digest(entity), sort_keys=True)
                    )
        return digests

    pre_fork = catalog_digests(service, mid)

    service.create_branch(mid, "admin", catalog, _REPLAY_BRANCH)

    # replay on the branch while production hammers main
    audit_mark = max((r.sequence for r in service.audit), default=0)
    outcomes, replayed, prod_ops = _replay(
        service, mid, trace, _REPLAY_BRANCH, catalog,
        prod=Random(seed ^ 0x9D0D), prod_targets=prod_targets,
    )
    report.replay_ops = replayed
    report.prod_ops = prod_ops

    def replay_audit(svc: UnityCatalogService, mark: int):
        # keep only the replayed catalog's get/update records: the
        # production stream (other catalogs) is deliberately excluded
        # from the parity diff
        return [
            entry for entry in _audit_tail(svc, mark)
            if entry[0] in ("get_securable", "update_securable")
            and entry[1].split(".", 1)[0].split("@", 1)[0] == catalog
        ]

    branch_audit = replay_audit(service, audit_mark)

    # control: the same trace, replayed directly on the untouched estate
    control_mark = max((r.sequence for r in control.audit), default=0)
    control_outcomes, _, _ = _replay(control, control_mid, trace, None, catalog)
    control_audit = replay_audit(control, control_mark)
    report.outcome_mismatches = sum(
        1 for ours, theirs in zip(outcomes, control_outcomes) if ours != theirs
    ) + abs(len(outcomes) - len(control_outcomes))
    report.audit_mismatches = sum(
        1 for ours, theirs in zip(branch_audit, control_audit) if ours != theirs
    ) + abs(len(branch_audit) - len(control_audit))

    # leak checks: main unchanged where only the branch wrote; the branch
    # blind to post-fork production writes (none target its catalog, so
    # its catalog view must equal pre-fork + its own replay writes)
    post_main = catalog_digests(service, mid)
    for key, digest in post_main.items():
        before = pre_fork.get(key)
        if before is not None and before != digest:
            report.leaks_into_main += 1
    branch_written = {
        name.split(".", 1)[1] for _, name, outcome in outcomes
        if "replay" in outcome and "." in name
    }
    branch_view = catalog_digests(service, mid, _REPLAY_BRANCH)
    for key, digest in branch_view.items():
        before = pre_fork.get(key)
        if before is None or key.split(":", 1)[1] in branch_written:
            continue
        if before != digest:
            report.leaks_into_branch += 1

    # clean merge: every overlay row lands on main in one version bump
    diff = service.diff_branch(mid, "admin", catalog, _REPLAY_BRANCH)
    version_before = service.head_version(mid)
    merge = service.merge_branch(mid, "admin", catalog, _REPLAY_BRANCH)
    report.merged_changes = merge["merged_changes"]
    report.merge_version_cost = merge["version"] - version_before
    merged_view = catalog_digests(service, mid)
    for key, digest in branch_view.items():
        if merged_view.get(key) == digest:
            report.merge_landed_rows += 1
        else:
            report.merge_missing_rows += 1
    report.details["diff_changes"] = len(diff["changes"])
    report.details["diff_conflicts"] = len(diff["conflicts"])

    # contended merge: both sides touch one securable -> MERGE_CONFLICT
    contested_kind, contested = SecurableKind.TABLE, tables_of[catalog][0]
    service.create_branch(mid, "admin", catalog, _CONFLICT_BRANCH)
    service.update_securable(
        mid, "admin", contested_kind,
        _branched(contested, _CONFLICT_BRANCH), comment="branch side"
    )
    service.update_securable(
        mid, "admin", contested_kind, contested, comment="main side"
    )
    try:
        service.merge_branch(mid, "admin", catalog, _CONFLICT_BRANCH)
    except MergeConflictError as exc:
        named = {securable for _, _, securable in exc.conflicts}
        report.conflict_raised = contested.rsplit(".", 1)[-1] in named
        report.conflict_securable = ",".join(sorted(named))
    service.delete_branch(mid, "admin", catalog, _CONFLICT_BRANCH)

    report.details["catalog"] = catalog
    report.details["final_version"] = service.head_version(mid)
    return report


# ----------------------------------------------------------------------
# the bench
# ----------------------------------------------------------------------


def run_bench(args) -> dict[str, Any]:
    report = run_branching_scenario(args.seed)
    return {**asdict(report), "checks": {"clean": report.clean}}


def render_report(report: dict[str, Any]) -> str:
    lines = [
        "branching bench — zero-copy forks, replayable audit",
        f"  seed {report['seed']}: estate {report['estate_entities']} "
        f"entities, trace {report['trace_events']} events",
        f"  replayed {report['replay_ops']} ops on branch while "
        f"{report['prod_ops']} production writes hit main",
        f"  leakage: {report['leaks_into_main']} into main, "
        f"{report['leaks_into_branch']} into branch",
        f"  replay parity vs control: {report['outcome_mismatches']} "
        f"outcome / {report['audit_mismatches']} audit mismatches",
        f"  merge: {report['merged_changes']} changes in "
        f"{report['merge_version_cost']} commit(s), "
        f"{report['merge_missing_rows']} rows missing after merge",
        f"  conflict: raised={report['conflict_raised']} "
        f"on {report['conflict_securable'] or '<none>'}",
    ]
    return "\n".join(lines)


SCENARIO = harness.Scenario(
    name="branching", doc=__doc__, seed=23, run=run_bench,
    summary=render_report,
)


def main(argv: Optional[list[str]] = None) -> int:
    return harness.main(SCENARIO, argv)


if __name__ == "__main__":
    raise SystemExit(main())
