"""The one harness every simulated bench runs under.

A bench module defines a :class:`Scenario` — its own flags, how to run
it, how to print its summary — and hands it to :func:`main`. The
harness owns the rest:

* the shared options ``--seed`` (the scenario's default), ``--out``
  (default ``BENCH_<name>.json``) and ``--check``;
* the report: ``bench`` plus the scenario's dict, which carries a
  ``checks`` dict of named booleans. It is always written, as
  ``indent=2, sort_keys=True`` JSON with a trailing newline, its parent
  directory created;
* the determinism gate: under ``--check`` the scenario runs a second
  time and ``checks.deterministic`` records whether the two reports have
  the same :func:`fingerprint`. Wall-clock sections are measured once,
  after the rerun;
* the exit status: under ``--check``, 1 when any check is false (the
  report is written first).

It also holds what the closed-loop scenarios share: the latency model,
the DB server, the closed-loop mode summary, the store/authorizer
:class:`Work` snapshot, and the id-free result and audit digests.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional

from repro.bench.latency import DbServerModel, LatencyModel
from repro.bench.loadgen import run_closed_loop

MODEL = LatencyModel()


@dataclass(frozen=True)
class Scenario:
    """One bench: everything the harness cannot know about it."""

    #: module name under ``repro.bench``; also the report's ``bench``
    name: str
    #: the ``--help`` description
    doc: str
    #: the ``--seed`` default; None for a scenario without ``--seed``
    seed: Optional[int]
    #: args -> the deterministic report (without ``bench``)
    run: Callable[[argparse.Namespace], dict[str, Any]]
    #: report -> the text printed after the run
    summary: Callable[[dict[str, Any]], str]
    #: adds the scenario's own flags
    options: Callable[[argparse.ArgumentParser], None] = lambda parser: None
    #: (args, report) -> adds measured ``wallclock*`` sections in place
    wallclock: Optional[Callable[[argparse.Namespace, dict], None]] = None


def strip_wallclock(value: Any) -> Any:
    """``value`` without any ``wallclock*`` key, at any depth."""
    if isinstance(value, dict):
        return {
            k: strip_wallclock(v) for k, v in value.items()
            if not k.startswith("wallclock")
        }
    if isinstance(value, list):
        return [strip_wallclock(v) for v in value]
    return value


def fingerprint(report: dict[str, Any]) -> str:
    """The bytes a same-seed rerun must reproduce: the report as sorted
    JSON, measured ``wallclock*`` keys left out (the rule of
    ``tools/bench_fingerprint.py``)."""
    return json.dumps(strip_wallclock(report), sort_keys=True)


def run(scenario: Scenario, args: argparse.Namespace) -> dict[str, Any]:
    """The scenario's report; under ``args.check`` with its rerun verdict."""
    report = {"bench": scenario.name, **scenario.run(args)}
    if args.check:
        rerun = {"bench": scenario.name, **scenario.run(args)}
        report["checks"]["deterministic"] = (
            fingerprint(report) == fingerprint(rerun)
        )
    if scenario.wallclock is not None:
        scenario.wallclock(args, report)
    return report


def write_report(report: dict[str, Any], path: str) -> None:
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(scenario: Scenario, argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog=f"python -m repro.bench.{scenario.name}", description=scenario.doc
    )
    if scenario.seed is not None:
        parser.add_argument("--seed", type=int, default=scenario.seed)
    parser.add_argument("--out", default=f"BENCH_{scenario.name}.json",
                        help="where the JSON report is written")
    parser.add_argument("--check", action="store_true",
                        help="rerun for determinism; exit 1 when any check "
                             "fails")
    scenario.options(parser)
    args = parser.parse_args(argv)

    report = run(scenario, args)
    write_report(report, args.out)
    print(scenario.summary(report))
    print(f"wrote {args.out}")
    if not args.check:
        return 0
    failed = [name for name, ok in report["checks"].items() if not ok]
    if failed:
        print(f"CHECK FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    print("checks OK")
    return 0


# ---------------------------------------------------------------------------
# what the closed-loop scenarios share


def db_server(capacity_qps: float) -> DbServerModel:
    return DbServerModel(
        MODEL, capacity_qps=capacity_qps, response_floor=MODEL.db_point_read
    )


def closed_loop(clients: int, duration: float,
                request_fn: Callable[[float], float]) -> dict[str, Any]:
    """One closed-loop run on simulated time, the first 20 % discarded as
    warm-up, summarised in milliseconds."""
    result = run_closed_loop(clients, duration, request_fn,
                             warmup=duration * 0.2)
    summary = result.latency_summary()
    return {
        "completed": result.completed,
        "throughput_qps": result.throughput,
        "p50_ms": summary["p50"] * 1000,
        "p99_ms": summary["p99"] * 1000,
        "mean_ms": summary["mean"] * 1000,
    }


class Work(NamedTuple):
    """A service's cumulative work counters; ``after - before`` is the
    work one request did. Each scenario prices it with its own formula."""

    evaluations: int
    identity_expansions: int
    #: grant and policy rows the authorizer examined
    rows_examined: int
    #: snapshot opens
    reads: int
    multi_gets: int
    range_scans: int
    scan_rows: int

    def __sub__(self, before: "Work") -> "Work":  # type: ignore[override]
        return Work(*(a - b for a, b in zip(self, before)))


def work_snapshot(service) -> Work:
    auth = service.authorizer
    store = service.store
    return Work(
        evaluations=auth.evaluations,
        identity_expansions=auth.identity_expansions,
        rows_examined=auth.grant_rows_examined + auth.policy_rows_examined,
        reads=store.read_count,
        multi_gets=store.multi_get_count,
        range_scans=store.range_scan_count,
        scan_rows=store.scan_row_count,
    )


def strip_ids(value: Any) -> Any:
    """``value`` without minted-id fields (random per service instance)."""
    if isinstance(value, dict):
        return {
            k: strip_ids(v) for k, v in value.items()
            if not k.endswith("_id") and k != "id"
        }
    if isinstance(value, list):
        return [strip_ids(v) for v in value]
    return value


def audit_fingerprint(service) -> list[tuple]:
    return [
        (r.principal, r.action, r.securable, r.allowed)
        for r in service.audit
    ]
