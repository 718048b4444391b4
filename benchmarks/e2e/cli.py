"""Command line: one workload (the driver's contract), the full set, compare, selfcheck."""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from typing import Any, Optional, Sequence

from .report import calibration_lines, compare, timed_lines, traced_lines
from .runner import OUT_DIR, run_timed, run_traced
from .workloads import WORKLOADS

#: seconds one run measures; BENCHMARK.json's ``run_seconds``
DEFAULT_SECONDS = 18


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="Wall-clock end-to-end benchmark of the catalog.")
    parser.add_argument("--seed", type=int, default=12,
                        help="drives the estate and every request stream")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured time per run (three windows)")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run this workload only; the last line printed is "
                             "the one-object JSON result")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="make the separate traced pass (per-layer metrics)")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the full result set as JSON here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="apply the per-metric bounds to two result files")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run two full sets back to back and compare them")
    return parser


def _run_one(name: str, seed: int, seconds: float, trace: bool,
             path: Optional[str]) -> int:
    """One workload in this process; the driver's contract."""
    runner, lines = (run_traced, traced_lines) if trace else (run_timed, timed_lines)
    result = runner(WORKLOADS[name], seed, seconds)
    for line in lines(result):
        print(line)
    if path:
        with open(path, "w") as out:
            json.dump(result, out, indent=1)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in result["metrics"].items()},
    }))
    return 0 if result["correct"] else 1


def _run_set(seed: int, seconds: float, trace: bool) -> tuple[dict[str, Any], bool]:
    """Every workload, each in a process of its own (a fresh interpreter:
    one workload's heap and peak RSS never leak into the next)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    results: dict[str, Any] = {"seed": seed, "seconds": seconds,
                               "timed": {}, "traced": {}}
    clean = True
    for mode in ("timed", "traced") if trace else ("timed",):
        for name in WORKLOADS:
            path = os.path.join(OUT_DIR, f"{mode}-{name}.json")
            command = [sys.executable, "-m", "benchmarks.e2e", "--workload", name,
                       "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", str(int(mode == "traced")), "--json", path]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            # everything but the machine-readable last line
            print("\n".join(done.stdout.rstrip("\n").split("\n")[:-1]), flush=True)
            if done.returncode != 0:
                clean = False
                print(f"== {name} ({mode}) FAILED with exit code {done.returncode}")
            if os.path.exists(path):
                with open(path) as handle:
                    results[mode][name] = json.load(handle)
    if results["traced"]:
        for line in calibration_lines(results["traced"]):
            print(line)
    return results, clean


def fixed_hash_seed() -> None:
    """Re-execute the interpreter with ``PYTHONHASHSEED=0`` unless it is
    set already. String hashes are otherwise salted per process, which
    reorders every set of names and shifts run-to-run throughput by a
    few per cent for identical inputs. Entry points call this first."""
    if os.environ.get("PYTHONHASHSEED") is None:
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.orig_argv[1:]])


def _terminate(signum, frame):
    # leave through the finally blocks: the server child is stopped and
    # reaped, the temporary SQLite directory removed
    raise SystemExit(128 + signum)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if args.compare:
        loaded = []
        for path in args.compare:
            with open(path) as handle:
                loaded.append(json.load(handle))
        lines, clean = compare(*loaded)
        print("\n".join(lines))
        return 0 if clean else 1
    if args.workload:
        return _run_one(args.workload, args.seed, args.seconds, bool(args.trace),
                        args.json)
    results, clean = _run_set(args.seed, args.seconds, bool(args.trace))
    if args.selfcheck:
        again, clean_again = _run_set(args.seed, args.seconds, False)
        lines, agree = compare(results, again)
        print("== selfcheck: second set against the first")
        print("\n".join(lines))
        clean = clean and clean_again and agree
    if args.json:
        with open(args.json, "w") as out:
            json.dump(results, out, indent=1)
    print("== " + ("all workloads correct" if clean else "FAILED"))
    return 0 if clean else 1
