"""Benchmark harness utilities.

* :mod:`~repro.bench.stats` — CDFs, percentiles, histograms;
* :mod:`~repro.bench.latency` — the simulated cost model: calibrated
  per-operation costs plus a capacity-limited DB server (FIFO queue) so
  latency/throughput curves have realistic saturation behaviour;
* :mod:`~repro.bench.loadgen` — closed-loop load generation over SimClock;
* :mod:`~repro.bench.scan_only` — the unindexed baseline store (every
  range or tree read a full scan) the cache and listing benches contrast;
* :mod:`~repro.bench.chaos` — goodput/p99 under deterministic fault
  injection (the resilience layer's acceptance bench);
* :mod:`~repro.bench.report` — text tables and paper-vs-measured rows.
"""

from repro.bench.stats import cdf, percentile, summarize
from repro.bench.latency import DbServerModel, LatencyModel
from repro.bench.loadgen import ClosedLoopResult, run_closed_loop
from repro.bench.report import (
    ascii_bar_chart,
    paper_row,
    render_metrics,
    render_table,
)

_CHAOS_EXPORTS = ("ChaosReport", "check_determinism", "run_chaos_scenario")


def __getattr__(name):
    # lazy: `python -m repro.bench.chaos` would otherwise warn about the
    # package importing the module it is about to execute
    if name in _CHAOS_EXPORTS:
        from repro.bench import chaos

        return getattr(chaos, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ChaosReport",
    "ClosedLoopResult",
    "DbServerModel",
    "LatencyModel",
    "ascii_bar_chart",
    "cdf",
    "check_determinism",
    "paper_row",
    "percentile",
    "render_metrics",
    "render_table",
    "run_chaos_scenario",
    "run_closed_loop",
    "summarize",
]
