"""Benchmark harness and the simulated benches.

Shared machinery:

* :mod:`~repro.bench.harness` — the one CLI, determinism gate and report
  writer every bench below runs under, plus the closed-loop mode
  summary and the store/authorizer work snapshot;
* :mod:`~repro.bench.stats` — CDFs, percentiles, histograms;
* :mod:`~repro.bench.latency` — the simulated cost model: calibrated
  per-operation costs plus a capacity-limited DB server (FIFO queue) so
  latency/throughput curves have realistic saturation behaviour;
* :mod:`~repro.bench.loadgen` — closed-loop load generation over SimClock;
* :mod:`~repro.bench.wallclock` — the real-thread loop behind the
  ``--wallclock`` sections;
* :mod:`~repro.bench.scan_only` — the unindexed baseline store (every
  range or tree read a full scan) the cache and listing benches contrast;
* :mod:`~repro.bench.report` — text tables and paper-vs-measured rows.

Scenarios, each ``python -m repro.bench.<name> [--seed N] [--out PATH]
[--check]``:

* :mod:`~repro.bench.hotpath` — the fast path against the slow path on a
  warm repeated-query workload;
* :mod:`~repro.bench.listing` — list/resolve on the tree index against
  the scan-only baseline;
* :mod:`~repro.bench.branching` — replayable audit on a zero-copy branch;
* :mod:`~repro.bench.qos` — one abusive tenant against 9k victims;
* :mod:`~repro.bench.scaleout` — read throughput at 1 to 8 shards;
* :mod:`~repro.bench.failover` — kill the leader of a replica group;
* :mod:`~repro.bench.chaos` — goodput/p99 under deterministic fault
  injection (takes ``--seeds`` instead of ``--seed``).
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

__all__ = [
    "ClosedLoopResult",
    "DbServerModel",
    "LatencyModel",
    "ascii_bar_chart",
    "cdf",
    "paper_row",
    "percentile",
    "render_metrics",
    "render_table",
    "run_closed_loop",
    "summarize",
]
