"""What every workload provides to the runner."""

from __future__ import annotations

import os
import resource
from typing import Callable, Optional, Sequence

from ..harness import Request, Window, closed_loop, requests_sha256
from ..tracing import Patches, Tracer


class Workload:
    """One named traffic mix over one estate.

    Constructing a workload generates its inputs from the seed (the
    estate model and every request, with the oracle's expectations) and
    touches no program code; :meth:`setup` then builds the live estate
    through the public API, and is what ``setup_s`` times.
    """

    name = ""
    why = ""
    #: latency class -> the request kinds pooled into it
    classes: dict[str, tuple[str, ...]] = {}
    #: request kinds that commit; defaults to the ``write`` class
    write_kinds: Optional[tuple[str, ...]] = None
    #: the layer groups this workload exists to stress, and the share of
    #: the traced profile they are meant to hold (None: see the README)
    intended: tuple[tuple[str, ...], Optional[float]] = ((), None)
    #: closed-loop driver threads (each owns one request stream)
    lanes = 1
    #: the outermost spans on a driver thread; their durations add up to
    #: the time a request spends inside the program
    root_spans: tuple[str, ...] = ("json.decode", "rest", "json.encode")

    def __init__(self, seed: int):
        self.seed = seed
        #: one cyclic request stream per lane, and what warms the caches
        self.streams: list[list[Request]] = []
        self.warm_stream: list[Request] = []
        self.cursors = [0] * self.lanes
        self.tracer: Optional[Tracer] = None
        self.patches = Patches()
        self._affinity: Optional[set[int]] = None
        #: leg timings the cluster's wrappers fill in (traced pass only)
        self.leg_stats: dict = {}
        #: audit records present when the warm-up began
        self.audit_baseline = 0

    # -- inputs --------------------------------------------------------------

    def issued(self) -> list[tuple[list[Request], int]]:
        """Every cyclic stream with how many of its requests were sent."""
        return list(zip(self.streams, self.cursors))

    def inputs_sha256(self) -> str:
        return requests_sha256(
            [self.warm_stream, *(stream for stream, _ in self.issued())])

    # -- life cycle (implemented per workload) ---------------------------------

    def setup(self, tracer: Optional[Tracer]) -> None:
        raise NotImplementedError

    def issuers(self) -> Sequence[Callable[[Request], tuple[float, bool]]]:
        raise NotImplementedError

    def counters(self) -> dict[str, float]:
        """The program's public counters, summed over its services."""
        raise NotImplementedError

    def span_totals(self) -> dict[str, list]:
        return self.tracer.snapshot()

    def write_spans(self, path: str) -> int:
        return self.tracer.write_spans(path)

    def driver_extras(self, window: Window) -> dict[str, float]:
        """Per-layer values only the driver can see (bytes, connections,
        leg timings) over the traced ``window``."""
        return {}

    def audit_records(self) -> int:
        """Audit records the program holds now (all services)."""
        return int(self.counters()["audit_records"])

    def expected_audit_records(self) -> int:
        """Records the requests issued so far must have left."""
        total = sum(r.audit for r in self.warm_stream)
        for stream, cursor in self.issued():
            cycles, rest = divmod(cursor, len(stream))
            total += cycles * sum(r.audit for r in stream)
            total += sum(r.audit for r in stream[:rest])
        return total

    def verify(self) -> list[str]:
        """End-state oracle; returns one line per mismatch."""
        grown = self.audit_records() - self.audit_baseline
        expected = self.expected_audit_records()
        if grown != expected:
            return [f"audit log grew by {grown} records, requests account "
                    f"for {expected}"]
        return []

    def pin(self) -> None:
        """Run on one CPU: this thread, the threads it starts and the
        processes it spawns from now on.

        The threads of one interpreter pass the GIL to each other on
        every hop, and a client and its server pass every request across
        a socket; on this two-vCPU sandbox both hand-overs cost a halted
        CPU's wake-up when the parties sit on different CPUs (cluster_mixed:
        650 ops/s on two CPUs against 2,000 on one; http_serving: medians
        flipping between 1.4 and 3.4 ms from window to window against a
        steady 1.5 ms). One CPU measures the work, not the wake-ups.
        """
        if hasattr(os, "sched_setaffinity") and self._affinity is None:
            self._affinity = set(os.sched_getaffinity(0))
            os.sched_setaffinity(0, {max(self._affinity)})

    def teardown(self) -> None:
        self.patches.restore()
        if self._affinity is not None:
            os.sched_setaffinity(0, self._affinity)
            self._affinity = None

    def peak_rss_mb(self) -> float:
        """Peak resident set so far of the process the program runs in."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- driving ---------------------------------------------------------------

    def warm_up(self) -> int:
        """Send the warm-up stream once (a fixed amount of work, so the
        caches and the resident set are the same on every run); returns
        the number of responses the oracle rejected."""
        issue = self.issuers()[0]
        self.audit_baseline = self.audit_records()
        return sum(1 for request in self.warm_stream if not issue(request)[1])

    def window(self, seconds: float, closed_only: bool = False) -> dict[str, Window]:
        """One measured window, by phase. ``closed_only`` (the traced
        pass) leaves out any open-loop phase: per-request layer times are
        read against one closed loop's requests."""
        begin = self.tracer.begin_request if self.tracer is not None else None
        # a single traced lane sends whole passes over its stream, so the
        # counts of the traced pass repeat exactly from run to run
        return {"closed": closed_loop(
            self.issuers(), self.streams, self.cursors, seconds, begin,
            whole_passes=closed_only and self.lanes == 1)}
