"""Spans recorded from outside the program, and the wrappers that record them.

No file under ``src/`` knows about this module. A layer is timed by
replacing a public entry point *on an instance the benchmark built*
(or, for the two per-request objects the program constructs itself, on
the class or module) with a wrapper that opens a span, and by handing
the program proxies through its existing ``store=`` / ``store_factory=``
arguments. :class:`Patches` remembers every replacement so the pass can
put the originals back.

A span is ``(id, parent, request, name, start, end)``. A name's *self
time* is its spans' durations minus the part covered by child spans;
work handed to another thread (the serving tier's shard workers) is
credited to the handing span as a child, so the self times along one
request's blocking path add up to the request's time.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Any, Callable, Iterable


class _ThreadState:
    __slots__ = ("stack", "request", "parent", "totals", "spans", "legs")

    def __init__(self):
        self.stack: list[list] = []
        self.request = -1
        #: span that handed this thread its work (cross-thread parent)
        self.parent = 0
        self.totals: dict[str, list] = {}
        self.spans: list[tuple] = []
        #: shard-worker legs of the request open on this thread
        self.legs: list[list] = []


class Tracer:
    """In-memory span recorder with per-name self-time totals.

    ``keep_requests`` bounds the span *list* (what :meth:`write_spans`
    emits) to the first N numbered requests; the totals cover every span,
    those of unnumbered work (the warm-up) included.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 keep_requests: int = 500):
        self.clock = clock
        self.keep_requests = keep_requests
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        #: name -> [span count, self seconds, total seconds]
        self.totals: dict[str, list] = {}
        self.spans: list[tuple] = []

    def state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
        return state

    def begin_request(self, request: int) -> None:
        """Spans opened on this thread from now on belong to ``request``."""
        self.state().request = request

    def enter(self, name: str) -> list:
        state = self.state()
        stack = state.stack
        parent = stack[-1][3] if stack else state.parent
        # [name, start, child seconds, id, parent id]
        frame = [name, 0.0, 0.0, next(self._ids), parent]
        stack.append(frame)
        frame[1] = self.clock()
        return frame

    def exit(self, frame: list) -> float:
        """Close ``frame`` (the innermost open span); returns its duration."""
        end = self.clock()
        state = self.state()
        stack = state.stack
        stack.pop()
        duration = end - frame[1]
        total = state.totals.get(frame[0])
        if total is None:
            total = state.totals[frame[0]] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration - frame[2]
        total[2] += duration
        if stack:
            stack[-1][2] += duration
        if 0 <= state.request < self.keep_requests:
            state.spans.append(
                (frame[3], frame[4], state.request, frame[0], frame[1], end)
            )
        if not stack:
            self._flush(state)
        return duration

    def _flush(self, state: _ThreadState) -> None:
        with self._lock:
            for name, (count, self_s, total_s) in state.totals.items():
                total = self.totals.setdefault(name, [0, 0.0, 0.0])
                total[0] += count
                total[1] += self_s
                total[2] += total_s
            self.spans.extend(state.spans)
        state.totals = {}
        state.spans = []

    def snapshot(self) -> dict[str, list]:
        with self._lock:
            return {name: list(total) for name, total in self.totals.items()}

    def write_spans(self, path: str) -> int:
        with self._lock:
            spans = list(self.spans)
        with open(path, "w") as out:
            for span_id, parent, request, name, start, end in spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "request": request,
                    "layer": name, "start": start, "end": end,
                }) + "\n")
        return len(spans)


def pick(totals: dict[str, list], *prefixes: str) -> tuple[int, float]:
    """``(span count, self seconds)`` over the names that are one of
    ``prefixes`` or lie below one (``"auth"`` covers ``"auth.visible"``)."""
    count, seconds = 0, 0.0
    for name, total in totals.items():
        if any(name == p or name.startswith(p + ".") for p in prefixes):
            count += total[0]
            seconds += total[1]
    return count, seconds


def timed(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """``fn`` wrapped in a span called ``name``."""
    enter, leave = tracer.enter, tracer.exit

    def wrapper(*args, **kwargs):
        frame = enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            leave(frame)

    wrapper.__wrapped__ = fn
    return wrapper


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._undo: list[tuple[Any, str, bool, Any]] = []

    def set(self, obj: Any, attr: str, value: Any) -> None:
        had = attr in vars(obj)
        self._undo.append((obj, attr, had, vars(obj).get(attr)))
        setattr(obj, attr, value)

    def time(self, tracer: Tracer, obj: Any, attr: str, name: str) -> None:
        """Wrap ``obj.attr`` (a method, function or bound method)."""
        self.set(obj, attr, timed(tracer, name, getattr(obj, attr)))

    def restore(self) -> None:
        for obj, attr, had, original in reversed(self._undo):
            if had:
                setattr(obj, attr, original)
            else:
                delattr(obj, attr)
        self._undo.clear()


# ---------------------------------------------------------------------------
# proxies handed to the program through its own arguments
# ---------------------------------------------------------------------------


def _proxy(class_name: str, methods: Iterable[str], materialize: Iterable[str] = ()):
    """A delegating proxy class whose listed methods open a span named
    ``<prefix>.<method>``; everything else passes straight through."""
    methods = tuple(methods)
    lazy = frozenset(materialize)

    def make(method: str):
        def call(self, *args, **kwargs):
            tracer = self._tracer
            frame = tracer.enter(self._names[method])
            try:
                result = getattr(self._inner, method)(*args, **kwargs)
                if method in lazy:
                    # backends answer scans with generators: do the read
                    # inside the span, hand back an iterator as before
                    result = iter(list(result))
                return self._wrap_result(method, result)
            finally:
                tracer.exit(frame)

        call.__name__ = method
        return call

    def __init__(self, inner, tracer: Tracer, prefix: str):
        self._inner = inner
        self._tracer = tracer
        self._prefix = prefix
        self._names = {m: f"{prefix}.{m}" for m in methods}

    def __getattr__(self, name):
        return getattr(self._inner, name)

    namespace: dict[str, Any] = {m: make(m) for m in methods}
    namespace.update(
        __init__=__init__, __getattr__=__getattr__,
        _wrap_result=lambda self, method, result: result,
    )
    return type(class_name, (), namespace)


_SCANS = ("scan", "scan_prefix", "scan_range")
_SNAPSHOT_READS = ("get", "multi_get", "count", "child_id", "children_ids",
                   "count_children") + _SCANS

#: the ``Snapshot`` contract
TimedSnapshot = _proxy("TimedSnapshot", _SNAPSHOT_READS, materialize=_SCANS)

#: ``SnapshotView`` (the uncached read path); built by the ``view``
#: wrapper from what ``kernel.view`` returns
TimedView = _proxy(
    "TimedView",
    ("entity_by_id", "entity_by_name", "children", "entities", "resolve_path",
     "overlapping_assets", "grants_on", "prefetch_rows", "row", "rows",
     "ancestors", "full_name"),
    materialize=("entities", "rows"),
)


class TimedStore(_proxy(
    "_TimedStoreBase",
    ("snapshot", "current_version", "commit", "changes_since"),
)):
    """The ``MetadataStore`` contract with a span around each call.

    Passed through the program's ``store=`` / ``store_factory=``
    arguments. ``snapshots=False`` times the store-level calls only and
    hands snapshots back unwrapped (used around ``ReplicatingStore``,
    whose snapshots are the inner store's and already timed there).
    """

    def __init__(self, inner, tracer: Tracer, prefix: str = "persistence",
                 snapshots: bool = True):
        super().__init__(inner, tracer, prefix)
        self._snapshots = snapshots

    def _wrap_result(self, method: str, result):
        if method == "snapshot" and self._snapshots:
            return TimedSnapshot(result, self._tracer, self._prefix)
        return result


#: span names that make up ``persistence.read_us``
STORE_READS = tuple(
    f"persistence.{m}" for m in ("snapshot", "current_version") + _SNAPSHOT_READS
)


# ---------------------------------------------------------------------------
# wrappers around the program's public entry points
# ---------------------------------------------------------------------------


def trace_service(tracer: Tracer, patches: Patches, service) -> None:
    """Install the per-layer wrappers on one ``UnityCatalogService``.

    Call after the metastore exists (the cache node and the decision
    bundle are created with it). The store proxy is not installed here:
    it goes in through the constructor's ``store=`` argument.
    """
    from repro.core.view import SnapshotView

    time_ = patches.time
    time_(tracer, service.pipeline, "dispatch", "pipeline")

    original_view = service.view

    def view(metastore_id):
        result = None
        frame = tracer.enter("kernel.view")
        try:
            result = original_view(metastore_id)
        finally:
            if type(result) is SnapshotView:
                # snapshot builds are counted from the type returned
                frame[0] = "kernel.view.snapshot"
            tracer.exit(frame)
        if type(result) is SnapshotView:
            return TimedView(result, tracer, "view")
        return result

    patches.set(service, "view", view)
    time_(tracer, service, "_resolve", "kernel.resolve")
    time_(tracer, service, "_authorize", "kernel.authorize")
    time_(tracer, service, "_mutate", "kernel.mutate")
    time_(tracer, service, "_audit", "audit.kernel")
    for method in ("authorize", "visible", "fgac_rules_for", "identities"):
        time_(tracer, service.authorizer, method, f"auth.{method}")
    time_(tracer, service.vendor, "vend", "vending")
    time_(tracer, service.audit, "record", "audit.record")
    time_(tracer, service.events, "publish", "events")
    for metastore_id in service.metastore_ids():
        bundle = service.hot_caches(metastore_id)
        if bundle is not None:
            time_(tracer, bundle, "sync", "cache.decisions.sync")
            time_(tracer, bundle, "note_commit", "cache.decisions.note_commit")
        node = service.cache_node(metastore_id)
        if node is not None:
            time_(tracer, node, "view", "cache.node.view")
            time_(tracer, node, "commit", "cache.node.commit")


def trace_globals(tracer: Tracer, patches: Patches) -> None:
    """Wrap the two things the program builds per request itself: the
    batch resolver (constructed inside the endpoint handler) and branch
    snapshots (opened by the kernel through ``branching.branch_snapshot``)."""
    from repro.core.persistence import branching
    from repro.core.service.batch import QueryResolver

    patches.time(tracer, QueryResolver, "resolve", "batch")
    original = branching.branch_snapshot

    def branch_snapshot(*args, **kwargs):
        frame = tracer.enter("persistence.branching.open")
        try:
            snapshot = original(*args, **kwargs)
        finally:
            tracer.exit(frame)
        return TimedSnapshot(snapshot, tracer, "persistence.branching")

    patches.set(branching, "branch_snapshot", branch_snapshot)


def trace_cluster(tracer: Tracer, patches: Patches, cluster, tier) -> dict:
    """Wrap routing, the worker hop and 2PC on a cluster behind a tier.

    Work placed on a shard worker stays part of its request: the worker
    adopts the request id and its run is a ``serve.run`` span; the
    handing side's ``serve.hop`` span (synchronous legs) or ``cluster``
    span (asynchronous fan-out legs) is credited with it as child time.
    Returns the leg statistics the wrappers fill in.
    """
    clock = tracer.clock
    lock = threading.Lock()
    stats = {"legs": 0, "hop_s": 0.0, "run_s": 0.0,
             "multi_leg_requests": 0, "slowest_leg_s": 0.0}

    def placed(fn, request, parent, leg):
        origin = threading.get_ident()

        def run():
            if threading.get_ident() == origin:
                return fn()  # the pool ran it inline: same thread, same span
            leg[1] = clock()
            state = tracer.state()
            state.request, state.parent = request, parent
            frame = tracer.enter("serve.run")
            try:
                return fn()
            finally:
                tracer.exit(frame)
                leg[2] = clock()

        return run

    original_run_on, original_submit_on = tier.run_on, tier.submit_on

    def run_on(shard_name, fn):
        state = tracer.state()
        frame = tracer.enter("serve.hop")
        leg = [frame[1], 0.0, 0.0, False]  # submitted, started, ended, async
        state.legs.append(leg)
        try:
            return original_run_on(
                shard_name, placed(fn, state.request, frame[3], leg))
        finally:
            # the worker's run is this span's child; what is left is the
            # hand-over itself (queueing, wake-up, passing the result)
            frame[2] += leg[2] - leg[1]
            tracer.exit(frame)

    def submit_on(shard_name, fn):
        state = tracer.state()
        parent = state.stack[-1][3] if state.stack else 0
        leg = [clock(), 0.0, 0.0, True]
        state.legs.append(leg)
        return original_submit_on(
            shard_name, placed(fn, state.request, parent, leg))

    patches.set(tier, "run_on", run_on)
    patches.set(tier, "submit_on", submit_on)

    original_dispatch = cluster.dispatch

    def dispatch(api, **params):
        state = tracer.state()
        state.legs = []
        frame = tracer.enter("cluster")
        try:
            return original_dispatch(api, **params)
        finally:
            legs = [leg for leg in state.legs if leg[2]]  # crossed threads
            parallel = [leg for leg in legs if leg[3]]
            if parallel:
                # the request waited from the first submit until the
                # last parallel leg ended
                frame[2] += (max(leg[2] for leg in parallel)
                             - min(leg[0] for leg in parallel))
            with lock:
                stats["legs"] += len(legs)
                stats["hop_s"] += sum(leg[1] - leg[0] for leg in legs)
                stats["run_s"] += sum(leg[2] - leg[1] for leg in legs)
                if len(legs) > 1:
                    stats["multi_leg_requests"] += 1
                    stats["slowest_leg_s"] += max(l[2] - l[0] for l in legs)
            tracer.exit(frame)

    patches.set(cluster, "dispatch", dispatch)
    for method in ("begin", "commit", "abort"):
        patches.time(tracer, cluster.coordinator, method,
                     f"cluster.twophase.{method}")
    return stats
