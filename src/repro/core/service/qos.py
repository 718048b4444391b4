"""Multi-tenant QoS: admission control, weighted fair queuing, shedding.

One abusive workload must not starve every other tenant's interactive
queries on the shared metadata hot path (paper §"serving at scale";
ROADMAP "heavy traffic from millions of users"). This module is the
scheduler the request pipeline installs *early* in every endpoint's
interceptor chain — after observation/audit-commit (so shed requests are
still metered and leave an ``allowed=False`` audit record) and before
authn/resolution (so over-budget work is rejected before it costs
anything):

* **Token-bucket admission.** Each tenant has a bucket (``burst``
  capacity, ``refill_rate`` sustained) charged in *cost units* from the
  measured-work cost model (authorizer evaluations, store reads, scan
  rows — the same deltas ``bench/scaleout`` charges to its simulated
  servers). Admission charges a per-endpoint estimate; after the handler
  runs, :meth:`QosScheduler.settle` reconciles the bucket with the
  measured cost, so a request that scanned 10k rows pays for 10k rows
  even though admission only saw "one read".
* **Weighted fair queues, deficit-round-robin.** Over-budget requests
  queue per priority class (``interactive`` / ``batch`` /
  ``background``) in per-lane queues (one lane per shard under the
  cluster router, a single ``main`` lane standalone). Queues drain in
  DRR order — each class earns ``quantum * weight`` deficit per round —
  onto the lane's *excess* capacity, the slice of simulated DB capacity
  left over after the admitted band. Waits are charged to the injected
  clock (``SimClock.advance``), never slept, so same-seed runs are
  byte-identical.
* **Bounded shedding.** When a class queue is at ``max_queue_depth`` or
  the lane's drain backlog exceeds ``max_queue_delay`` (simulated DB
  saturation), the request is shed with
  :class:`~repro.errors.TenantThrottledError` — HTTP 429 plus a
  ``Retry-After`` computed from the bucket's refill arithmetic, so
  well-behaved clients come back exactly when capacity exists.

Lock hierarchy: the scheduler has exactly one lock (:attr:`_lock`),
taken for the duration of one admit/settle bookkeeping step and never
while calling out — it nests strictly *inside* every pipeline/cluster
lock and therefore slots in as a leaf next to the metrics and SimClock
locks (see ``repro/serve/tier.py``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Mapping, Optional, Sequence

from repro.clock import Clock
from repro.errors import InvalidRequestError, TenantThrottledError

#: Priority classes, in fixed DRR visit order (deterministic).
INTERACTIVE = "interactive"
BATCH = "batch"
BACKGROUND = "background"
PRIORITY_CLASSES = (INTERACTIVE, BATCH, BACKGROUND)

#: Bucket charged when a request has no principal (internal calls).
SYSTEM_TENANT = "system"


@dataclass(frozen=True)
class QosConfig:
    """Scheduler knobs. Cost unit = one point-read-equivalent.

    The defaults describe one service node: an admitted band of
    ``capacity_rate`` units/s reserved for in-budget traffic, plus an
    ``excess_rate`` leftover band that drains the fair queues. Buckets
    are sized so the sum of sustained tenant rates on a node stays under
    the admitted band; queues absorb bursts; shedding bounds everything
    else.
    """

    enabled: bool = True
    #: per-tenant sustained rate (cost units / second)
    refill_rate: float = 50.0
    #: per-tenant burst allowance (bucket capacity, cost units)
    burst: float = 100.0
    #: admitted-band capacity per lane (cost units / second)
    capacity_rate: float = 2000.0
    #: leftover capacity per lane draining the fair queues
    excess_rate: float = 400.0
    #: bound on queued requests per (lane, class)
    max_queue_depth: int = 32
    #: one tenant's maximum share of a (lane, class) queue — keeps an
    #: abusive tenant from occupying a whole queue and getting *victims'*
    #: over-budget requests shed alongside its own
    max_tenant_queue_share: float = 0.25
    #: simulated-DB saturation bound: shed when a lane's excess-band
    #: drain backlog exceeds this many seconds
    max_queue_delay: float = 5.0
    #: DRR quantum (cost units earned per class per round)
    quantum: float = 4.0
    class_weights: Mapping[str, float] = field(
        default_factory=lambda: {INTERACTIVE: 8.0, BATCH: 3.0, BACKGROUND: 1.0}
    )
    #: per-class p99 latency SLOs (seconds) — the bench gate's bounds
    class_slo: Mapping[str, float] = field(
        default_factory=lambda: {INTERACTIVE: 0.2, BATCH: 1.0, BACKGROUND: 5.0}
    )
    default_class: str = INTERACTIVE
    #: static tenant -> priority class assignment (travels through REST
    #: unchanged, since the tenant is just the request principal)
    tenant_class: Mapping[str, str] = field(default_factory=dict)
    #: admission-time cost estimates, reconciled by settle()
    read_cost: float = 1.0
    mutation_cost: float = 3.0
    #: measured-work cost model (mirrors bench/scaleout's charges)
    cost_base: float = 1.0
    cost_auth: float = 0.1
    cost_read: float = 1.0
    cost_scan_row: float = 0.01
    #: Retry-After clamp
    min_retry_after: float = 0.05
    max_retry_after: float = 60.0

    def __post_init__(self):
        for name in ("refill_rate", "burst", "capacity_rate", "excess_rate",
                     "quantum", "max_queue_delay"):
            if getattr(self, name) <= 0:
                raise InvalidRequestError(f"{name} must be > 0")
        if self.max_queue_depth < 0:
            raise InvalidRequestError("max_queue_depth must be >= 0")
        for cls in self.class_weights:
            if cls not in PRIORITY_CLASSES:
                raise InvalidRequestError(f"unknown priority class: {cls}")
        for cls, cls_name in self.tenant_class.items():
            if cls_name not in PRIORITY_CLASSES:
                raise InvalidRequestError(
                    f"unknown priority class for {cls!r}: {cls_name}"
                )

    def class_of(self, tenant: str, requested: Optional[str] = None) -> str:
        if requested is not None:
            if requested not in PRIORITY_CLASSES:
                raise InvalidRequestError(
                    f"unknown priority class: {requested}"
                )
            return requested
        return self.tenant_class.get(tenant, self.default_class)

    def measured_cost(self, before: tuple, after: tuple) -> float:
        """Cost units for the work between two :func:`work_snapshot`\\ s."""
        evals = after[0] - before[0]
        reads = after[1] - before[1]
        rows = after[2] - before[2]
        return (self.cost_base + evals * self.cost_auth
                + reads * self.cost_read + rows * self.cost_scan_row)


def work_snapshot(service) -> tuple:
    """Counters the measured-work cost model charges from.

    The same signals ``bench/scaleout`` converts into simulated CPU/DB
    time: authorization evaluations, store reads (snapshot opens and
    ``multi_get`` calls), and scan rows examined. Every store keeps
    these counters.
    """
    auth = service.authorizer
    store = service.store
    return (
        auth.evaluations + auth.identity_expansions,
        store.read_count + store.multi_get_count,
        store.scan_row_count,
    )


class TokenBucket:
    """A clock-driven token bucket in cost units.

    ``charge`` may push the level negative (settle() reconciling a
    request that measured heavier than its admission estimate); the
    debt delays future refill, which is exactly the intent.
    """

    __slots__ = ("capacity", "rate", "level", "updated", "_lock")

    def __init__(self, capacity: float, rate: float, now: float):
        self.capacity = capacity
        self.rate = rate
        self.level = capacity
        self.updated = now
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        if now > self.updated:
            self.level = min(self.capacity,
                             self.level + (now - self.updated) * self.rate)
        self.updated = max(self.updated, now)

    def try_charge(self, now: float, cost: float) -> bool:
        with self._lock:
            self._refill(now)
            if self.level >= cost:
                self.level -= cost
                return True
            return False

    def charge(self, now: float, cost: float) -> None:
        """Unconditional deduction (reconciliation); may go negative."""
        with self._lock:
            self._refill(now)
            self.level -= cost

    def delay_until(self, now: float, cost: float) -> float:
        """Seconds until the bucket could afford ``cost``."""
        with self._lock:
            self._refill(now)
            if self.level >= cost:
                return 0.0
            return (cost - self.level) / self.rate

    def peek(self, now: float) -> float:
        with self._lock:
            self._refill(now)
            return self.level


class _Entry:
    """One queued request in a lane's fair queue."""

    __slots__ = ("cost", "tenant", "ready")

    def __init__(self, cost: float, tenant: str):
        self.cost = cost
        self.tenant = tenant
        self.ready: Optional[float] = None


class _Lane:
    """Per-shard queue accounting: one admitted band, one excess band,
    one DRR-drained fair queue per priority class."""

    __slots__ = ("name", "queues", "deficits", "admitted_free",
                 "excess_free", "assigned")

    def __init__(self, name: str):
        self.name = name
        self.queues: dict[str, list[_Entry]] = {
            cls: [] for cls in PRIORITY_CLASSES
        }
        self.deficits: dict[str, float] = {
            cls: 0.0 for cls in PRIORITY_CLASSES
        }
        #: absolute time the admitted band is next free
        self.admitted_free = 0.0
        #: absolute time the excess (queue-drain) band is next free
        self.excess_free = 0.0
        #: ``(ready, tenant)`` of drained-but-still-waiting entries, per
        #: class — they occupy queue-depth slots until their time arrives
        self.assigned: dict[str, list[tuple[float, str]]] = {
            cls: [] for cls in PRIORITY_CLASSES
        }

    def depth(self, cls: str, now: float) -> int:
        """Requests of ``cls`` currently waiting in this lane."""
        heap = self.assigned[cls]
        while heap and heap[0][0] <= now:
            heappop(heap)
        return len(self.queues[cls]) + len(heap)

    def tenant_depth(self, cls: str, tenant: str, now: float) -> int:
        """Slots ``tenant`` holds in this lane's ``cls`` queue."""
        heap = self.assigned[cls]
        while heap and heap[0][0] <= now:
            heappop(heap)
        return (sum(1 for entry in self.queues[cls]
                    if entry.tenant == tenant)
                + sum(1 for _, t in heap if t == tenant))

    def backlog(self, now: float, excess_rate: float) -> float:
        """Seconds of excess-band work ahead of a new queued request."""
        pending = sum(e.cost for q in self.queues.values() for e in q)
        return max(self.excess_free - now, 0.0) + pending / excess_rate

    def has_queued(self) -> bool:
        return any(self.queues[cls] for cls in PRIORITY_CLASSES)


class Grant:
    """The scheduler's verdict on one admitted or queued request."""

    __slots__ = ("tenant", "cls", "cost", "wait", "queued", "issued_at",
                 "lanes", "_settled")

    def __init__(self, tenant: str, cls: str, cost: float, wait: float,
                 queued: bool, issued_at: float, lanes: tuple[str, ...]):
        self.tenant = tenant
        self.cls = cls
        self.cost = cost
        self.wait = wait
        self.queued = queued
        self.issued_at = issued_at
        self.lanes = lanes
        self._settled = False


class QosScheduler:
    """Admission control + weighted fair queuing over named lanes.

    Standalone services run one lane (``main``); the cluster router runs
    one lane per shard and admits each logical request exactly once —
    scatter fan-outs split the cost estimate across their lanes instead
    of charging the tenant once per shard.
    """

    def __init__(
        self,
        config: QosConfig,
        clock: Clock,
        metrics=None,
        lanes: Sequence[str] = ("main",),
    ):
        if not lanes:
            raise InvalidRequestError("need at least one lane")
        self.config = config
        self.clock = clock
        self._lock = threading.Lock()
        self._buckets: dict[str, TokenBucket] = {}
        #: grants awaiting resolve(), mapped to their queue entries
        self._pending: dict[Grant, list] = {}
        self._lanes: dict[str, _Lane] = {name: _Lane(name) for name in lanes}
        #: plain counters, always kept (bench fingerprints; metrics may
        #: be absent)
        self.admitted: dict[str, int] = {}
        self.queued: dict[str, int] = {}
        self.shed: dict[str, int] = {}
        self._admitted_metric = self._queued_metric = self._shed_metric = None
        self._depth_metric = self._latency_metric = None
        if metrics is not None:
            self._admitted_metric = metrics.counter(
                "uc_qos_admitted_total",
                "Requests admitted within the tenant's budget.",
                ("tenant",),
            )
            self._queued_metric = metrics.counter(
                "uc_qos_queued_total",
                "Over-budget requests placed in a weighted fair queue.",
                ("tenant",),
            )
            self._shed_metric = metrics.counter(
                "uc_qos_shed_total",
                "Requests shed with 429 + Retry-After.",
                ("tenant",),
            )
            self._depth_metric = metrics.gauge(
                "uc_qos_queue_depth",
                "Fair-queue depth by lane and priority class.",
                ("lane", "qos_class"),
            )
            self._latency_metric = metrics.histogram(
                "uc_qos_class_latency_seconds",
                "End-to-end request latency by priority class (SLO metric).",
                ("qos_class",),
            )

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    @property
    def lane_names(self) -> tuple[str, ...]:
        return tuple(self._lanes)

    # -- inspection (property tests, benches) ---------------------------

    def queue_depth(self, lane: str = "main",
                    cls: str = INTERACTIVE) -> int:
        with self._lock:
            return self._lanes[lane].depth(cls, self.clock.now())

    def backlog(self, lane: str = "main") -> float:
        with self._lock:
            return self._lanes[lane].backlog(self.clock.now(),
                                             self.config.excess_rate)

    def bucket_level(self, tenant: str) -> float:
        now = self.clock.now()
        with self._lock:
            bucket = self._buckets.get(tenant)
        if bucket is None:
            return self.config.burst
        return bucket.peek(now)

    def snapshot(self) -> dict:
        """Counters for bench fingerprints (deterministic ordering)."""
        with self._lock:
            return {
                "admitted": dict(sorted(self.admitted.items())),
                "queued": dict(sorted(self.queued.items())),
                "shed": dict(sorted(self.shed.items())),
            }

    # -- the hot path ---------------------------------------------------

    def acquire(
        self,
        tenant: Optional[str],
        api: str,
        *,
        mutation: bool = False,
        requested_class: Optional[str] = None,
        lanes: Optional[Sequence[str]] = None,
        cost: Optional[float] = None,
    ) -> Grant:
        """Admit, queue, or shed one request; returns a :class:`Grant`.

        ``grant.wait`` is the seconds the caller must charge to the
        clock before proceeding (0 for an uncontended admit). Raises
        :class:`TenantThrottledError` on shed.
        """
        ticket = self.submit(tenant, api, mutation=mutation,
                             requested_class=requested_class, lanes=lanes,
                             cost=cost)
        return self.resolve(ticket)

    def submit(
        self,
        tenant: Optional[str],
        api: str,
        *,
        mutation: bool = False,
        requested_class: Optional[str] = None,
        lanes: Optional[Sequence[str]] = None,
        cost: Optional[float] = None,
    ) -> Grant:
        """Phase one: meter the bucket, enqueue or shed. The grant's
        ``wait`` is final for admitted requests; queued requests get
        their drain slot in :meth:`resolve` (split so concurrent
        arrivals land in the queues before DRR ordering is decided)."""
        config = self.config
        tenant = tenant or SYSTEM_TENANT
        cls = config.class_of(tenant, requested_class)
        if cost is None:
            cost = config.mutation_cost if mutation else config.read_cost
        now = self.clock.now()
        with self._lock:
            lane_objs = self._resolve_lanes(lanes)
            bucket = self._bucket_locked(tenant, now)
            if bucket.try_charge(now, cost):
                # in budget: occupy the admitted band of each lane
                share = cost / len(lane_objs)
                ready = now
                for lane in lane_objs:
                    lane.admitted_free = (
                        max(lane.admitted_free, now)
                        + share / config.capacity_rate
                    )
                    ready = max(ready, lane.admitted_free)
                self.admitted[tenant] = self.admitted.get(tenant, 0) + 1
                if self._admitted_metric is not None:
                    self._admitted_metric.inc(tenant=tenant)
                return Grant(tenant, cls, cost, ready - now, False, now,
                             tuple(lane.name for lane in lane_objs))
            # over budget: bounded queue or shed
            tenant_cap = max(
                1, int(config.max_queue_depth * config.max_tenant_queue_share)
            )
            for lane in lane_objs:
                if lane.backlog(now, config.excess_rate) > config.max_queue_delay:
                    self._shed(tenant, api, cls, cost, now, bucket,
                               "saturated")
                if lane.depth(cls, now) >= config.max_queue_depth:
                    self._shed(tenant, api, cls, cost, now, bucket,
                               "queue_full")
                if lane.tenant_depth(cls, tenant, now) >= tenant_cap:
                    self._shed(tenant, api, cls, cost, now, bucket,
                               "queue_full")
            share = cost / len(lane_objs)
            entries = []
            for lane in lane_objs:
                entry = _Entry(share, tenant)
                lane.queues[cls].append(entry)
                entries.append((lane, entry))
            self.queued[tenant] = self.queued.get(tenant, 0) + 1
            if self._queued_metric is not None:
                self._queued_metric.inc(tenant=tenant)
            if self._depth_metric is not None:
                for lane in lane_objs:
                    self._depth_metric.set(lane.depth(cls, now), lane=lane.name,
                                           qos_class=cls)
            grant = Grant(tenant, cls, cost, 0.0, True, now,
                          tuple(lane.name for lane in lane_objs))
            self._pending[grant] = entries
            return grant

    def resolve(self, grant: Grant) -> Grant:
        """Phase two: drain the fair queues DRR and fix the grant's wait."""
        if not grant.queued:
            return grant
        now = self.clock.now()
        with self._lock:
            entries = self._pending.pop(grant, None)
            if entries is None:  # already resolved
                return grant
            ready = now
            for lane, entry in entries:
                self._drain_lane_locked(lane, now)
                if entry.ready is None:  # pragma: no cover - drain invariant
                    raise InvalidRequestError("queued entry not drained")
                heappush(lane.assigned[grant.cls], (entry.ready, grant.tenant))
                ready = max(ready, entry.ready)
            grant.wait = ready - now
        return grant

    def settle(self, grant: Grant, measured_cost: Optional[float] = None,
               now: Optional[float] = None) -> None:
        """Reconcile the tenant's bucket with the measured request cost
        and record the class latency. Idempotent per grant."""
        if grant._settled:
            return
        grant._settled = True
        if now is None:
            now = self.clock.now()
        if measured_cost is not None:
            extra = measured_cost - grant.cost
            if extra > 0:
                with self._lock:
                    bucket = self._bucket_locked(grant.tenant, now)
                bucket.charge(now, extra)
        if self._latency_metric is not None:
            self._latency_metric.observe(max(now - grant.issued_at, 0.0),
                                         qos_class=grant.cls)

    # -- internals ------------------------------------------------------

    def _resolve_lanes(self, lanes: Optional[Sequence[str]]) -> list[_Lane]:
        if lanes is None:
            return list(self._lanes.values())
        out = []
        for name in lanes:
            lane = self._lanes.get(name)
            if lane is None:
                raise InvalidRequestError(f"unknown QoS lane: {name}")
            out.append(lane)
        if not out:
            raise InvalidRequestError("request resolved to no QoS lane")
        return out

    def _bucket_locked(self, tenant: str, now: float) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = self._buckets[tenant] = TokenBucket(
                self.config.burst, self.config.refill_rate, now
            )
        return bucket

    def _shed(self, tenant: str, api: str, cls: str, cost: float,
              now: float, bucket: TokenBucket, reason: str) -> None:
        self.shed[tenant] = self.shed.get(tenant, 0) + 1
        if self._shed_metric is not None:
            self._shed_metric.inc(tenant=tenant)
        config = self.config
        retry_after = round(
            min(max(bucket.delay_until(now, cost), config.min_retry_after),
                config.max_retry_after),
            3,
        )
        raise TenantThrottledError(
            f"tenant {tenant!r} throttled on {api} "
            f"(class {cls}, {reason}); retry after {retry_after}s",
            retry_after_seconds=retry_after,
            reason=reason,
        )

    def _drain_lane_locked(self, lane: _Lane, now: float) -> None:
        """Assign ready times to every queued entry, DRR order.

        Each visit earns a class ``quantum * weight`` deficit; entries
        pop while their cost fits, consuming the lane's excess band.
        The deficit of an emptied class resets so idle classes cannot
        hoard credit (standard DRR).
        """
        config = self.config
        weights = config.class_weights
        base = max(lane.excess_free, now)
        while lane.has_queued():
            for cls in PRIORITY_CLASSES:
                queue = lane.queues[cls]
                if not queue:
                    lane.deficits[cls] = 0.0
                    continue
                lane.deficits[cls] += config.quantum * weights.get(cls, 1.0)
                index = 0
                while index < len(queue) and \
                        queue[index].cost <= lane.deficits[cls]:
                    entry = queue[index]
                    lane.deficits[cls] -= entry.cost
                    base += entry.cost / config.excess_rate
                    entry.ready = base
                    index += 1
                del queue[:index]
        lane.excess_free = base


__all__ = [
    "BACKGROUND",
    "BATCH",
    "Grant",
    "INTERACTIVE",
    "PRIORITY_CLASSES",
    "QosConfig",
    "QosScheduler",
    "SYSTEM_TENANT",
    "TokenBucket",
    "work_snapshot",
]
