"""A sharded Unity Catalog cluster.

``CatalogCluster`` partitions securables across N shard nodes by
**catalog**: a securable's route key is the first segment of its full
name, hashed through the best-effort sharding directory (rendezvous
hashing + explicit pins). Each shard is a complete
:class:`~repro.core.service.catalog_service.UnityCatalogService` with
its own metadata store, cache node and fast-path caches; the cluster
owns what spans shards:

* **routing** — every endpoint declares its placement via the
  :class:`~repro.core.service.registry.ClusterBinding` on its
  descriptor; the cluster interprets the resulting
  :class:`~repro.core.service.registry.RouteDecision` generically
  (single shard, home, scatter-gather, broadcast, probe, partition,
  catalog move);
* **replication** — metastore-scope state (the metastore root,
  credentials, locations, connections, shares, recipients, lineage,
  metastore-scope policies) is broadcast to every shard under the
  two-phase coordinator, so each shard can validate and authorize
  locally;
* **degradation** — every shard sits behind a circuit breaker; when a
  shard goes dark, ``stale_ok`` reads fall back to the router's
  last-known-good response cache instead of erroring, while writes fail
  fast with the breaker's retryable error;
* **invalidation** — after any cross-shard mutation the cluster drops
  the stale-read entries of the involved shards and streams their new
  change-log entries to the shards' followers.
"""

from __future__ import annotations

import inspect
import threading
from typing import Any, Callable, Iterator, Optional

from repro.clock import Clock, SimClock
from repro.cloudstore.object_store import ObjectStore
from repro.cloudstore.sts import StsTokenIssuer
from repro.core.auth.principals import PrincipalDirectory
from repro.core.model.entity import Entity, new_entity_id
from repro.core.persistence.memory import InMemoryMetadataStore
from repro.core.persistence.store import MetadataStore
from repro.core.service.catalog_service import UnityCatalogService
from repro.core.service.pipeline import extract_branch_params
from repro.core.service.qos import QosConfig, QosScheduler, work_snapshot
from repro.core.service.registry import (
    ClusterBinding,
    EndpointDescriptor,
    RouteDecision,
)
from repro.errors import (
    CircuitOpenError,
    InvalidRequestError,
    NotFoundError,
    PartialBroadcastError,
    StorageUnavailableError,
    TransientError,
)
from repro.obs import Observability
from repro.resilience import CircuitBreaker, Retrier, RetryPolicy, charge

from .rebalance import CatalogMigration
from .replication import ReadSession, ReplicaGroup, ReplicatingStore
from .routing import ShardRouter
from .twophase import CatalogMove, TwoPhaseCoordinator


def _freeze(value: Any) -> Any:
    """A hashable rendering of request params (stale-read cache keys)."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(repr(v) for v in value))
    try:
        hash(value)
    except TypeError:
        return repr(value)
    return value


class ShardNode:
    """One shard: a replica group of full catalog services.

    ``service`` and ``breaker`` resolve to the *current leader's*, so
    every existing call site (2PC legs, probes, migrations) follows a
    failover transparently; reads may additionally fan out over the
    group's followers via the cluster's read path.
    """

    __slots__ = ("name", "group")

    def __init__(self, name: str, group: ReplicaGroup):
        self.name = name
        self.group = group

    @property
    def service(self) -> UnityCatalogService:
        return self.group.leader().service

    @property
    def breaker(self) -> CircuitBreaker:
        return self.group.leader().breaker

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardNode({self.name!r})"


class CatalogCluster:
    """N catalog shards behind one request router."""

    def __init__(
        self,
        shard_count: int = 1,
        *,
        clock: Optional[Clock] = None,
        store_factory: Optional[Callable[[int], MetadataStore]] = None,
        directory: Optional[PrincipalDirectory] = None,
        obs: Optional[Observability] = None,
        faults=None,
        retry_policy: Optional[RetryPolicy] = None,
        enable_cache: bool = True,
        enable_fast_path: Optional[bool] = None,
        read_version_check: bool = False,
        request_timeout: Optional[float] = None,
        breaker_reset_timeout: float = 30.0,
        stale_cache_size: int = 1024,
        replicas_per_shard: int = 1,
        read_preference: str = "leader",
        lease_duration: float = 2.0,
        replica_log_capacity: int = 4096,
        txn_log_retention: int = 1024,
        qos=None,
    ):
        if shard_count < 1:
            raise InvalidRequestError("shard_count must be >= 1")
        if replicas_per_shard < 1:
            raise InvalidRequestError("replicas_per_shard must be >= 1")
        self.clock = clock or SimClock()
        self.obs = obs or Observability(clock=self.clock)
        self.faults = faults
        self.directory = directory or PrincipalDirectory()
        self.retry_policy = retry_policy or RetryPolicy()
        metrics = self.obs.metrics
        # shared dependencies: one object store and one STS issuer, so a
        # subtree migrated between shards keeps governing the same data
        self.object_store = ObjectStore(faults=faults)
        self.sts = StsTokenIssuer(
            clock=self.clock, faults=faults,
            retrier=Retrier(self.retry_policy, self.clock, metrics=metrics,
                            tracer=self.obs.tracer, component="sts",
                            seed=0x57A7),
        )
        # a 1-arg factory is called once per replica (each call must
        # return a fresh store); a 2-arg factory also sees the replica
        # index, for backends that need distinct paths per replica
        factory_arity = 0
        if store_factory is not None:
            try:
                factory_arity = len(
                    inspect.signature(store_factory).parameters
                )
            except (TypeError, ValueError):  # pragma: no cover - builtins
                factory_arity = 1
        self._shards: list[ShardNode] = []
        for index in range(shard_count):
            name = f"shard-{index}"
            group = ReplicaGroup(
                name,
                clock=self.clock,
                metrics=metrics,
                tracer=self.obs.tracer,
                faults=faults,
                lease_duration=lease_duration,
                seed=0x1EA5E ^ (index * 0x9E37),
                log_capacity=replica_log_capacity,
            )
            for rindex in range(replicas_per_shard):
                rname = f"r{rindex}"
                if store_factory is None:
                    inner = InMemoryMetadataStore()
                elif factory_arity >= 2:
                    inner = store_factory(index, rindex)
                else:
                    inner = store_factory(index)
                wrapped = ReplicatingStore(inner, group, rname)
                service = UnityCatalogService(
                    store=wrapped,
                    directory=self.directory,
                    clock=self.clock,
                    object_store=self.object_store,
                    sts=self.sts,
                    obs=Observability(clock=self.clock),
                    retry_policy=self.retry_policy,
                    faults=faults,
                    enable_cache=enable_cache,
                    enable_fast_path=enable_fast_path,
                    read_version_check=read_version_check,
                    request_timeout=request_timeout,
                )
                breaker = CircuitBreaker(
                    self.clock,
                    failure_threshold=3,
                    reset_timeout=breaker_reset_timeout,
                    metrics=metrics,
                    name=(f"shard.{name}" if rindex == 0
                          else f"shard.{name}.{rname}"),
                    failure_types=(TransientError,),
                )
                # replica 0 serves on the shard's own worker so worker
                # placement (and worker_wrap hooks) stay shard-keyed
                worker = name if rindex == 0 else f"{name}:{rname}"
                group.add_replica(rname, worker, wrapped, service, breaker)
            group.seal()
            self._shards.append(ShardNode(name, group))
        self._by_name = {shard.name: shard for shard in self._shards}
        self.router = ShardRouter([shard.name for shard in self._shards],
                                  read_preference=read_preference)
        # one cluster-wide scheduler, one lane per shard: a tenant's
        # token bucket is global (scatter fan-outs charge once), while
        # queue accounting — depth bounds, DRR drains, saturation — is
        # per shard lane. Shard services are built with qos=None above,
        # so admission happens exactly once, here at the router.
        if isinstance(qos, QosConfig):
            qos = QosScheduler(
                qos, self.clock, metrics=metrics,
                lanes=[shard.name for shard in self._shards],
            ) if qos.enabled else None
        self.qos = qos
        self.coordinator = TwoPhaseCoordinator(
            self.clock, metrics=metrics, log_retention=txn_log_retention
        )
        #: last-known-good responses for ``stale_ok`` reads, keyed by
        #: (shard, api, frozen params); consulted only when the owning
        #: shard is dark. LRU-bounded (insertion order + touch-on-use):
        #: a long-lived read-heavy router must not accumulate one entry
        #: per principal/param shape forever.
        self._stale: dict[tuple, Any] = {}
        self._stale_cache_size = max(1, stale_cache_size)
        #: guards the stale-read LRU — touched from every dispatching
        #: thread once a serving runtime fans requests out in parallel
        self._lock = threading.Lock()
        #: optional parallel serving runtime (see :mod:`repro.serve`);
        #: ``None`` keeps dispatch sequential and deterministic
        self._runtime = None
        # a dedicated retrier so shard-dispatch retry jitter never
        # perturbs the shards' own storage/STS retry streams
        self._retrier = Retrier(self.retry_policy, self.clock,
                                metrics=metrics, tracer=self.obs.tracer,
                                component="shard", seed=0x5AAD)
        self._requests = metrics.counter(
            "uc_shard_requests_total",
            "Requests dispatched to shards, by shard and routing mode.",
            ("shard", "mode"),
        )
        self._fanout = metrics.counter(
            "uc_shard_fanout_total",
            "Requests fanned out to multiple shards, by routing mode.",
            ("mode",),
        )
        self._stale_reads = metrics.counter(
            "uc_shard_stale_reads_total",
            "Reads served from the last-known-good cache (shard dark).",
            ("shard",),
        )
        self._migration_stages = metrics.counter(
            "uc_shard_migrations_total",
            "Rebalance migration steps completed, by stage.",
            ("stage",),
        )
        self._replica_reads = metrics.counter(
            "uc_replica_reads_total",
            "Reads served per replica, by its role at serving time.",
            ("shard", "replica", "role"),
        )
        metrics.register_collector(self._collect_placement)
        metrics.register_collector(self._collect_replicas)

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------

    @property
    def shards(self) -> list[ShardNode]:
        return list(self._shards)

    @property
    def home(self) -> ShardNode:
        """The home shard: metastore-scope reads are answered here."""
        return self._shards[0]

    def shard_named(self, name: str) -> ShardNode:
        try:
            return self._by_name[name]
        except KeyError:
            raise InvalidRequestError(f"no such shard: {name}")

    def shard_count(self) -> int:
        return len(self._shards)

    def worker_names(self) -> list[str]:
        """Serving-tier worker names: one per replica (replica 0 of each
        shard keeps the shard's own name, so shard-keyed placement and
        ``worker_wrap`` hooks are unchanged for single-replica clusters)."""
        return [replica.worker for shard in self._shards
                for replica in shard.group.replicas]

    def read_session(self) -> ReadSession:
        """A read-your-writes session token: pass it to :meth:`dispatch`
        as ``_session`` and follower reads will never serve state older
        than the session's last write."""
        return ReadSession()

    def metastore_id(self, name: str) -> str:
        return self.home.service.metastore_id(name)

    def count_migration_stage(self, stage: str) -> None:
        self._migration_stages.labels(stage=stage).inc()

    # ------------------------------------------------------------------
    # serving runtime
    # ------------------------------------------------------------------

    def attach_runtime(self, runtime) -> None:
        """Install a parallel serving runtime (:mod:`repro.serve`).

        With a runtime attached, per-shard work executes on that shard's
        dedicated worker and scatter/broadcast fan-outs dispatch
        concurrently and join. Without one (the default), dispatch stays
        sequential and deterministic — simulated benches and the
        enumerated-interleaving tests rely on that.
        """
        self._runtime = runtime

    def detach_runtime(self) -> None:
        self._runtime = None

    def run_on_shard(self, name: str, fn: Callable[[], Any]) -> Any:
        """Execute ``fn`` on the named shard's worker (inline when no
        runtime is attached, or when already on that shard's worker)."""
        runtime = self._runtime
        if runtime is None:
            return fn()
        return runtime.run_on(name, fn)

    def _run_fanout(self, tasks, *, stop_on_error: bool = False):
        """Run ``(shard_name, thunk)`` tasks, returning ordered
        ``(ok, value_or_exc)`` pairs.

        Sequential without a runtime — short-circuiting after the first
        failure when ``stop_on_error`` so partial-broadcast semantics
        match the single-threaded cluster exactly. With a runtime, every
        task is submitted to its shard's worker up front and joined in
        task order; all legs run even if an early one fails, but the
        caller still sees failures in deterministic task order.
        """
        runtime = self._runtime
        if runtime is None:
            outcomes = []
            for name, thunk in tasks:
                try:
                    outcomes.append((True, thunk()))
                except Exception as exc:
                    outcomes.append((False, exc))
                    if stop_on_error:
                        break
            return outcomes
        futures = [runtime.submit_on(name, thunk) for name, thunk in tasks]
        outcomes = []
        for future in futures:
            try:
                outcomes.append((True, future.result()))
            except Exception as exc:
                outcomes.append((False, exc))
        return outcomes

    def _collect_placement(self) -> Iterator[tuple[str, dict, float]]:
        """Scrape-time export: active catalogs resident on each shard."""
        for shard in self._shards:
            count = 0
            for mid in shard.service.metastore_ids():
                snapshot = shard.service.store.snapshot(mid)
                # catalogs hang directly off the metastore root: one
                # range count over the tree index
                count += snapshot.count_children(mid, "CATALOG")
            yield ("uc_shard_catalogs", {"shard": shard.name}, float(count))

    def _collect_replicas(self) -> Iterator[tuple[str, dict, float]]:
        """Scrape-time export of replica-group health (only when shards
        actually run replicated — single-replica clusters stay silent)."""
        for shard in self._shards:
            if not shard.group.replicated:
                continue
            for status in shard.group.status():
                labels = {"shard": shard.name, "replica": status["replica"]}
                yield ("uc_replica_role", labels,
                       1.0 if status["role"] == "leader" else 0.0)
                yield ("uc_replica_lag_entries", labels,
                       float(status["lag"]))
                yield ("uc_replica_crashed", labels,
                       1.0 if status["crashed"] else 0.0)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def dispatch(self, api: str, **params: Any) -> Any:
        """Route one endpoint call to the shard(s) that own its state.

        Two reserved kwargs thread replica-read semantics through without
        touching endpoint signatures: ``_session`` (a
        :class:`~repro.core.cluster.replication.ReadSession`, giving the
        caller read-your-writes across follower reads) and
        ``_read_preference`` (``leader`` / ``follower`` /
        ``nearest_fresh``, overriding the router's default for this call).
        """
        session = params.pop("_session", None)
        preference = params.pop("_read_preference", None)
        qos_class = params.pop("_qos_class", None)
        # normalize catalog@branch name suffixes BEFORE placement, so the
        # route key is the plain catalog and the branch context travels as
        # the explicit reserved kwarg to whichever shard owns the catalog
        branch = extract_branch_params(params)
        if branch is not None:
            params["_branch"] = branch
        descriptor = self.home.service.api_registry.get(api)
        binding = descriptor.cluster
        decision = binding.plan(params) if binding is not None \
            else RouteDecision.home()
        # QoS admission happens once per *logical* request, here at the
        # router, with the involved shards as lanes — a scatter fan-out
        # charges the tenant's (global) bucket once, split across lanes
        grant = None
        involved: Optional[list[ShardNode]] = None
        if self.qos is not None and self.qos.enabled:
            lanes = self._qos_lanes(decision, descriptor, params)
            involved = ([self._by_name[name] for name in lanes]
                        if lanes is not None else list(self._shards))
            grant = self.qos.acquire(
                params.get(descriptor.principal_param), api,
                mutation=descriptor.mutation,
                requested_class=qos_class, lanes=lanes,
            )
            if grant.wait > 0:
                charge(self.clock, grant.wait)
            before = [work_snapshot(shard.service) for shard in involved]
        try:
            result = self._route_decision(
                api, descriptor, binding, decision, params,
                session, preference,
            )
        finally:
            if grant is not None:
                after = [work_snapshot(shard.service) for shard in involved]
                measured = sum(
                    self.qos.config.measured_cost(b, a)
                    for b, a in zip(before, after)
                ) - (len(involved) - 1) * self.qos.config.cost_base
                self.qos.settle(grant, measured)
        return result

    def _qos_lanes(self, decision, descriptor,
                   params: dict[str, Any]) -> Optional[list[str]]:
        """Lane names (shards) a routed request will occupy; None = all."""
        if decision.kind == "home":
            return [self.home.name]
        if decision.kind == "catalog":
            shard = self._shard_for_key(params["metastore_id"],
                                        decision.key,
                                        write=descriptor.mutation)
            return [shard.name]
        # scatter / broadcast / probe / partition / move touch (up to)
        # every shard — charge each lane its share
        return None

    def _route_decision(self, api, descriptor, binding, decision,
                        params, session, preference):
        with self.obs.tracer.span("uc.shard.dispatch", api=api,
                                  mode=decision.kind):
            if decision.kind == "home":
                return self._single(self.home, descriptor, binding, params,
                                    mode="home", session=session,
                                    preference=preference)
            if decision.kind == "catalog":
                shard = self._shard_for_key(params["metastore_id"],
                                            decision.key,
                                            write=descriptor.mutation)
                return self._single(shard, descriptor, binding, params,
                                    mode="catalog", session=session,
                                    preference=preference)
            if decision.kind == "scatter":
                return self._scatter(descriptor, binding, params, decision,
                                     session, preference)
            if decision.kind == "broadcast":
                return self._broadcast(descriptor, binding, params, session)
            if decision.kind == "probe":
                return self._probe(descriptor, binding, params, decision,
                                   session, preference)
            if decision.kind == "partition":
                return self._partition(descriptor, binding, params, decision,
                                       session, preference)
            if decision.kind == "move":
                return CatalogMove(
                    self, params["metastore_id"], params["principal"],
                    decision.key, decision.new_key,
                ).execute()
            raise InvalidRequestError(
                f"unknown route decision: {decision.kind}"
            )  # pragma: no cover - registry invariant

    def _shard_for_key(self, metastore_id: str, key: str,
                       write: bool) -> ShardNode:
        if write:
            return self.shard_named(
                self.router.resolve_for_write(metastore_id, key)
            )
        return self.shard_named(self.router.owner_for(metastore_id, key))

    def _single(self, shard: ShardNode, descriptor: EndpointDescriptor,
                binding: Optional[ClusterBinding], params: dict,
                mode: str, session=None, preference=None) -> Any:
        """Dispatch to one shard: mutations go to the replica group's
        fenced leader, reads walk the group's read candidates and —
        when every replica is dark — ``stale_ok`` reads degrade to the
        last-known-good response."""
        self._requests.labels(shard=shard.name, mode=mode).inc()
        if descriptor.mutation:
            return self._write_single(shard, descriptor, params, session)
        return self._read_single(shard, descriptor, binding, params,
                                 session, preference)

    def _write_single(self, shard: ShardNode,
                      descriptor: EndpointDescriptor, params: dict,
                      session) -> Any:
        """One-shard mutation: dispatched to the current leader, whose
        store-level fencing token rejects it if leadership moved while it
        was in flight. When the leader is down and no successor can be
        promoted yet, this fails fast with ``LeaseExpiredError`` — the
        write-unavailability window is the lease window, not a retry
        budget. Mutations are never replayed by the router: the shard's
        own commit loop absorbs transient store faults, and a
        router-level replay could double-apply."""
        leader = shard.group.leader_for_write()

        def attempt():
            if self.faults is not None:
                self.faults.raise_for(f"shard.{shard.name}.dispatch")
            return leader.service.dispatch(descriptor.name, **params)

        def guarded():
            return leader.breaker.call(attempt)

        # with a serving runtime attached, the work runs on the leader
        # replica's dedicated worker thread
        result = self.run_on_shard(leader.worker, guarded)
        self.after_mutation([shard], params.get("metastore_id"),
                            session=session)
        return result

    def _read_single(self, shard: ShardNode,
                     descriptor: EndpointDescriptor,
                     binding: Optional[ClusterBinding], params: dict,
                     session, preference) -> Any:
        """One-shard read over the replica group.

        Candidates are tried in preference order; each gets the shard
        retrier's full transient budget (for a single-replica group this
        is byte-identical to the pre-replication read path). A follower
        candidate first passes the group's read-lease / read-your-writes
        check — waiting (catching up from the log) when it is behind, and
        failing over to the next candidate (proxy) when it cannot.
        """
        group = shard.group
        stale_ok = binding is not None and binding.stale_ok
        stale_key = (
            (shard.name, descriptor.name, _freeze(params)) if stale_ok else None
        )
        metastore_id = params.get("metastore_id")
        min_version = (session.min_version(metastore_id, shard.name)
                       if session is not None else None)
        candidates = group.read_candidates(
            preference or self.router.read_preference
        )
        last_exc: Optional[TransientError] = None
        for replica in candidates:
            def attempt(replica=replica):
                if self.faults is not None:
                    self.faults.raise_for(f"shard.{shard.name}.dispatch")
                group.check_read(replica, metastore_id, min_version)
                return replica.service.dispatch(descriptor.name, **params)

            def guarded(replica=replica, attempt=attempt):
                return replica.breaker.call(attempt)

            def placed(replica=replica, guarded=guarded):
                return self.run_on_shard(replica.worker, guarded)

            try:
                result = self._retrier.call(placed, retryable=_retryable)
            except TransientError as exc:
                last_exc = exc
                continue
            if group.replicated:
                role = ("leader" if replica is group.leader()
                        else "follower")
                self._replica_reads.labels(
                    shard=shard.name, replica=replica.name, role=role,
                ).inc()
            if stale_key is not None:
                self._stale_put(stale_key, result)
            return result
        # every candidate failed (or none was live): a stale_ok read
        # serves the last known good answer instead of surfacing the
        # outage
        if stale_key is not None:
            hit, value = self._stale_touch(stale_key)
            if hit:
                self._stale_reads.labels(shard=shard.name).inc()
                return value
        if last_exc is not None:
            raise last_exc
        raise StorageUnavailableError(
            f"shard {shard.name}: no live replicas"
        )

    def _stale_touch(self, key: tuple) -> tuple[bool, Any]:
        """Serve a cached answer (moving it to the LRU tail) if present.
        The lookup and touch are one critical section — another thread
        may evict the key between a bare check and the pop."""
        with self._lock:
            if key not in self._stale:
                return False, None
            value = self._stale.pop(key)
            self._stale[key] = value
            return True, value

    def _stale_put(self, key: tuple, value: Any) -> None:
        with self._lock:
            self._stale.pop(key, None)
            self._stale[key] = value
            while len(self._stale) > self._stale_cache_size:
                self._stale.pop(next(iter(self._stale)))

    def _scatter(self, descriptor, binding, params, decision,
                 session=None, preference=None) -> Any:
        self._fanout.labels(mode="scatter").inc()
        tasks = [
            (shard.name,
             lambda shard=shard: self._single(shard, descriptor, binding,
                                              params, mode="scatter",
                                              session=session,
                                              preference=preference))
            for shard in self._shards
        ]
        outcomes = self._run_fanout(tasks, stop_on_error=True)
        results = []
        for ok, value in outcomes:
            if not ok:
                raise value
            results.append(value)
        return decision.merge(results, params)

    def _broadcast(self, descriptor, binding, params, session=None) -> Any:
        """A replicated write: prepare on the home shard (full
        validation), commit on the rest. Ids are pre-minted so every
        shard stores identical rows. Every per-shard leg lands on that
        shard's *leader*, whose fencing token is checked at commit time."""
        if binding is not None:
            for mint in binding.mint_params:
                params.setdefault(mint, new_entity_id())
        target = params.get(descriptor.target_param or "", descriptor.name)
        txn = self.coordinator.begin(
            "broadcast", descriptor.name,
            keys=(f"broadcast:{descriptor.name}:{target}",),
            participants=tuple(shard.name for shard in self._shards),
        )
        self._fanout.labels(mode="broadcast").inc()
        try:
            self._requests.labels(shard=self.home.name, mode="broadcast").inc()
            home_leader = self.home.group.leader()
            result = self.run_on_shard(
                home_leader.worker,
                lambda: home_leader.service.dispatch(descriptor.name,
                                                     **params),
            )
        except Exception as exc:
            self.coordinator.abort(txn, f"{type(exc).__name__}: {exc}")
            raise
        # create_metastore mints its metastore id into params; every other
        # replicated write carries it, but fall back to the result in case
        # a future binding mints something else
        metastore_id = params.get("metastore_id") or getattr(
            result, "metastore_id", None
        )
        replicas = self._shards[1:]

        def leg(shard: ShardNode):
            self._requests.labels(shard=shard.name, mode="broadcast").inc()
            return shard.service.dispatch(descriptor.name, **params)

        outcomes = self._run_fanout(
            [(shard.group.leader().worker, lambda shard=shard: leg(shard))
             for shard in replicas],
            stop_on_error=True,
        )
        applied = [self.home]
        failure: Optional[tuple[ShardNode, Exception]] = None
        for shard, (ok, value) in zip(replicas, outcomes):
            if ok:
                applied.append(shard)
            elif failure is None:
                failure = (shard, value)
        if failure is not None:
            # the home shard (and possibly other replicas) committed but
            # this one did not. Roll nothing back — the applied writes
            # are durable — but abort the txn so its key lock is released
            # (later broadcasts of the key must not wedge), put the
            # partial state on the transaction record, and surface the
            # divergence as an explicit, non-retryable error.
            shard, exc = failure
            txn.details.update(
                applied=tuple(s.name for s in applied),
                failed=shard.name,
                error=f"{type(exc).__name__}: {exc}",
            )
            self.coordinator.abort(
                txn,
                f"partial commit: replica {shard.name} failed after "
                f"{len(applied)} shard(s): {type(exc).__name__}: {exc}",
            )
            self.after_mutation(applied, metastore_id, session=session)
            raise PartialBroadcastError(
                f"{descriptor.name}: replica {shard.name} failed after "
                f"the write applied on "
                f"{', '.join(s.name for s in applied)}: {exc}"
            ) from exc
        self.coordinator.commit(txn)
        self.after_mutation(self._shards, metastore_id, session=session)
        return result

    def _probe(self, descriptor, binding, params, decision,
               session=None, preference=None) -> Any:
        """Dispatch to the shard(s) whose local state recognises the
        request; fall back to the home shard when none do, so the caller
        gets the canonical error and exactly one error audit record."""
        self._fanout.labels(mode="probe").inc()
        metastore_id = params["metastore_id"]
        matches = [
            shard for shard in self._shards
            if decision.probe(shard.service.view(metastore_id), params)
        ]
        if not matches:
            return self._single(self.home, descriptor, binding, params,
                                mode="probe", session=session,
                                preference=preference)
        if not decision.all_matches:
            return self._single(matches[0], descriptor, binding, params,
                                mode="probe", session=session,
                                preference=preference)
        result = None
        for shard in matches:
            result = self._single(shard, descriptor, binding, params,
                                  mode="probe", session=session,
                                  preference=preference)
        return result

    def _partition(self, descriptor, binding, params, decision,
                   session=None, preference=None) -> Any:
        """Split a multi-name request into per-catalog sub-requests."""
        sub_params = decision.split(params)
        if not sub_params:
            return self._single(self.home, descriptor, binding, params,
                                mode="partition", session=session,
                                preference=preference)
        self._fanout.labels(mode="partition").inc()
        results = []
        for key in sorted(sub_params):
            shard = self._shard_for_key(params["metastore_id"], key,
                                        write=descriptor.mutation)
            results.append(
                self._single(shard, descriptor, binding, sub_params[key],
                             mode="partition", session=session,
                             preference=preference)
            )
        return decision.merge(results, params)

    # ------------------------------------------------------------------
    # cross-shard invalidation
    # ------------------------------------------------------------------

    def after_mutation(self, shards, metastore_id: Optional[str],
                       session=None) -> None:
        """Drop the involved shards' stale-read cache entries, stream
        their new change-log entries to their followers, and stamp the
        caller's read session for read-your-writes."""
        names = {shard.name for shard in shards}
        with self._lock:
            if self._stale:
                self._stale = {
                    key: value for key, value in self._stale.items()
                    if key[0] not in names
                }
        for shard in shards:
            shard.group.replicate()
        if metastore_id is not None and session is not None:
            for shard in shards:
                try:
                    version = shard.group.leader().store.current_version(
                        metastore_id
                    )
                except NotFoundError:
                    continue
                session.note_write(metastore_id, shard.name, version)

    # ------------------------------------------------------------------
    # rebalancing
    # ------------------------------------------------------------------

    def migrate_catalog(self, metastore_id: str, catalog_name: str,
                        target_shard: str) -> CatalogMigration:
        """Plan an online migration of one catalog subtree (call
        :meth:`CatalogMigration.run`, or drive the steps individually)."""
        return CatalogMigration(self, metastore_id, catalog_name, target_shard)

    def begin_catalog_move(self, metastore_id: str, principal: str,
                           name: str, new_name: str) -> CatalogMove:
        """A step-wise catalog rename (interleaving tests drive the
        prepare/commit phases explicitly)."""
        return CatalogMove(self, metastore_id, principal, name, new_name)

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------

    def create_metastore(self, name: str, owner: str,
                         region: str = "us-west") -> Entity:
        return self.dispatch("create_metastore", name=name, owner=owner,
                             region=region)


def _retryable(exc: BaseException) -> bool:
    # breaker-open must NOT be retried here: it propagates immediately so
    # stale_ok reads can degrade instead of waiting out the backoff
    return isinstance(exc, TransientError) and not isinstance(
        exc, CircuitOpenError
    )
