"""Service kernel: the request-independent machinery under every endpoint.

The kernel owns the infrastructure a multi-tenant catalog service needs
— the backing metadata store, per-metastore cache nodes and hot-path
cache bundles, the authorizer, audit log, change-event bus, object
store/STS/credential vendor, observability, and resilience plumbing —
plus the four request primitives every domain service is built from:

* :meth:`view` — a consistent read view (cached or snapshot-backed),
* :meth:`_resolve` — hot-cache-aware fully-qualified-name resolution,
* :meth:`_authorize` — the single decision point, audited,
* :meth:`_mutate` — the optimistic serializable commit loop (CAS retry
  on conflict, clock-charged backoff on transients, ambient-deadline
  aware).

Domain services (:mod:`repro.core.service.domains`) implement endpoint
handlers *on top of* these primitives; the request pipeline
(:mod:`repro.core.service.pipeline`) sequences them. The kernel never
imports a domain module — dependencies point strictly inward.
"""

from __future__ import annotations

import random as _random
import threading
from typing import Any, Callable, Optional

from repro.clock import Clock, WallClock
from repro.cloudstore.client import StorageClient
from repro.cloudstore.object_store import ObjectStore, StoragePath
from repro.cloudstore.sts import StsTokenIssuer, TemporaryCredential
from repro.core.assets.builtin import builtin_registry
from repro.core.audit import AuditLog
from repro.core.auth.authorizer import Authorizer
from repro.core.auth.principals import PrincipalDirectory
from repro.core.cache.decisions import HotPathCaches
from repro.core.cache.eviction import EvictionPolicy
from repro.core.cache.node import MetastoreCacheNode, ReconcileMode
from repro.core.events import ChangeEventBus
from repro.core.lineage import LineageGraph
from repro.core.model.entity import Entity, SecurableKind
from repro.core.model.naming import split_full_name
from repro.core.model.registry import AssetTypeRegistry
from repro.core.persistence import branching as _branching
from repro.core.persistence.memory import InMemoryMetadataStore
from repro.core.persistence.store import MetadataStore, Snapshot, WriteOp
from repro.core.service.pipeline import current_context, note_audit_record
from repro.core.service.qos import QosConfig, QosScheduler
from repro.core.vending import CredentialVendor
from repro.core.view import MetastoreView, SnapshotView
from repro.errors import (
    ConcurrentModificationError,
    DeadlineExceededError,
    InvalidRequestError,
    NotFoundError,
    PermissionDeniedError,
    TransientError,
)
from repro.obs import Observability
from repro.resilience import (
    Retrier,
    RetryPolicy,
    ambient_deadline,
    charge,
)

_MAX_COMMIT_RETRIES = 8


class ServiceKernel:
    """Infrastructure + request primitives shared by all domain services."""

    def __init__(
        self,
        store: Optional[MetadataStore] = None,
        registry: Optional[AssetTypeRegistry] = None,
        directory: Optional[PrincipalDirectory] = None,
        clock: Optional[Clock] = None,
        object_store: Optional[ObjectStore] = None,
        sts: Optional[StsTokenIssuer] = None,
        enable_cache: bool = True,
        reconcile_mode: ReconcileMode = ReconcileMode.SELECTIVE,
        eviction_policy_factory: Optional[Callable[[], EvictionPolicy]] = None,
        max_cached_entities: Optional[int] = None,
        managed_root: str = "s3://unity-managed",
        read_version_check: bool = True,
        rink_cache=None,
        obs: Optional[Observability] = None,
        retry_policy: Optional[RetryPolicy] = None,
        faults=None,
        enable_fast_path: Optional[bool] = None,
        request_timeout: Optional[float] = None,
        qos=None,
    ):
        """``read_version_check=False`` lets a node that knows it owns a
        metastore (sharding assignment) skip the per-read DB version probe
        and serve cache hits purely from memory; correctness still holds
        because every write CASes the metastore version (section 4.5).

        ``enable_fast_path`` toggles the version-pinned decision and
        resolution caches layered on top of the node cache (see
        :mod:`repro.core.cache.decisions`); it defaults to ``enable_cache``
        so the Figure 10(b) "without caching" baseline stays genuinely
        uncached.

        ``retry_policy`` governs transient-error retries across the
        service's dependencies (storage, STS, the backing metadata
        store); ``faults`` is an optional
        :class:`~repro.faults.FaultInjector` threaded into every
        service-constructed dependency for chaos experiments.

        ``request_timeout`` is the default per-request deadline (seconds)
        applied by the pipeline's deadline interceptor; individual calls
        can override it with the reserved ``_timeout`` dispatch kwarg.

        ``qos`` installs multi-tenant admission control: pass a
        :class:`~repro.core.service.qos.QosConfig` (a single-lane
        scheduler is built over this service's clock and metrics) or a
        ready :class:`~repro.core.service.qos.QosScheduler` (the cluster
        router shares one scheduler across shards; shard-local services
        then receive ``qos=None`` so a request is charged exactly
        once)."""
        self.clock = clock or WallClock()
        self.obs = obs or Observability(clock=self.clock)
        self.faults = faults
        self.retry_policy = retry_policy or RetryPolicy()
        self.request_timeout = request_timeout
        metrics = self.obs.metrics
        self.storage_retrier = Retrier(
            self.retry_policy, self.clock, metrics=metrics,
            tracer=self.obs.tracer, component="storage",
        )
        self._sts_retrier = Retrier(
            self.retry_policy, self.clock, metrics=metrics,
            tracer=self.obs.tracer, component="sts", seed=0x57A7,
        )
        self.store = store or InMemoryMetadataStore()
        self.registry = registry or builtin_registry()
        self.directory = directory or PrincipalDirectory()
        self.object_store = object_store or ObjectStore(faults=faults)
        self.sts = sts or StsTokenIssuer(
            clock=self.clock, faults=faults, retrier=self._sts_retrier
        )
        self.authorizer = Authorizer(self.registry, self.directory)
        self.audit = AuditLog()
        self.events = ChangeEventBus()
        self.lineage = LineageGraph()
        self.enable_cache = enable_cache
        self._reconcile_mode = reconcile_mode
        self._eviction_policy_factory = eviction_policy_factory
        self._max_cached_entities = max_cached_entities
        self._managed_root = StoragePath.parse(managed_root)
        self.object_store.ensure_bucket(self._managed_root.scheme, self._managed_root.bucket)
        self.vendor = CredentialVendor(
            self.sts, self.clock, managed_root_secret=self.sts.root_secret,
            rink_cache=rink_cache, obs=self.obs,
        )
        self.enable_fast_path = (
            enable_cache if enable_fast_path is None else enable_fast_path
        )
        self._nodes: dict[str, MetastoreCacheNode] = {}
        self._hot_caches: dict[str, HotPathCaches] = {}
        #: per-(metastore, branch-key) fast-path bundles — the branch
        #: dimension of the decision/resolution caches, built lazily on
        #: first branch read and dropped on merge/delete
        self._branch_hot_caches: dict[tuple[str, str], HotPathCaches] = {}
        self._metastore_names: dict[str, str] = {}
        self._read_version_check = read_version_check
        self._lock = threading.RLock()
        self._api_requests = metrics.counter(
            "uc_api_requests_total", "Catalog API calls by entry point.", ("api",)
        )
        self._api_errors = metrics.counter(
            "uc_api_errors_total", "Catalog API calls that raised.", ("api",)
        )
        self._api_latency = metrics.histogram(
            "uc_api_latency_seconds", "Catalog API latency by entry point.", ("api",)
        )
        self._commits_total = metrics.counter(
            "uc_store_commits_total", "Successful metadata-store commits."
        ).labels()
        self._commit_conflicts = metrics.counter(
            "uc_store_commit_conflicts_total", "Metadata CAS commit conflicts."
        ).labels()
        self._store_retries = metrics.counter(
            "uc_retries_total",
            "Transient-error retries by component.",
            ("component",),
        ).labels(component="metastore")
        self._store_retry_rng = _random.Random(0xCA7)
        if isinstance(qos, QosConfig):
            qos = QosScheduler(qos, self.clock, metrics=metrics) \
                if qos.enabled else None
        self.qos = qos
        metrics.register_collector(self._collect_core_stats)

    # ------------------------------------------------------------------
    # observability plumbing
    # ------------------------------------------------------------------

    def _collect_core_stats(self):
        """Scrape-time export of subsystem counters (zero hot-path cost)."""
        vending = self.vendor.stats
        store_stats = self.object_store.stats
        yield ("uc_credentials_minted_total", {}, vending.minted)
        yield ("uc_credential_cache_hits_total", {}, vending.cache_hits)
        yield ("uc_sts_tokens_minted_total", {}, self.sts.minted_count)
        yield ("uc_sts_validations_total", {}, self.sts.validated_count)
        yield ("uc_sts_denials_total", {}, self.sts.denied_count)
        yield ("uc_objectstore_gets_total", {}, store_stats.gets)
        yield ("uc_objectstore_puts_total", {}, store_stats.puts)
        yield ("uc_objectstore_conditional_puts_total", {},
               store_stats.conditional_puts)
        yield ("uc_objectstore_lists_total", {}, store_stats.lists)
        yield ("uc_objectstore_deletes_total", {}, store_stats.deletes)
        yield ("uc_objectstore_bytes_read_total", {}, store_stats.bytes_read)
        yield ("uc_objectstore_bytes_written_total", {}, store_stats.bytes_written)
        yield ("uc_store_multi_get_total", {},
               getattr(self.store, "multi_get_count", 0))
        yield ("uc_store_range_scans_total", {},
               getattr(self.store, "range_scan_count", 0))
        yield ("uc_store_scan_rows_total", {},
               getattr(self.store, "scan_row_count", 0))

    def _register_node_collector(self, name: str, node: MetastoreCacheNode) -> None:
        """Export one cache node's tier stats, labelled by metastore."""
        stats = node.stats
        labels = {"metastore": name, "tier": "node"}

        def collect():
            yield ("uc_cache_hits_total", labels, stats.hits)
            yield ("uc_cache_misses_total", labels, stats.misses)
            yield ("uc_cache_evictions_total", labels, stats.evictions)
            yield ("uc_cache_hit_rate", labels, stats.hit_rate)
            yield ("uc_cache_version_checks_total", labels, stats.version_checks)
            yield ("uc_cache_reconciles_total", labels, stats.reconciles)

        self.obs.metrics.register_collector(collect)

    def _register_hot_cache_collector(self, name: str, bundle: HotPathCaches) -> None:
        """Export one fast-path bundle's counters, labelled by metastore."""
        stats = bundle.stats
        labels = {"metastore": name}

        def collect():
            yield ("uc_authz_cache_hits_total", labels, stats.authz_hits)
            yield ("uc_authz_cache_misses_total", labels, stats.authz_misses)
            yield ("uc_resolution_cache_hits_total", labels, stats.resolution_hits)
            yield ("uc_resolution_cache_misses_total", labels,
                   stats.resolution_misses)
            yield ("uc_hot_cache_invalidations_total", labels, stats.invalidations)
            for cache, entries in bundle.sizes().items():
                yield ("uc_hot_cache_entries", {**labels, "cache": cache}, entries)

        self.obs.metrics.register_collector(collect)

    # ------------------------------------------------------------------
    # metastore bookkeeping
    # ------------------------------------------------------------------

    def _install_metastore(self, name: str, metastore_id: str) -> None:
        """Attach the per-metastore cache node and fast-path bundle.

        Called (under :attr:`_lock`) by the securables domain right after
        a metastore slot is created and committed.
        """
        self._metastore_names[name] = metastore_id
        if self.enable_cache:
            policy = (
                self._eviction_policy_factory()
                if self._eviction_policy_factory
                else None
            )
            node = MetastoreCacheNode(
                self.store,
                metastore_id,
                self.registry,
                clock=self.clock,
                reconcile_mode=self._reconcile_mode,
                eviction_policy=policy,
                max_cached_entities=self._max_cached_entities,
            )
            node.warm()
            self._nodes[metastore_id] = node
            self._register_node_collector(name, node)
        if self.enable_fast_path:
            bundle = HotPathCaches(
                metastore_id,
                self.store.current_version(metastore_id),
                lambda v, mid=metastore_id: self.store.changes_since(mid, v),
                lambda: self.directory.generation,
            )
            self._hot_caches[metastore_id] = bundle
            self._register_hot_cache_collector(name, bundle)

    def metastore_id(self, name: str) -> str:
        with self._lock:
            try:
                return self._metastore_names[name]
            except KeyError:
                raise NotFoundError(f"no such metastore: {name}")

    def metastore_ids(self) -> list[str]:
        with self._lock:
            return list(self._metastore_names.values())

    def cache_node(self, metastore_id: str) -> Optional[MetastoreCacheNode]:
        return self._nodes.get(metastore_id)

    def hot_caches(self, metastore_id: str) -> Optional[HotPathCaches]:
        """The fast-path bundle for a metastore (None with fast path off)."""
        return self._hot_caches.get(metastore_id)

    def _hot_caches_for(
        self, metastore_id: str, view: MetastoreView
    ) -> Optional[HotPathCaches]:
        """The fast-path bundle, synced to ``view``'s version — or None
        when the fast path is off or the view is pinned behind the bundle
        (then the caller recomputes; correctness never needs the cache).

        Branch views get their own per-branch bundle whose keys and
        ``changes_since`` replay carry the branch dimension: a branch
        bundle replays only the branch's overlay writes (main commits
        after the fork are invisible to the branch and must not touch
        its entries), and the main bundle never sees overlay records."""
        branch = getattr(view, "branch", None)
        if branch is not None:
            bundle = self._branch_caches_for(metastore_id, branch)
        else:
            bundle = self._hot_caches.get(metastore_id)
        if bundle is None:
            return None
        return bundle if bundle.sync(view.version) else None

    def _branch_caches_for(
        self, metastore_id: str, bkey: str
    ) -> Optional[HotPathCaches]:
        """The lazily-built fast-path bundle of one branch."""
        if not self.enable_fast_path:
            return None
        key = (metastore_id, bkey)
        with self._lock:
            bundle = self._branch_hot_caches.get(key)
            if bundle is None:
                bundle = HotPathCaches(
                    metastore_id,
                    _branching.resolve_head(self.store, metastore_id),
                    lambda v, mid=metastore_id, bk=bkey:
                        _branching.branch_changes_since(self.store, mid, bk, v),
                    lambda: self.directory.generation,
                )
                self._branch_hot_caches[key] = bundle
        return bundle

    def _drop_branch_caches(self, metastore_id: str, bkey: str) -> None:
        """Forget a merged/deleted branch's fast-path bundle."""
        with self._lock:
            self._branch_hot_caches.pop((metastore_id, bkey), None)

    def governed_client(self, credential: TemporaryCredential) -> StorageClient:
        """A storage client bound to ``credential`` and the service's
        retry policy — the constructor every in-process consumer (engine
        sessions, volumes, transactions, sharing) should use so storage
        transients are absorbed uniformly."""
        return StorageClient(
            self.object_store, self.sts, credential, retrier=self.storage_retrier
        )

    # ------------------------------------------------------------------
    # view / commit plumbing
    # ------------------------------------------------------------------

    def _request_pin(self) -> tuple[Optional[str], Optional[int]]:
        """The active request's ``(branch key, AS OF version)`` pin.

        Read from the thread's :func:`current_context`, so every legacy
        ``view()`` / ``_mutate()`` call site became branch-aware without
        a signature change. Off-request callers get the trunk head.
        """
        ctx = current_context()
        if ctx is None:
            return None, None
        return getattr(ctx, "branch", None), getattr(ctx, "at_version", None)

    def head_version(self, metastore_id: str, branch: Optional[str] = None) -> int:
        """The head version of a branch (``None`` = trunk) — the
        branch-resolution gate layers above persistence must use instead
        of ``store.current_version`` (``tools/arch_lint.py`` rule 5)."""
        return _branching.resolve_head(self.store, metastore_id, branch)

    def raw_snapshot(self, metastore_id: str) -> Snapshot:
        """A raw store snapshot honoring the request's branch/AS OF pin.

        Handlers that must read *below* the entity view (soft-deleted
        rows, key prefixes) go through this instead of
        ``store.snapshot`` so branch requests see their overlay.
        """
        branch, at_version = self._request_pin()
        if branch is None:
            return self.store.snapshot(metastore_id, at_version)
        return _branching.branch_snapshot(
            self.store, metastore_id, branch, at_version
        )

    def view(self, metastore_id: str) -> MetastoreView:
        """A consistent read view (cached or snapshot-backed).

        On the trunk with no ``AS OF`` pin this is exactly the legacy
        path (cache node or head snapshot — single-branch operation is a
        strict no-op). A branch or version pin resolves through
        :func:`~repro.core.persistence.branching.branch_snapshot`,
        falling through the overlay to the fork point.
        """
        branch, at_version = self._request_pin()
        if branch is None and at_version is None:
            node = self._nodes.get(metastore_id)
            if node is not None:
                return node.view(check_version=self._read_version_check)
            return SnapshotView(self.store.snapshot(metastore_id), self.registry)
        if branch is None:
            return SnapshotView(
                self.store.snapshot(metastore_id, at_version), self.registry
            )
        snapshot = _branching.branch_snapshot(
            self.store, metastore_id, branch, at_version
        )
        view = SnapshotView(snapshot, self.registry)
        view.branch = branch
        return view

    def _mutate(
        self,
        metastore_id: str,
        build: Callable[[MetastoreView], tuple[list[WriteOp], Any, list[tuple]]],
    ) -> Any:
        """Optimistic serializable write: validate against a fresh view,
        commit with CAS, retry from scratch on conflict.

        Two failure regimes, two recoveries: a CAS conflict means the
        metastore moved — rebuild against a fresh view and go again
        immediately; a transient store error (throttling, injected
        unavailability) means the backend is degraded — back off on the
        clock per :attr:`retry_policy` before retrying, bounded by the
        policy's attempt budget *and* the request's ambient deadline.

        ``build`` returns ``(ops, result, events)`` where each event is a
        ``(ChangeType, entity_id, kind, name, details)`` tuple published
        after the commit succeeds.

        On a branch request the same loop runs against the branch view
        and commits copy-on-write through
        :func:`~repro.core.persistence.branching.commit_to_branch`: the
        ops land in the branch's overlay tables (never touching main's
        rows or its caches) but still CAS the shared version counter, so
        branch and main writes serialize identically.
        """
        branch, at_version = self._request_pin()
        if at_version is not None:
            raise InvalidRequestError(
                "cannot mutate through an AS OF (version-pinned) request"
            )
        last_error: Optional[Exception] = None
        transient_failures = 0
        for _ in range(_MAX_COMMIT_RETRIES):
            view = self.view(metastore_id)
            ops, result, events = build(view)
            if not ops:
                return result
            node = self._nodes.get(metastore_id) if branch is None else None
            try:
                if self.faults is not None:
                    self.faults.raise_for("store.commit")
                if branch is not None:
                    new_version = _branching.commit_to_branch(
                        self.store, metastore_id, branch, view.version, ops
                    )
                elif node is not None:
                    new_version = node.commit(ops)
                else:
                    new_version = self.store.commit(metastore_id, view.version, ops)
            except ConcurrentModificationError as exc:
                self._commit_conflicts.inc()
                last_error = exc
                continue
            except TransientError as exc:
                transient_failures += 1
                if transient_failures >= self.retry_policy.max_attempts:
                    raise
                with self._lock:
                    # the jitter stream is shared by every mutating
                    # thread; Random must not interleave draws
                    delay = self.retry_policy.backoff(
                        transient_failures - 1, self._store_retry_rng
                    )
                request_deadline = ambient_deadline()
                if (request_deadline is not None
                        and self.clock.now() + delay > request_deadline):
                    raise DeadlineExceededError(
                        f"metastore commit: request deadline exhausted after "
                        f"{transient_failures} attempt(s): {exc}"
                    ) from exc
                self._store_retries.inc()
                charge(self.clock, delay)
                last_error = exc
                continue
            self._commits_total.inc()
            if branch is None:
                bundle = self._hot_caches.get(metastore_id)
            else:
                # fold into the branch's own bundle; main's bundle never
                # sees overlay writes (its changes_since replay skips
                # branch tables, so it stays coherent by construction)
                bundle = self._branch_hot_caches.get((metastore_id, branch))
            if bundle is not None:
                bundle.note_commit(ops, new_version)
            for change, entity_id, kind, name, details in events:
                if branch is not None:
                    details = dict(details or {})
                    details["branch"] = branch
                self.events.publish(
                    metastore_id,
                    new_version,
                    change,
                    entity_id,
                    kind,
                    name,
                    self.clock.now(),
                    details,
                )
            return result
        raise ConcurrentModificationError(
            f"write to metastore {metastore_id} kept conflicting: {last_error}"
        )

    # ------------------------------------------------------------------
    # name resolution
    # ------------------------------------------------------------------

    def _levels_for(self, kind: SecurableKind) -> int:
        manifest = self.registry.get(kind)
        if manifest.parent_kind in (None, SecurableKind.METASTORE):
            return 1
        if manifest.parent_kind is SecurableKind.CATALOG:
            return 2
        if manifest.parent_kind is SecurableKind.SCHEMA:
            return 3
        return 4  # children of schema-level assets (e.g. model versions)

    def _resolve(self, view: MetastoreView, metastore_id: str, kind: SecurableKind,
                 name: str) -> Entity:
        """Resolve a fully qualified name to an active entity.

        Successful resolutions are served from the version-pinned
        :class:`ResolutionCache` when the fast path is on; the cached
        binding carries every entity id the walk visited, so any change
        along the chain (rename, delete) drops it.
        """
        if kind is SecurableKind.METASTORE:
            # The metastore root has no parent row, so the container walk
            # below cannot find it; resolve it directly by id.
            root = view.entity_by_id(metastore_id)
            if root is None or root.name != name:
                raise NotFoundError(f"no such metastore: {name}")
            return root
        cache = self._hot_caches_for(metastore_id, view)
        if cache is not None:
            hit = cache.get_resolution(kind, name)
            if hit is not None:
                return hit
        manifest = self.registry.get(kind)
        segments = split_full_name(name, levels=self._levels_for(kind))
        parent_id = metastore_id
        walked = [metastore_id]
        # walk the container chain
        chain_groups = ["catalog", "schema"]
        for depth, segment in enumerate(segments[:-1]):
            if depth < 2:
                group = chain_groups[depth]
            else:
                # 4-level names: third segment is the schema-level parent
                parent_manifest = self.registry.get(manifest.parent_kind)
                group = parent_manifest.namespace_group
            container = view.entity_by_name(parent_id, group, segment)
            if container is None:
                raise NotFoundError(f"no such {group}: {'.'.join(segments[:depth + 1])}")
            parent_id = container.id
            walked.append(parent_id)
        entity = view.entity_by_name(parent_id, manifest.namespace_group, segments[-1])
        if entity is None:
            raise NotFoundError(f"no such {kind.value.lower()}: {name}")
        if cache is not None:
            walked.append(entity.id)
            cache.put_resolution(kind, name, entity, walked, view.version)
        return entity

    def resolve_name(self, metastore_id: str, kind: SecurableKind, name: str) -> Entity:
        """Public name resolution without authorization (internal tools)."""
        return self._resolve(self.view(metastore_id), metastore_id, kind, name)

    def _parent_of(
        self, view: MetastoreView, metastore_id: str, kind: SecurableKind, name: str
    ) -> tuple[Entity, str]:
        """Resolve the parent container for a to-be-created securable."""
        manifest = self.registry.get(kind)
        segments = split_full_name(name, levels=self._levels_for(kind))
        if len(segments) == 1:
            parent = view.entity_by_id(metastore_id)
            if parent is None:
                raise NotFoundError(f"no such metastore: {metastore_id}")
            return parent, segments[-1]
        parent_kind = manifest.parent_kind
        parent = self._resolve(view, metastore_id, parent_kind, ".".join(segments[:-1]))
        return parent, segments[-1]

    # ------------------------------------------------------------------
    # audit + authorization primitives
    # ------------------------------------------------------------------

    def _audit(
        self,
        metastore_id: str,
        principal: str,
        action: str,
        securable: str,
        allowed: bool,
        **details: Any,
    ) -> None:
        self.audit.record(
            self.clock.now(), metastore_id, principal, action, securable, allowed,
            details or None,
        )
        note_audit_record()

    def _authorize(
        self,
        view: MetastoreView,
        metastore_id: str,
        principal: str,
        entity: Entity,
        operation: str,
        securable_name: str,
    ) -> None:
        cache = self._hot_caches_for(metastore_id, view)
        tracer = self.obs.tracer
        if tracer.active:
            with tracer.span(
                "uc.authorize", operation=operation, securable=securable_name
            ):
                decision = self.authorizer.authorize(
                    view, entity, operation, principal, cache
                )
        else:
            decision = self.authorizer.authorize(
                view, entity, operation, principal, cache
            )
        self._audit(
            metastore_id, principal, operation, securable_name, decision.allowed,
            reason=decision.reason,
        )
        decision.raise_if_denied()

    # ------------------------------------------------------------------
    # workspace bindings (section 3.2)
    # ------------------------------------------------------------------

    def check_workspace_binding(
        self, metastore_id: str, entity: Entity, workspace: Optional[str]
    ) -> None:
        """Enforce catalog→workspace bindings.

        "Administrators can define 'bindings' to restrict a catalog's
        access to specific Databricks workspaces." A catalog without
        bindings is reachable from every workspace; a bound catalog only
        from the listed ones.
        """
        if workspace is None:
            return
        view = self.view(metastore_id)
        current: Optional[Entity] = entity
        while current is not None:
            if current.kind is SecurableKind.CATALOG:
                bindings = current.spec.get("workspace_bindings")
                if bindings and workspace not in bindings:
                    raise PermissionDeniedError(
                        f"catalog {current.name!r} is not bound to "
                        f"workspace {workspace!r}"
                    )
                return
            current = (
                view.entity_by_id(current.parent_id)
                if current.parent_id else None
            )

    # ------------------------------------------------------------------
    # storage helpers
    # ------------------------------------------------------------------

    def _is_managed_path(self, url: str) -> bool:
        return self._managed_root.contains(StoragePath.parse(url))


__all__ = ["ServiceKernel"]
