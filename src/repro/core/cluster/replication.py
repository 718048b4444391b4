"""Replica groups: a replicated change log, lease-based follower reads,
and fenced leader failover for each shard of the catalog cluster.

Each shard of a :class:`~repro.core.cluster.cluster.CatalogCluster` is
upgraded from one :class:`UnityCatalogService` to a :class:`ReplicaGroup`:

* the **leader** accepts writes. Its metadata store is wrapped in a
  :class:`ReplicatingStore` that intercepts the CAS ``commit`` — after the
  inner store accepts the write, the committed ops are appended to the
  group's bounded :class:`ReplicatedChangeLog` (the same version/CAS
  contract the MVCC store already exposes, so the log *is* the change
  stream, not a second source of truth);
* **followers** replay log entries in version order into their own full
  service stack (store + cache node + fast-path caches) and serve
  lease-based reads: within a read lease a follower answers from its
  possibly-slightly-stale state; when the lease lapses — or a
  read-your-writes session demands a version the follower has not applied
  yet — it first catches up from the log (*wait*), and if it cannot, the
  router moves on to the next candidate (*proxy*);
* **failover** is deterministic and clock-driven: the leader holds a
  lease with seeded jittered expiry, renewed on every accepted write.
  When the leader is down *and* its lease has expired, the freshest live
  follower is promoted — but only after catching up to the end of the
  log, and only under a fencing token (the group **epoch**) that is
  checked on every write and 2PC leg, so a deposed leader's in-flight
  mutations are rejected with :class:`~repro.errors.FencingTokenError`
  instead of forking history;
* a **restored** replica re-enters the group as a follower: it drains the
  log, or — when the bounded log has been truncated past its cursor —
  rebuilds from the leader via ``changes_since`` snapshots, exactly the
  catch-up path a cold standby would use.

Locking order (outermost first): replica cache-node RLock →
``_commit_lock`` → group ``_lock`` → log lock. Follower application runs
under the replica's ``apply_lock`` with the wrapper in *applying* mode,
which bypasses fencing and logging (the entry is already in the log).
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from random import Random
from typing import Any, Iterator, Optional

from repro.clock import Clock
from repro.core.persistence.store import MetadataStore, WriteOp
from repro.errors import (
    FencingTokenError,
    InvalidRequestError,
    LeaseExpiredError,
    NotFoundError,
    StorageUnavailableError,
    TransientError,
)

#: read preferences a dispatch may request (`_read_preference` kwarg)
READ_PREFERENCES = ("leader", "follower", "nearest_fresh")

#: a lease lasts ``lease_duration`` times 1 to 1 + this (seeded draw), so
#: replicas whose leases were granted together do not expire together
_LEASE_JITTER = 0.25


@dataclass(frozen=True)
class LogEntry:
    """One replicated mutation: a slot creation or a committed CAS write."""

    index: int
    kind: str  # "slot" | "commit"
    metastore_id: str
    version: int
    ops: tuple[WriteOp, ...]


class ReplicatedChangeLog:
    """The leader's committed change stream, bounded to ``capacity``.

    Entries are indexed from 0 and never renumbered; truncation advances
    ``first_index`` so a follower whose cursor fell off the tail learns it
    must resync (``entries_since`` returns ``None``) instead of silently
    missing writes.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise InvalidRequestError("log capacity must be >= 1")
        self._capacity = capacity
        self._entries: deque[LogEntry] = deque()
        self._first = 0
        self._lock = threading.Lock()

    def append(self, kind: str, metastore_id: str, version: int,
               ops: tuple[WriteOp, ...]) -> LogEntry:
        with self._lock:
            entry = LogEntry(self._first + len(self._entries), kind,
                             metastore_id, version, tuple(ops))
            self._entries.append(entry)
            while len(self._entries) > self._capacity:
                self._entries.popleft()
                self._first += 1
            return entry

    def length(self) -> int:
        """The index one past the newest entry (0 when empty)."""
        with self._lock:
            return self._first + len(self._entries)

    @property
    def first_index(self) -> int:
        with self._lock:
            return self._first

    def entries_since(self, cursor: int) -> Optional[list[LogEntry]]:
        """Entries with index >= ``cursor``; ``None`` when the log has
        been truncated past the cursor (the caller must resync)."""
        with self._lock:
            if cursor < self._first:
                return None
            return list(self._entries)[cursor - self._first:]


class ReplicatingStore(MetadataStore):
    """A :class:`MetadataStore` wrapper that fences writes and feeds the
    group's change log.

    Reads delegate straight through. Writes (``commit`` and
    ``create_metastore_slot``) pass through the group, which checks the
    caller's fencing token and lease before touching the inner store and
    appends the committed entry to the log afterwards — unless the
    thread is in *applying* mode (follower replay / resync), where both
    the fence and the log are bypassed.
    """

    def __init__(self, inner: MetadataStore, group: "ReplicaGroup",
                 replica_name: str):
        self.inner = inner
        self._group = group
        self._replica_name = replica_name
        self._local = threading.local()

    @contextmanager
    def applying(self) -> Iterator[None]:
        """Mark this thread as replaying log entries (no fence, no log)."""
        self._local.applying = True
        try:
            yield
        finally:
            self._local.applying = False

    @property
    def is_applying(self) -> bool:
        return getattr(self._local, "applying", False)

    # -- writes (fenced + logged) ---------------------------------------

    def create_metastore_slot(self, metastore_id: str) -> None:
        if self.is_applying or not self._group.replicated:
            self.inner.create_metastore_slot(metastore_id)
            return
        self._group.slot_through(self._replica_name, self.inner, metastore_id)

    def commit(self, metastore_id: str, expected_version: int,
               ops: list[WriteOp]) -> int:
        if self.is_applying or not self._group.replicated:
            return self.inner.commit(metastore_id, expected_version, ops)
        return self._group.commit_through(
            self._replica_name, self.inner, metastore_id, expected_version, ops
        )

    # -- reads (pass-through) -------------------------------------------

    def metastore_ids(self) -> list[str]:
        return self.inner.metastore_ids()

    def current_version(self, metastore_id: str) -> int:
        return self.inner.current_version(metastore_id)

    def snapshot(self, metastore_id: str, at_version: Optional[int] = None):
        return self.inner.snapshot(metastore_id, at_version)

    def changes_since(self, metastore_id: str, from_version: int):
        return self.inner.changes_since(metastore_id, from_version)

    def compact(self, metastore_id: str, min_version: int) -> int:
        return self.inner.compact(metastore_id, min_version)

    def __getattr__(self, name: str) -> Any:
        # backend extras and diagnostics counters (read_count, …) that
        # benches and tests read off the raw store
        return getattr(self.inner, name)


class Replica:
    """One member of a replica group: a full service stack plus the
    group-side replication state (log cursor, fencing epoch, leases)."""

    __slots__ = ("index", "name", "worker", "store", "service", "breaker",
                 "applied", "crashed", "epoch", "lease_deadline", "apply_lock")

    def __init__(self, index: int, name: str, worker: str,
                 store: ReplicatingStore, service, breaker):
        self.index = index
        self.name = name
        #: serving-tier worker this replica's work runs on
        self.worker = worker
        self.store = store
        self.service = service
        self.breaker = breaker
        #: log index one past the newest applied entry
        self.applied = 0
        self.crashed = False
        #: fencing token held; writes require it to equal the group epoch
        self.epoch = 0
        #: follower read lease: reads past this must catch up first
        self.lease_deadline = 0.0
        #: serializes log replay / resync into this replica
        self.apply_lock = threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Replica({self.name!r}, applied={self.applied})"


@dataclass
class LeaderLease:
    """The write lease: who leads, under which epoch, until when."""

    holder: str
    epoch: int
    expires_at: float


class ReadSession:
    """Read-your-writes token: remembers, per (metastore, shard), the
    newest version this session has written; follower reads carrying the
    session never serve anything older."""

    def __init__(self):
        self._lock = threading.Lock()
        self._versions: dict[tuple[str, str], int] = {}

    def note_write(self, metastore_id: str, shard: str, version: int) -> None:
        with self._lock:
            key = (metastore_id, shard)
            if version > self._versions.get(key, 0):
                self._versions[key] = version

    def min_version(self, metastore_id: Optional[str],
                    shard: str) -> Optional[int]:
        if metastore_id is None:
            return None
        with self._lock:
            return self._versions.get((metastore_id, shard))


class ReplicaGroup:
    """Leader/followers for one shard, with fenced clock-driven failover."""

    def __init__(
        self,
        shard_name: str,
        *,
        clock: Clock,
        metrics=None,
        tracer=None,
        faults=None,
        lease_duration: float = 2.0,
        seed: int = 0,
        log_capacity: int = 4096,
    ):
        self.shard_name = shard_name
        self._clock = clock
        self._tracer = tracer
        self._faults = faults
        self._lease_duration = lease_duration
        #: group-local RNG: lease jitter never perturbs any other stream
        self._rng = Random(seed)
        self.log = ReplicatedChangeLog(log_capacity)
        self._replicas: list[Replica] = []
        self._by_name: dict[str, Replica] = {}
        self._leader_index = 0
        #: the fencing token; promotion is the only thing that bumps it
        self._epoch = 1
        self._lease: Optional[LeaderLease] = None
        self._lock = threading.RLock()
        #: serializes inner-commit + log-append (and promotion) so log
        #: order always matches per-metastore version order
        self._commit_lock = threading.Lock()
        self._failovers = self._fenced = self._renewals = None
        self._log_entries = self._applied_metric = None
        if metrics is not None:
            self._failovers = metrics.counter(
                "uc_replica_failovers_total",
                "Leader failovers completed, by shard.",
                ("shard",),
            ).labels(shard=shard_name)
            self._fenced = metrics.counter(
                "uc_replica_fenced_writes_total",
                "Writes rejected for carrying a stale fencing token.",
                ("shard",),
            ).labels(shard=shard_name)
            self._renewals = metrics.counter(
                "uc_replica_lease_renewals_total",
                "Leader lease renewals, by shard.",
                ("shard",),
            ).labels(shard=shard_name)
            self._log_entries = metrics.counter(
                "uc_replica_log_entries_total",
                "Entries appended to the replicated change log.",
                ("shard",),
            ).labels(shard=shard_name)
            self._applied_metric = metrics.counter(
                "uc_replica_applied_entries_total",
                "Log entries applied by followers.",
                ("shard", "replica"),
            )

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    def add_replica(self, name: str, worker: str, store: ReplicatingStore,
                    service, breaker) -> Replica:
        with self._lock:
            replica = Replica(len(self._replicas), name, worker, store,
                              service, breaker)
            if replica.index == 0:
                replica.epoch = self._epoch
            self._replicas.append(replica)
            self._by_name[name] = replica
            return replica

    def seal(self) -> None:
        """Finish construction: grant the initial leader lease (only a
        multi-replica group needs one — and only then is the RNG drawn)."""
        with self._lock:
            if self.replicated:
                self._grant_lease_locked(self._replicas[self._leader_index])

    @property
    def replicated(self) -> bool:
        return len(self._replicas) > 1

    @property
    def replicas(self) -> list[Replica]:
        with self._lock:
            return list(self._replicas)

    @property
    def epoch(self) -> int:
        with self._lock:
            return self._epoch

    def replica_named(self, name: str) -> Replica:
        with self._lock:
            try:
                return self._by_name[name]
            except KeyError:
                raise InvalidRequestError(
                    f"no replica {name!r} in shard {self.shard_name}"
                )

    def leader(self) -> Replica:
        """The current leader (no health or lease checks)."""
        with self._lock:
            return self._replicas[self._leader_index]

    # ------------------------------------------------------------------
    # the write path: fencing + lease + log
    # ------------------------------------------------------------------

    def _is_down(self, replica: Replica) -> bool:
        if replica.crashed:
            return True
        return self._faults is not None and self._faults.crashed(
            f"replica.{self.shard_name}.{replica.name}.serve"
        )

    def _grant_lease_locked(self, replica: Replica) -> None:
        duration = self._lease_duration * (
            1.0 + _LEASE_JITTER * self._rng.random()
        )
        self._lease = LeaderLease(replica.name, self._epoch,
                                  self._clock.now() + duration)

    def check_write(self, replica_name: str) -> None:
        """Gate one mutation: fencing token, liveness, lease renewal.

        Raises :class:`FencingTokenError` for a deposed leader (stale
        epoch), :class:`StorageUnavailableError` for a down leader, and
        :class:`LeaseExpiredError` when the lease lapsed and cannot be
        renewed (a lease-expiry storm keeps the renewal op throttled).
        """
        if not self.replicated:
            return
        with self._lock:
            replica = self._by_name[replica_name]
            leader = self._replicas[self._leader_index]
            if replica is not leader or replica.epoch != self._epoch:
                if self._fenced is not None:
                    self._fenced.inc()
                raise FencingTokenError(
                    f"replica {replica_name} of shard {self.shard_name} "
                    f"holds fencing token {replica.epoch} but the group is "
                    f"at epoch {self._epoch}: it is no longer the leader"
                )
            if self._is_down(replica):
                raise StorageUnavailableError(
                    f"shard {self.shard_name} leader {replica_name} is down"
                )
            if self._faults is not None:
                try:
                    self._faults.raise_for(
                        f"replica.{self.shard_name}.{replica_name}.lease.renew"
                    )
                except TransientError as exc:
                    lease = self._lease
                    if lease is None or lease.expires_at <= self._clock.now():
                        raise LeaseExpiredError(
                            f"shard {self.shard_name} leader lease expired "
                            "and renewal is failing",
                            retry_after_seconds=self._lease_duration,
                        ) from exc
                    # renewal failed but the current lease still covers
                    # this write; skip the renewal, accept the write
                    return
            self._grant_lease_locked(replica)
            if self._renewals is not None:
                self._renewals.inc()

    def commit_through(self, replica_name: str, inner: MetadataStore,
                       metastore_id: str, expected_version: int,
                       ops: list[WriteOp]) -> int:
        """Fence, commit on the inner store, append to the log — one
        critical section, so the log's entry order always matches the
        per-metastore version order and promotion can never interleave."""
        with self._commit_lock:
            self.check_write(replica_name)
            version = inner.commit(metastore_id, expected_version, ops)
            self.log.append("commit", metastore_id, version, tuple(ops))
            if self._log_entries is not None:
                self._log_entries.inc()
            return version

    def slot_through(self, replica_name: str, inner: MetadataStore,
                     metastore_id: str) -> None:
        with self._commit_lock:
            self.check_write(replica_name)
            inner.create_metastore_slot(metastore_id)
            self.log.append("slot", metastore_id, 0, ())
            if self._log_entries is not None:
                self._log_entries.inc()

    def leader_for_write(self) -> Replica:
        """The replica a mutation should be dispatched to.

        Runs the failover check first; if the leader is down and no
        successor can be promoted yet (lease unexpired, or no live
        follower), fails fast with :class:`LeaseExpiredError` — before
        any clock time is charged, so the write-unavailability window is
        exactly the lease window.
        """
        self.maybe_failover()
        with self._lock:
            leader = self._replicas[self._leader_index]
            if self.replicated and self._is_down(leader):
                lease = self._lease
                remaining = 0.0
                if lease is not None:
                    remaining = max(0.0, lease.expires_at - self._clock.now())
                raise LeaseExpiredError(
                    f"shard {self.shard_name} leader {leader.name} is down "
                    f"({remaining:.3f}s left on its lease; no successor yet)",
                    retry_after_seconds=remaining or self._lease_duration,
                )
            return leader

    # ------------------------------------------------------------------
    # failover
    # ------------------------------------------------------------------

    def maybe_failover(self) -> bool:
        """Promote the freshest live follower if the leader is down and
        its lease has expired. Returns True when a promotion happened.

        Double-checked: the candidate catches up to the log *outside* the
        group state lock (applying takes the candidate's cache-node lock,
        which must never nest inside ours), then the promotion re-checks
        every precondition — epoch unchanged, leader still down, lease
        still expired, candidate alive and fully caught up — before
        bumping the epoch.
        """
        if not self.replicated:
            return False
        with self._lock:
            leader = self._replicas[self._leader_index]
            if not self._is_down(leader):
                return False
            lease = self._lease
            if lease is not None and self._clock.now() < lease.expires_at:
                return False
            epoch = self._epoch
            candidates = [r for r in self._replicas
                          if r is not leader and not self._is_down(r)]
            if not candidates:
                return False
            candidate = max(candidates, key=lambda r: (r.applied, -r.index))
        try:
            with candidate.apply_lock:
                self._drain(candidate)
        except TransientError:
            return False  # catch-up failed; retry on a later write
        with self._commit_lock:
            with self._lock:
                if self._epoch != epoch:
                    return False  # someone else promoted already
                leader = self._replicas[self._leader_index]
                if not self._is_down(leader):
                    return False
                lease = self._lease
                if lease is not None and self._clock.now() < lease.expires_at:
                    return False
                if self._is_down(candidate):
                    return False
                if candidate.applied < self.log.length():
                    return False  # new entries slipped in; try again later
                self._epoch += 1
                candidate.epoch = self._epoch
                self._leader_index = candidate.index
                self._grant_lease_locked(candidate)
                if self._failovers is not None:
                    self._failovers.inc()
                if self._tracer is not None:
                    with self._tracer.span(
                        "uc.replica.failover", shard=self.shard_name,
                        leader=candidate.name, epoch=self._epoch,
                    ):
                        pass
                return True

    def crash(self, replica_name: str) -> Replica:
        """Mark a replica down (test/bench hook; the fault injector's
        ``crash("replica.<shard>.<name>.serve")`` is the chaos-rule way)."""
        with self._lock:
            replica = self._by_name[replica_name]
            replica.crashed = True
            return replica

    def crash_leader(self) -> Replica:
        return self.crash(self.leader().name)

    def restore(self, replica_name: str) -> Replica:
        """Bring a crashed replica back as a follower: catch up from the
        log (or resync from the leader when the log was truncated past
        its cursor) *before* clearing the crashed flag, so it never
        serves a read from its pre-crash past."""
        with self._lock:
            replica = self._by_name[replica_name]
            if not replica.crashed:
                return replica
        with replica.apply_lock:
            self._drain(replica)
        with self._lock:
            replica.crashed = False
            replica.lease_deadline = 0.0  # first read must re-verify
            return replica

    # ------------------------------------------------------------------
    # the read path: leases + read-your-writes
    # ------------------------------------------------------------------

    def read_candidates(self, preference: str = "leader") -> list[Replica]:
        """Live replicas to try for a read, in preference order.

        ``leader`` (default): leader first, then followers. ``follower``:
        followers first (offload), leader as last resort.
        ``nearest_fresh``: by replication lag (the leader counts as lag
        0), ties broken by index. May be empty when every replica is
        down — the cluster then degrades to its stale-read cache.
        """
        if preference not in READ_PREFERENCES:
            raise InvalidRequestError(
                f"unknown read preference: {preference!r}"
            )
        with self._lock:
            leader = self._replicas[self._leader_index]
            live = [r for r in self._replicas if not self._is_down(r)]
            if preference == "nearest_fresh":
                log_len = self.log.length()
                return sorted(
                    live,
                    key=lambda r: (0 if r is leader
                                   else max(0, log_len - r.applied), r.index),
                )
            followers = [r for r in live if r is not leader]
            leader_live = [leader] if leader in live else []
            if preference == "follower":
                return followers + leader_live
            return leader_live + followers

    def check_read(self, replica: Replica, metastore_id: Optional[str],
                   min_version: Optional[int]) -> None:
        """Gate one read on ``replica``: liveness, read lease, session.

        A follower whose lease lapsed — or that has not yet applied the
        session's ``min_version`` — catches up from the log first
        (*wait*); if catch-up fails transiently the error propagates and
        the router falls through to the next candidate (*proxy*).
        """
        if not self.replicated:
            return
        if self._is_down(replica):
            raise StorageUnavailableError(
                f"replica {replica.name} of shard {self.shard_name} is down"
            )
        if self._faults is not None:
            self._faults.raise_for(
                f"replica.{self.shard_name}.{replica.name}.serve"
            )
        with self._lock:
            is_leader = replica is self._replicas[self._leader_index]
        if is_leader:
            return
        behind = self._behind(replica, metastore_id, min_version)
        if behind or self._clock.now() >= replica.lease_deadline:
            self._pull(replica)
            if self._behind(replica, metastore_id, min_version):
                raise StorageUnavailableError(
                    f"replica {replica.name} of shard {self.shard_name} "
                    f"cannot reach version {min_version} of {metastore_id}"
                )

    def _behind(self, replica: Replica, metastore_id: Optional[str],
                min_version: Optional[int]) -> bool:
        if metastore_id is None or min_version is None:
            return False
        try:
            return replica.store.inner.current_version(metastore_id) < min_version
        except NotFoundError:
            return True

    # ------------------------------------------------------------------
    # log replay
    # ------------------------------------------------------------------

    def replicate(self) -> None:
        """Stream new log entries to every live follower (called by the
        cluster after each mutation; a follower that fails transiently is
        skipped and will catch up on its next read)."""
        if not self.replicated:
            return
        with self._lock:
            leader = self._replicas[self._leader_index]
            targets = [r for r in self._replicas
                       if r is not leader and not self._is_down(r)]
        for replica in targets:
            try:
                self._pull(replica)
            except TransientError:
                continue

    def _pull(self, follower: Replica) -> None:
        """Catch ``follower`` up to the end of the log and renew its read
        lease. The fault injector can fail the pull (partitioned
        follower); the resulting transient propagates to the caller."""
        with follower.apply_lock:
            if self._faults is not None:
                self._faults.raise_for(
                    f"replica.{self.shard_name}.{follower.name}.pull"
                )
            self._drain(follower)
            follower.lease_deadline = self._clock.now() + self._lease_duration

    def _drain(self, replica: Replica) -> None:
        """Apply every log entry past the replica's cursor (caller holds
        ``apply_lock``); fall back to a full resync when the bounded log
        no longer reaches back to the cursor."""
        entries = self.log.entries_since(replica.applied)
        if entries is None:
            self._resync(replica)
            return
        for entry in entries:
            self._apply(replica, entry)
            replica.applied = entry.index + 1
            if self._applied_metric is not None:
                self._applied_metric.inc(shard=self.shard_name,
                                         replica=replica.name)

    def _apply(self, replica: Replica, entry: LogEntry) -> None:
        """Apply one log entry to a replica's store (idempotent: entries
        at or below the store's current version are skipped, which makes
        overlapping resync + replay safe)."""
        store = replica.store
        with store.applying():
            if entry.kind == "slot":
                try:
                    store.inner.current_version(entry.metastore_id)
                except NotFoundError:
                    store.inner.create_metastore_slot(entry.metastore_id)
                return
            current = store.inner.current_version(entry.metastore_id)
            if current >= entry.version:
                return
            node = replica.service.cache_node(entry.metastore_id)
            if node is not None and node.known_version == entry.version - 1:
                # write-through: the follower's cache node stays hot
                node.commit(list(entry.ops))
            else:
                store.inner.commit(entry.metastore_id, entry.version - 1,
                                   list(entry.ops))
                if node is not None:
                    node.reconcile()

    def _resync(self, replica: Replica) -> None:
        """Rebuild a replica from the leader's store via ``changes_since``
        (the log was truncated past the replica's cursor). Commits are
        re-derived per version from pinned snapshots, so the replica ends
        byte-identical, version-for-version, with the leader."""
        with self._lock:
            source = self._replicas[self._leader_index]
        pre_len = self.log.length()
        src = source.store.inner
        dst = replica.store
        for metastore_id in src.metastore_ids():
            with dst.applying():
                try:
                    current = dst.inner.current_version(metastore_id)
                except NotFoundError:
                    dst.inner.create_metastore_slot(metastore_id)
                    current = 0
                by_version: dict[int, list] = {}
                for record in src.changes_since(metastore_id, current):
                    by_version.setdefault(record.version, []).append(record)
                for version in sorted(by_version):
                    snap = src.snapshot(metastore_id, version)
                    ops = []
                    for record in by_version[version]:
                        value = snap.get(record.table, record.key)
                        if record.deleted or value is None:
                            ops.append(WriteOp.delete(record.table, record.key))
                        else:
                            ops.append(WriteOp.put(record.table, record.key,
                                                   value))
                    dst.inner.commit(metastore_id, version - 1, ops)
                node = replica.service.cache_node(metastore_id)
                if node is not None:
                    node.reconcile()
        # overlap with entries logged mid-resync is absorbed by the
        # idempotent version check in _apply
        replica.applied = pre_len

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def status(self) -> list[dict]:
        """Per-replica role/lag/liveness (scrape-time, also test hook)."""
        with self._lock:
            leader = self._replicas[self._leader_index]
            log_len = self.log.length()
            return [
                {
                    "replica": r.name,
                    "role": "leader" if r is leader else "follower",
                    "lag": 0 if r is leader else max(0, log_len - r.applied),
                    "crashed": r.crashed,
                    "epoch": r.epoch,
                }
                for r in self._replicas
            ]


__all__ = [
    "LeaderLease",
    "LogEntry",
    "READ_PREFERENCES",
    "ReadSession",
    "Replica",
    "ReplicaGroup",
    "ReplicatedChangeLog",
    "ReplicatingStore",
]
