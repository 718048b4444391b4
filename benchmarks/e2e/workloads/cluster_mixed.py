"""``cluster_mixed``: routing, the worker hop, fan-out joins and 2PC."""

from __future__ import annotations

import itertools
import random
import time
from typing import Optional

from repro.clock import WallClock
from repro.core.cluster.cluster import CatalogCluster
from repro.core.model.entity import SecurableKind
from repro.core.persistence.treecat import TreeCatMetadataStore
from repro.errors import UnityCatalogError
from repro.serve.tier import ParallelServingTier

from ..estate import ADMIN, E800, Estate, bound_audit_log, build
from ..harness import Request, Window, schedule, should_undo
from ..layers import service_counters
from ..tracing import TimedStore, Tracer, trace_cluster, trace_globals, trace_service
from .base import Workload

SHARDS = 4
#: per lane and block of 200 requests: 60 % single-shard reads, 15 %
#: cross-catalog resolves (partition), 10 % scatter lists, 12 %
#: single-shard writes (8 create/drop slots, 16 edit/restore slots),
#: 3 % metastore-scope broadcasts (2PC)
MIX = {"get": 120, "resolve_cross": 30, "list_scatter": 20,
       "table": 8, "comment": 16, "broadcast": 6}
BLOCKS = 6
READERS = 3     # fixed readers per hot table (a closed set of cache entries)
TEMPLATES = 60  # cross-catalog resolves per lane
PENDING = 4     # outstanding creates/edits before the oldest is undone
SHARES = 8
POOL = 40       # tables per lane set aside for edits


def _call(op: str, api: str, /, *, expect=None, audit: int = 1, **params) -> Request:
    """A cluster request: ``method`` carries the endpoint name and
    ``params`` its keyword arguments (the metastore id is added when the
    request is issued — it exists only once the estate is built)."""
    return Request(op, api, params.get("name", ""), principal=params["principal"],
                   params=params, expect=expect, audit=audit)


class ClusterMixed(Workload):
    name = "cluster_mixed"
    why = ("Four TreeCat shards behind the serving tier, two driver threads: "
           "routing, worker hops, partition/scatter joins and 2PC broadcasts")
    lanes = 2
    intended = (("cluster", "serve"), 0.30)
    root_spans = ("cluster",)
    classes = {
        "read": ("get",),
        "write": ("update", "create", "drop", "broadcast"),
        "fanout": ("resolve_cross", "list_scatter", "broadcast"),
    }

    def __init__(self, seed: int):
        super().__init__(seed)
        self.estate = estate = Estate(seed, E800)
        self.cluster: Optional[CatalogCluster] = None
        self.tier: Optional[ParallelServingTier] = None
        self.shares = [f"share{i}" for i in range(SHARES)]
        comments = {n: t["comment"] for n, t in estate.tables.items()}
        per_lane = sum(MIX.values()) * BLOCKS
        hot = estate.hot_names(self.lanes * per_lane)
        hot_set = set(hot)
        cold = [n for n in estate.table_names if n not in hot_set]
        self.readers = estate.reader_sets(
            hot, random.Random(f"{self.name}/{seed}/readers"), READERS)
        for lane in range(self.lanes):
            rng = random.Random(f"{self.name}/{seed}/{lane}")
            names = hot[lane * per_lane:(lane + 1) * per_lane]
            kinds = schedule(rng, MIX, BLOCKS)
            # each lane edits its own tables and shares: what one lane
            # writes the other never reads, so both oracles stay exact
            pool = cold[lane * POOL:(lane + 1) * POOL]
            shares = self.shares[lane::self.lanes]
            self.streams.append(
                self._lane(rng, lane, kinds, names, pool, shares, comments))
        # every distinct read once: afterwards the caches hold the whole
        # read working set and only the writes move them
        distinct = {}
        for stream in self.streams:
            for request in stream:
                if request.kind in ("get", "resolve_cross", "list_scatter"):
                    distinct.setdefault(request.fingerprint(), request)
        self.warm_stream = list(distinct.values())

    def _lane(self, rng, lane, kinds, names, pool, shares, comments) -> list[Request]:
        estate = self.estate
        edited: list[str] = []
        created: list[str] = []
        stream: list[Request] = []

        def get(name: str, user: str) -> Request:
            return _call("get", "get_securable", kind=SecurableKind.TABLE,
                         name=name, principal=user,
                         expect=(name.rsplit(".", 1)[1], comments[name]))

        def table_slot(flush: bool = False) -> Request:
            if should_undo(created, PENDING, flush):
                return _call("drop", "delete_securable", kind=SecurableKind.TABLE,
                             name=created.pop(0), principal=ADMIN, expect=1, audit=2)
            name = (f"{rng.choice(pool).rsplit('.', 1)[0]}"
                    f".churn{lane}_{len(stream):05d}")
            created.append(name)
            return _call("create", "create_securable", kind=SecurableKind.TABLE,
                         name=name, principal=ADMIN, comment=f"churn {len(stream)}",
                         spec={"table_type": "MANAGED", "format": "DELTA"},
                         expect=f"churn {len(stream)}")

        def comment_slot(flush: bool = False) -> Request:
            if should_undo(edited, PENDING, flush):
                name = edited.pop(0)
                comments[name] = estate.tables[name]["comment"]
            else:
                name = rng.choice([n for n in pool if n not in edited])
                edited.append(name)
                comments[name] = f"edited at {len(stream)}"
            return _call("update", "update_securable", kind=SecurableKind.TABLE,
                         name=name, principal=ADMIN, comment=comments[name],
                         expect=comments[name])

        # four tables of one department: its catalogs sit on different
        # shards, so the resolve is partitioned
        templates = []
        for name in list(dict.fromkeys(names))[:TEMPLATES]:
            reader = rng.choice(self.readers[name])
            mine = [n for n in self.readers
                    if n != name and estate.can_read(reader, n)]
            tables = [name] + rng.sample(mine, 3)
            catalogs = {n.split(".", 1)[0] for n in tables}
            templates.append(_call(
                "resolve_cross", "resolve_for_query", principal=reader,
                table_names=tables, expect=frozenset(tables),
                audit=len(tables) + len(catalogs)))
        queries = itertools.cycle(templates)
        notes = itertools.cycle(shares)

        for kind, name in zip(kinds, names):
            reader = rng.choice(self.readers[name])
            if kind == "get":
                stream.append(get(name, reader))
            elif kind == "resolve_cross":
                stream.append(next(queries))
            elif kind == "list_scatter":
                visible = sum(1 for c in estate.catalogs if estate.can_read(reader, c))
                stream.append(_call("list_scatter", "list_securables",
                                    kind=SecurableKind.CATALOG, principal=reader,
                                    expect=visible, audit=SHARDS))
            elif kind == "table":
                stream.append(table_slot())
            elif kind == "comment":
                stream.append(comment_slot())
            else:
                note = f"note {len(stream)}"
                stream.append(_call(
                    "broadcast", "update_securable", kind=SecurableKind.SHARE,
                    name=next(notes), principal=ADMIN, comment=note,
                    expect=note, audit=SHARDS))
        while created:
            stream.append(table_slot(flush=True))
        while edited:
            stream.append(comment_slot(flush=True))
        return stream

    # -- life cycle -------------------------------------------------------------

    def setup(self, tracer: Optional[Tracer]) -> None:
        self.tracer = tracer
        self.pin()

        def store(index: int):
            inner = TreeCatMetadataStore()
            return inner if tracer is None else TimedStore(inner, tracer)

        cluster = self.cluster = CatalogCluster(
            SHARDS, clock=WallClock(), store_factory=store)
        services = [shard.service for shard in cluster.shards]
        for service in services:
            bound_audit_log(service)
        if tracer is not None:
            for service in services:
                # before the metastore exists, so its cache node reads
                # through the proxy too
                self.patches.set(service, "store", TimedStore(
                    service.store, tracer, "cluster.replication", snapshots=False))

        def place(mid: str, catalog: str) -> None:
            # four catalogs a shard, a department's catalogs on four shards
            target = f"shard-{(int(catalog[1:]) // SHARDS) % SHARDS}"
            if cluster.router.owner_for(mid, catalog) != target:
                cluster.migrate_catalog(mid, catalog, target).run()

        self.mid = build(self.estate, cluster.directory, cluster.dispatch, place)
        for share in self.shares:
            cluster.dispatch("create_securable", metastore_id=self.mid,
                             principal=ADMIN, kind=SecurableKind.SHARE, name=share)
        self.tier = ParallelServingTier(cluster)
        if tracer is not None:
            for service in services:
                trace_service(tracer, self.patches, service)
            trace_globals(tracer, self.patches)
            self.leg_stats = trace_cluster(tracer, self.patches, cluster, self.tier)

    def _issue(self, request: Request) -> tuple[float, bool]:
        start = time.perf_counter()
        try:
            result = self.tier.dispatch(
                request.method, metastore_id=self.mid, **request.params)
        except UnityCatalogError:
            return time.perf_counter() - start, False  # none is expected here
        elapsed = time.perf_counter() - start
        kind, expect = request.kind, request.expect
        if kind == "get":
            ok = (result.name, result.comment) == expect
        elif kind == "resolve_cross":
            ok = result.assets.keys() == expect
        elif kind in ("list_scatter", "drop"):
            ok = len(result) == expect
        else:  # update / create / broadcast
            ok = result.comment == expect
        return elapsed, ok

    def issuers(self):
        return [self._issue] * self.lanes

    def counters(self) -> dict[str, float]:
        return service_counters(shard.service for shard in self.cluster.shards)

    def driver_extras(self, window: Window) -> dict[str, float]:
        stats, requests = self.leg_stats, window.ops
        legs = max(stats["legs"], 1)
        return {
            "cluster.legs_per_request": stats["legs"] / requests,
            "cluster.slowest_leg_us":
                stats["slowest_leg_s"] * 1e6 / max(stats["multi_leg_requests"], 1),
            "serve.hop_us": stats["hop_s"] * 1e6 / legs,
            "serve.run_us": stats["run_s"] * 1e6 / legs,
        }

    def teardown(self) -> None:
        super().teardown()
        if self.tier is not None:
            self.tier.close()
        self.tier = self.cluster = None
