"""Shared set-up for the workloads that drive one in-process service."""

from __future__ import annotations

import random
from typing import Optional

from repro.core.persistence.memory import InMemoryMetadataStore
from repro.core.service.catalog_service import UnityCatalogService
from repro.core.service.rest import ServiceRouter

from ..estate import Estate, Shape, bound_audit_log, build
from ..harness import RouterDriver, Window
from ..layers import service_counters
from ..tracing import TimedStore, Tracer, trace_globals, trace_service
from .base import Workload


class ServiceWorkload(Workload):
    """One ``UnityCatalogService`` behind ``ServiceRouter.handle``, one
    driver thread. Subclasses pick the estate shape, the store and the
    request mix."""

    shape: Shape
    #: extra ``UnityCatalogService`` keyword arguments
    service_options: dict = {}

    def __init__(self, seed: int):
        super().__init__(seed)
        self.estate = Estate(seed, self.shape)
        self.rng = random.Random(f"{self.name}/{seed}")
        self.service: Optional[UnityCatalogService] = None

    def make_store(self):
        return InMemoryMetadataStore()

    def after_build(self) -> None:
        """Set-up that needs the live estate (forks, history)."""

    def setup(self, tracer: Optional[Tracer]) -> None:
        self.tracer = tracer
        self.pin()
        store = self.make_store()
        if tracer is not None:
            store = TimedStore(store, tracer)
        self.service = UnityCatalogService(store=store, **self.service_options)
        bound_audit_log(self.service)
        self.mid = build(self.estate, self.service.directory, self.service.dispatch)
        self.router = ServiceRouter(self.service)
        self.after_build()
        if tracer is not None:
            trace_service(tracer, self.patches, self.service)
            trace_globals(tracer, self.patches)
            self.patches.time(tracer, self.router, "handle", "rest")
        self.driver = RouterDriver(self.router, tracer)

    def issuers(self):
        return [self.driver.issue]

    def counters(self) -> dict[str, float]:
        return service_counters([self.service])

    def driver_extras(self, window: Window) -> dict[str, float]:
        return {"json.bytes_out_per_request":
                self.driver.bytes_out / self.driver.requests}

    def teardown(self) -> None:
        super().teardown()
        self.service = None
        self.router = None
        self.driver = None
