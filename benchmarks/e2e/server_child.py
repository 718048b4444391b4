"""The benchmark's own launcher for ``UnityCatalogHttpServer`` (a child process).

Builds the seeded estate in a fresh service, serves it on an ephemeral
localhost port and then obeys one-word commands on stdin, answering each
with one JSON line on stdout:

``stats``          public counters, span totals (``--trace 1``), peak RSS
``begin``          number the requests from now on (their spans are kept)
``spans <path>``   write the recorded spans there; answers the count
``quit``           stop serving and exit

The first line printed is ``{"port": N}`` once the server is listening.
End-of-file on stdin means the driver is gone — killed, even — and the
child stops too, so it can never be orphaned.

``--trace 1`` installs the per-layer wrappers. The two module attributes
``http_server`` reads per request (its ``RestApi`` factory and its
``json`` module) are replaced in this process only, so the router it
builds is timed as ``rest`` and its body/payload marshalling as
``json.decode`` / ``json.encode``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import sys
import types

from repro.core.persistence.memory import InMemoryMetadataStore
from repro.core.service import http_server
from repro.core.service.catalog_service import UnityCatalogService

from .estate import E2000, Estate, bound_audit_log, build
from .layers import service_counters
from .tracing import Patches, TimedStore, Tracer, timed, trace_globals, trace_service


def _trace_http_module(tracer: Tracer, patches: Patches, numbering: list) -> None:
    router_class = http_server.RestApi

    def numbered(fn):
        # the server handles each request on a thread of its own, so a
        # thread without a request number is a request not yet numbered
        def call(*args, **kwargs):
            state = tracer.state()
            if state.request < 0 and numbering:
                state.request = next(numbering[0])
            return fn(*args, **kwargs)
        return call

    def traced_router(service):
        router = router_class(service)
        router.handle = numbered(timed(tracer, "rest", router.handle))
        return router

    patches.set(http_server, "RestApi", traced_router)
    patches.set(http_server, "json", types.SimpleNamespace(
        loads=numbered(timed(tracer, "json.decode", json.loads)),
        dumps=timed(tracer, "json.encode", json.dumps),
        JSONDecodeError=json.JSONDecodeError,
    ))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    tracer = Tracer() if args.trace else None
    patches = Patches()
    numbering: list = []  # holds the request counter once "begin" arrives
    store = InMemoryMetadataStore()
    if tracer is not None:
        store = TimedStore(store, tracer)
        _trace_http_module(tracer, patches, numbering)
    service = UnityCatalogService(store=store)
    bound_audit_log(service)
    build(Estate(args.seed, E2000), service.directory, service.dispatch)
    if tracer is not None:
        trace_service(tracer, patches, service)
        trace_globals(tracer, patches)
    server = http_server.UnityCatalogHttpServer(service).start()
    try:
        print(json.dumps({"port": server.address[1]}), flush=True)
        for line in sys.stdin:
            command, _, argument = line.strip().partition(" ")
            if command == "quit":
                break
            if command == "begin":
                numbering[:] = [itertools.count()]
                reply = {}
            elif command == "stats":
                reply = {
                    "counters": service_counters([service]),
                    "totals": tracer.snapshot() if tracer is not None else {},
                    "peak_rss_mb":
                        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                }
            elif command == "spans":
                reply = {"spans": tracer.write_spans(argument) if tracer else 0}
            else:
                reply = {"error": f"unknown command: {command}"}
            print(json.dumps(reply), flush=True)
    finally:
        server.stop()
        patches.restore()
    return 0


if __name__ == "__main__":
    sys.exit(main())
