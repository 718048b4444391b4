"""``resolve_hot``: life of a query with the transport removed."""

from __future__ import annotations

import itertools

from ..estate import E2000
from ..harness import (
    Request,
    get_table,
    grants_on,
    has_privilege,
    resolve,
    schedule,
    zipf_schedule,
)
from .service import ServiceWorkload

TEMPLATES = 200
#: per block of 200 requests: 70 % batched resolves, 20 % point gets,
#: 7 % privilege checks, 3 % expected denials
MIX = {"resolve": 140, "get": 40, "has_privilege": 8, "grants": 6,
       "get_denied": 3, "resolve_denied": 3}
BLOCKS = 10


class ResolveHot(ServiceWorkload):
    name = "resolve_hot"
    why = ("In-process batched resolve on a warm estate: pipeline, auth, decision "
           "cache, batch, vending, audit and JSON share the time; the store idles")
    shape = E2000
    intended = (("pipeline", "auth", "cache.decisions", "batch", "vending",
                 "audit", "rest", "json", "kernel"), None)
    classes = {"read": ("resolve", "get", "has_privilege", "grants")}

    def __init__(self, seed: int):
        super().__init__(seed)
        estate, rng = self.estate, self.rng
        kinds = schedule(rng, MIX, BLOCKS)
        hot = estate.hot_names(len(kinds))
        by_catalog: dict[str, list[str]] = {}
        for name in dict.fromkeys(hot):
            by_catalog.setdefault(name.split(".", 1)[0], []).append(name)
        views_by_catalog: dict[str, list[str]] = {}
        for view in estate.views:
            views_by_catalog.setdefault(view.split(".", 1)[0], []).append(view)

        # template sizes and which templates read through a view are fixed
        # by rank, so every seed puts the same work at the hot ranks
        templates: list[tuple[list[str], set[str]]] = []
        for rank in range(TEMPLATES):
            catalog = hot[rank].split(".", 1)[0]
            names = rng.sample(by_catalog[catalog], 2 + (rank * 3) % 7)
            closure = set(names)
            if rank % 20 in (3, 9, 15):  # 15 % of templates
                view = rng.choice(views_by_catalog[catalog])
                names[0] = view
                closure = set(names) | set(estate.views[view])
            templates.append((names, closure))
        queries = itertools.cycle(zipf_schedule(
            rng, templates, 1.1, MIX["resolve"] * BLOCKS // 2))

        stream: list[Request] = []
        for kind, name in zip(kinds, hot):
            reader = rng.choice(estate.readers(name))
            if kind == "resolve":
                names, closure = next(queries)
                stream.append(resolve(names, rng.choice(estate.readers(names[0])),
                                      closure))
            elif kind == "get":
                stream.append(get_table(name, reader,
                                        comment=estate.tables[name]["comment"]))
            elif kind == "has_privilege":
                user = rng.choice(estate.users)
                stream.append(has_privilege(name, user, estate.can_read(user, name)))
            elif kind == "grants":
                catalog = name.split(".", 1)[0]
                stream.append(grants_on(catalog, reader, estate.grant_count(catalog)))
            elif kind == "get_denied":
                stream.append(get_table(name, rng.choice(estate.strangers(name)),
                                        status=403))
            else:
                names, closure = next(queries)
                stream.append(resolve(names, rng.choice(estate.strangers(names[0])),
                                      closure, status=403))
        self.streams = [stream]
        # the stream itself, once: afterwards every request is a repeat
        # and the working set sits in every cache
        self.warm_stream = stream
