"""``snapshot_reads``: the uncached view/persistence path, trunk and branch."""

from __future__ import annotations

import itertools
import os
import shutil
import tempfile

from repro.core.persistence.sqlite import SqliteMetadataStore

from ..estate import ADMIN, E96, METASTORE
from ..harness import (
    Request,
    RouterDriver,
    get_table,
    list_tables,
    resolve,
    schedule,
    update_comment,
)
from .service import ServiceWorkload

BRANCH = "c0@dev"
#: per block of 100 requests. The trunk point read holds the median and
#: the branch resolve the p99, each well inside its class: 69 % trunk
#: point (12 of them on rows a side of the fork rewrote), 10 % AS OF
#: point, 5 % trunk resolve(4), 4 % trunk list, 10 % branch point,
#: 2 % branch resolve(4)
MIX = {"get": 57, "get_edited": 12, "at_get": 10, "resolve": 5, "list": 4,
       "branch_get": 8, "branch_get_edited": 2, "branch_resolve": 2}
BLOCKS = 6
#: one block warms the interpreter and the OS page cache; no program
#: cache is on in this workload
WARM = 100
#: commits on each side of the fork
COMMITS = 12


class SnapshotReads(ServiceWorkload):
    name = "snapshot_reads"
    why = ("Caches off on a SQLite file: every request builds a SnapshotView and "
           "reads store rows, trunk for the median and branch for the tail")
    shape = E96
    intended = (("view", "persistence"), 0.50)
    #: the paper's Figure 10(b) "without caching" configuration
    service_options = {"enable_cache": False}
    classes = {"read": ("get", "at_get", "resolve", "list",
                        "branch_get", "branch_resolve")}

    def __init__(self, seed: int):
        super().__init__(seed)
        estate, rng = self.estate, self.rng
        self.scratch = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), os.pardir, "out")
        self.directory = None
        forked = [n for n in estate.table_names if n.startswith("c0.")]
        touched = rng.sample(forked, 2 * COMMITS)
        #: tables main rewrites after the fork / tables the branch rewrites
        self.trunk_edits = {n: f"trunk rev {i}" for i, n in enumerate(touched[:COMMITS])}
        self.branch_edits = {n: f"dev rev {i}" for i, n in enumerate(touched[COMMITS:])}
        original = {n: t["comment"] for n, t in estate.tables.items()}
        trunk = {**original, **self.trunk_edits}
        branch = {**original, **self.branch_edits}  # main's later commits are invisible
        #: AS OF the version just before main's first post-fork commit;
        #: the number is only known once the estate is built
        self.as_of = {"metastore": METASTORE, "at_version": 0}
        on_branch = {"branch": BRANCH}

        kinds = schedule(rng, MIX, BLOCKS)
        hot = estate.hot_names(len(kinds))
        hot_forked = itertools.cycle([n for n in hot if n.startswith("c0.")])
        edited = itertools.cycle(list(self.trunk_edits) + list(self.branch_edits))
        rewritten = itertools.cycle(list(self.trunk_edits))

        def same_schema(name: str, count: int) -> list[str]:
            schema = name.rsplit(".", 1)[0]
            rest = [n for n in estate.children(schema) if n != name]
            return [name] + rng.sample(rest, count - 1)

        stream: list[Request] = []
        for kind, name in zip(kinds, hot):
            if kind == "get_edited":
                # a trunk point read of a row one side of the fork rewrote
                kind, name = "get", next(edited)
            elif kind == "at_get":
                name = next(rewritten)
            elif kind.startswith("branch"):
                name = next(edited) if kind == "branch_get_edited" else next(hot_forked)
            reader = rng.choice(estate.readers(name))
            if kind == "get":
                stream.append(get_table(name, reader, comment=trunk[name]))
            elif kind == "at_get":
                request = get_table(name, reader, comment=original[name], kind=kind)
                request.params = self.as_of
                stream.append(request)
            elif kind == "resolve":
                names = same_schema(name, 4)
                stream.append(resolve(names, reader, names))
            elif kind == "list":
                schema = name.rsplit(".", 1)[0]
                stream.append(list_tables(schema, reader, len(estate.children(schema))))
            elif kind == "branch_resolve":
                names = same_schema(name, 4)
                stream.append(resolve(names, reader, names, extra=on_branch, kind=kind))
            else:
                stream.append(get_table(name, reader, comment=branch[name],
                                        extra=on_branch, kind="branch_get"))
        self.warm_stream, self.streams = stream[:WARM], [stream[WARM:]]

    def make_store(self):
        os.makedirs(self.scratch, exist_ok=True)
        self.directory = tempfile.mkdtemp(prefix="snapshot-", dir=self.scratch)
        return SqliteMetadataStore(os.path.join(self.directory, "catalog.db"))

    def after_build(self) -> None:
        """Fork ``c0@dev``, then ``COMMITS`` commits on each side."""
        self.service.create_branch(self.mid, ADMIN, "c0", "dev")
        self.as_of["at_version"] = self.service.head_version(self.mid)
        edits = [update_comment(n, ADMIN, c) for n, c in self.trunk_edits.items()]
        edits += [update_comment(n, ADMIN, c, extra={"branch": BRANCH})
                  for n, c in self.branch_edits.items()]
        editor = RouterDriver(self.router)
        for request in edits:
            if not editor.issue(request)[1]:
                raise RuntimeError(f"set-up edit failed: {request.path}")

    def teardown(self) -> None:
        service = self.service
        super().teardown()
        if service is not None:
            service.store.close()
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)
            self.directory = None
