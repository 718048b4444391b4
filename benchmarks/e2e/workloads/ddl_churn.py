"""``ddl_churn``: writes beside reads through the same caches."""

from __future__ import annotations

from ..estate import ADMIN, E2000
from ..harness import (
    Request,
    change_grant,
    create_table,
    drop_table,
    get_table,
    rename_table,
    schedule,
    should_undo,
    update_comment,
)
from .service import ServiceWorkload

#: per block of 200 requests: half point reads, half writes — 40 table
#: slots (create/drop), 30 comment slots (edit/restore), 20 grant slots
#: (grant/revoke), 10 rename slots (rename/rename back)
MIX = {"get": 80, "get_created": 10, "get_edited": 10,
       "table": 40, "comment": 30, "grant": 20, "rename": 10}
BLOCKS = 10
#: readers per hot table: with ~500 hot tables the warm-up reads ~1,500
#: distinct (principal, table) pairs, so every write's ``note_commit``
#: scans a populated decision cache that no longer grows
READERS = 3
#: tables set aside for each kind of write (never the hot read set)
POOL = 60
#: a slot does while fewer than this many of its kind are outstanding,
#: and undoes the oldest otherwise
PENDING = 4


class DdlChurn(ServiceWorkload):
    name = "ddl_churn"
    why = ("Half writes beside Zipf reads on warm caches: the commit path, and "
           "note_commit's scan of every cached decision on each write")
    shape = E2000
    intended = (("cache.decisions",), None)
    classes = {
        "read": ("get",),
        "write": ("create", "drop", "update", "grant", "revoke", "rename"),
    }

    def __init__(self, seed: int):
        super().__init__(seed)
        estate, rng = self.estate, self.rng
        kinds = schedule(rng, MIX, BLOCKS)
        hot = estate.hot_names(len(kinds))
        hot_set = set(hot)
        cold = [n for n in estate.table_names if n not in hot_set]
        rng.shuffle(cold)
        update_pool, grant_pool, rename_pool = (
            cold[0:POOL], cold[POOL:2 * POOL], cold[2 * POOL:3 * POOL])
        comments = {n: t["comment"] for n, t in estate.tables.items()}

        readers = estate.reader_sets(hot + update_pool, rng, READERS)
        self.warm_stream = [get_table(name, user, comment=comments[name])
                            for name, users in readers.items() for user in users]

        # every write has an undo later in the stream (create/drop,
        # edit/restore, grant/revoke, rename/rename back): see should_undo
        #: (stream index, table, exists afterwards) for every create/drop
        self.effects: list[tuple[int, str, bool]] = []
        created: list[str] = []       # live tables this pass created
        edited: list[str] = []        # pool tables with a changed comment
        granted: list[str] = []
        renamed: list[tuple[str, str]] = []  # (current name, original name)
        stream: list[Request] = []

        def table_slot(flush: bool = False) -> Request:
            if should_undo(created, PENDING, flush):
                name = created.pop(0)
                self.effects.append((len(stream), name, False))
                return drop_table(name)
            name = f"{rng.choice(estate.schemas)}.churn_{len(stream):05d}"
            created.append(name)
            self.effects.append((len(stream), name, True))
            return create_table(name, f"churn {len(stream)}")

        def comment_slot(flush: bool = False) -> Request:
            if should_undo(edited, PENDING, flush):
                name = edited.pop(0)
                comments[name] = estate.tables[name]["comment"]
            else:
                name = rng.choice([n for n in update_pool if n not in edited])
                edited.append(name)
                comments[name] = f"edited at {len(stream)}"
            return update_comment(name, ADMIN, comments[name])

        def grant_slot(flush: bool = False) -> Request:
            if should_undo(granted, PENDING, flush):
                return change_grant("revoke", granted.pop(0), "org")
            name = rng.choice([n for n in grant_pool if n not in granted])
            granted.append(name)
            return change_grant("grant", name, "org")

        def rename_slot(flush: bool = False) -> Request:
            if should_undo(renamed, PENDING, flush):
                current, original = renamed.pop(0)
                return rename_table(current, original.rsplit(".", 1)[1])
            away = {original for _, original in renamed}
            name = rng.choice([n for n in rename_pool if n not in away])
            schema, leaf = name.rsplit(".", 1)
            renamed.append((f"{schema}.{leaf}_moved", name))
            return rename_table(name, leaf + "_moved")

        slots = {"table": (table_slot, created), "comment": (comment_slot, edited),
                 "grant": (grant_slot, granted), "rename": (rename_slot, renamed)}
        for kind, name in zip(kinds, hot):
            if kind in slots:
                stream.append(slots[kind][0]())
            elif kind == "get_created" and created:
                # a table this pass created must be gettable until dropped
                stream.append(get_table(rng.choice(created), ADMIN))
            elif kind == "get_edited":
                target = rng.choice(update_pool)
                stream.append(get_table(target, rng.choice(readers[target]),
                                        comment=comments[target]))
            else:
                stream.append(get_table(name, rng.choice(readers[name]),
                                        comment=comments[name]))
        # leave nothing pending, so the next pass starts from the same estate
        for slot, pending in slots.values():
            while pending:
                stream.append(slot(flush=True))
        self.streams = [stream]

    def verify(self) -> list[str]:
        """Besides the audit count: everything created and not yet dropped
        is gettable, everything dropped is gone."""
        mismatches = super().verify()
        position = self.cursors[0] % len(self.streams[0])
        live = {name: exists for index, name, exists in self.effects
                if index < position}
        for name, exists in live.items():
            probe = get_table(name, ADMIN, status=200 if exists else 404)
            if not self.driver.issue(probe)[1]:
                mismatches.append(
                    f"{name} should {'exist' if exists else 'be gone'}")
        return mismatches
