"""The seeded estate: a plain-dict ground-truth model, built through the public API.

``Estate(seed, shape)`` is pure data — catalogs, schemas, tables with
their columns and comments, views with their dependencies, principals in
three-level groups and the grants between them. It is the oracle's model
(nothing in it is read back from the program) and the recipe
:func:`build` replays through ``create_securable`` / ``grant`` to make
the live estate. The same seed always gives the same estate; a different
seed changes names, columns, view wiring and which tables are hot, never
the shape, so runs with different seeds measure the same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.core.audit import AuditLog
from repro.core.auth.privileges import Privilege
from repro.core.model.entity import Entity, SecurableKind
from repro.workloads import SyntheticDeployment, TraceConfig, generate_trace
from repro.workloads.deployment import DeploymentConfig

ADMIN = "admin"
METASTORE = "main"
BASE = "/api/2.1/unity-catalog"

#: audit records a service keeps (see :func:`bound_audit_log`)
AUDIT_WINDOW = 4096
DEPARTMENTS = 4
TEAMS_PER_DEPARTMENT = 3
USERS_PER_TEAM = 4

#: every table has the same number of columns, so that which tables a
#: seed makes hot does not change how many bytes a response carries
COLUMNS = 12
_COLUMN_TYPES = ("INT", "BIGINT", "STRING", "DOUBLE", "TIMESTAMP", "BOOLEAN", "DATE")


@dataclass(frozen=True)
class Shape:
    catalogs: int
    schemas: int  # per catalog
    tables: int   # per schema
    views: int = 0

    @property
    def table_count(self) -> int:
        return self.catalogs * self.schemas * self.tables


E2000 = Shape(catalogs=8, schemas=5, tables=50, views=40)
E240 = Shape(catalogs=2, schemas=4, tables=30)
E96 = Shape(catalogs=2, schemas=4, tables=12)
E800 = Shape(catalogs=16, schemas=2, tables=25)


class Estate:
    """Ground truth for one workload: what exists and who may read it."""

    def __init__(self, seed: int, shape: Shape):
        rng = random.Random(f"estate/{seed}")
        self.seed = seed
        self.shape = shape
        self.catalogs = [f"c{i}" for i in range(shape.catalogs)]
        self.schemas = [f"{c}.s{j}" for c in self.catalogs
                        for j in range(shape.schemas)]
        #: full name -> {"columns": [...], "comment": str}
        self.tables: dict[str, dict[str, Any]] = {}
        for schema in self.schemas:
            for k in range(shape.tables):
                tag = "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(3))
                self.tables[f"{schema}.t{k:02d}_{tag}"] = {
                    "columns": [
                        {"name": f"c{i}", "type": rng.choice(_COLUMN_TYPES)}
                        for i in range(COLUMNS)
                    ],
                    "comment": f"seed {seed} table {k}",
                }
        self.table_names = list(self.tables)
        #: view full name -> the base tables it reads (same catalog)
        self.views: dict[str, tuple[str, ...]] = {}
        for v in range(shape.views):
            schema = self.schemas[v % len(self.schemas)]
            siblings = [t for t in self.table_names if t.startswith(schema + ".")]
            self.views[f"{schema}.v{v:02d}"] = tuple(rng.sample(siblings, 2))
        #: group -> direct members (users or groups): org > dept > team > user;
        #: ``auditors`` has no members, so a grant to it changes nobody's access
        self.groups: dict[str, list[str]] = {"org": [], "auditors": []}
        self.users: list[str] = []
        for d in range(DEPARTMENTS):
            self.groups["org"].append(f"dept{d}")
            self.groups[f"dept{d}"] = []
            for t in range(TEAMS_PER_DEPARTMENT):
                team = f"team{d}{t}"
                self.groups[f"dept{d}"].append(team)
                self.groups[team] = [f"u{d}{t}{k}" for k in range(USERS_PER_TEAM)]
                self.users.extend(self.groups[team])
        #: (kind, securable, grantee group, privilege): each department
        #: reads the catalogs congruent to it — USE CATALOG and SELECT on
        #: the catalog (inherited below), USE SCHEMA on each of its schemas
        self._stride = min(DEPARTMENTS, shape.catalogs)
        self.grants: list[tuple[SecurableKind, str, str, Privilege]] = []
        for index, catalog in enumerate(self.catalogs):
            for d in range(DEPARTMENTS):
                if d % self._stride != index % self._stride:
                    continue
                group = f"dept{d}"
                self.grants.append(
                    (SecurableKind.CATALOG, catalog, group, Privilege.USE_CATALOG))
                self.grants.append(
                    (SecurableKind.CATALOG, catalog, group, Privilege.SELECT))
                for j in range(shape.schemas):
                    self.grants.append((SecurableKind.SCHEMA, f"{catalog}.s{j}",
                                        group, Privilege.USE_SCHEMA))

    # -- the oracle's questions ---------------------------------------------

    def can_read(self, user: str, name: str) -> bool:
        """May ``user`` see and read the table/view/schema/catalog ``name``?"""
        department = int(user[1])
        catalog = int(name.split(".", 1)[0][1:])
        return department % self._stride == catalog % self._stride

    def readers(self, name: str) -> list[str]:
        return [u for u in self.users if self.can_read(u, name)]

    def strangers(self, name: str) -> list[str]:
        return [u for u in self.users if not self.can_read(u, name)]

    def grant_count(self, name: str) -> int:
        """Direct grants on the catalog or schema ``name``."""
        return sum(1 for grant in self.grants if grant[1] == name)

    def children(self, schema: str) -> list[str]:
        """Tables and views directly under ``schema`` (both list as TABLE)."""
        prefix = schema + "."
        return [n for n in list(self.tables) + list(self.views)
                if n.startswith(prefix)]

    def reader_sets(self, names, rng, per_name: int) -> dict[str, list[str]]:
        """``per_name`` fixed readers for each distinct name. Drawing a
        request's principal from its table's set keeps the (principal,
        table) pairs a workload touches a closed set, so the decision
        cache stops growing once the warm-up has seen each pair."""
        return {name: rng.sample(self.readers(name), per_name)
                for name in dict.fromkeys(names)}

    # -- popularity -----------------------------------------------------------

    def hot_names(self, count: int, seed_salt: str = "") -> list[str]:
        """``count`` table names in the order ``repro.workloads`` would
        access them: a quarter of the tables are hot and re-accessed in
        log-normal bursts (the paper's Figure 5 temporal locality)."""
        tables = [
            Entity(id=name, kind=SecurableKind.TABLE, name=name,
                   metastore_id=METASTORE, parent_id=None, owner=ADMIN,
                   created_at=0.0, updated_at=0.0)
            for name in self.table_names
        ]
        deployment = SyntheticDeployment(config=DeploymentConfig(), tables=tables)
        hot = max(1, len(tables) // 4)
        # a hot table is re-accessed every ~46 s on average at the
        # generator's leaf P90 of 100 s; size the horizon to need
        duration = max(600.0, 46.0 * 1.5 * count / hot)
        seed = random.Random(f"trace/{self.seed}/{seed_salt}").getrandbits(31)
        events = generate_trace(
            deployment, TraceConfig(seed=seed, duration_seconds=duration)
        )
        names = [event.entity_id for event in events]
        if len(names) < count:
            raise ValueError(f"trace gave {len(names)} accesses, need {count}")
        return names[:count]


def bound_audit_log(service) -> None:
    """Give ``service`` an audit log that keeps its last ``AUDIT_WINDOW``
    records (``AuditLog(max_records=...)``, the program's own option).

    The default log keeps every record, and a run then slows down with
    its own length — resolve_hot fell from 5,000 to 3,000 ops/s within
    half a minute, generation-2 collections walking an ever larger heap
    and page faults taking a tenth of the CPU — so a window would measure
    how long the process had been up, not the program. Sequence numbers
    keep counting, so the oracle still knows how many were written.
    """
    service.audit = AuditLog(max_records=AUDIT_WINDOW)


def audit_records_written(service) -> int:
    last = service.audit.tail(1)
    return last[0].sequence + 1 if last else 0


def build(
    estate: Estate,
    directory,
    call: Callable[..., Any],
    after_catalog: Optional[Callable[[str, str], None]] = None,
) -> str:
    """Create the estate through the public API; returns the metastore id.

    ``call(api, **params)`` is ``service.dispatch`` or ``cluster.dispatch``;
    ``after_catalog(metastore_id, catalog)`` runs while the new catalog is
    still empty (the cluster workload places it on its shard there).
    """
    directory.add_user(ADMIN)
    for user in estate.users:
        directory.add_user(user)
    for group in estate.groups:
        directory.add_group(group)
    for group, members in estate.groups.items():
        for member in members:
            directory.add_member(group, member)
    mid = call("create_metastore", name=METASTORE, owner=ADMIN).id

    def create(kind: SecurableKind, name: str, **extra: Any) -> None:
        call("create_securable", metastore_id=mid, principal=ADMIN,
             kind=kind, name=name, **extra)

    for catalog in estate.catalogs:
        create(SecurableKind.CATALOG, catalog)
        if after_catalog is not None:
            after_catalog(mid, catalog)
    for schema in estate.schemas:
        create(SecurableKind.SCHEMA, schema)
    for name, table in estate.tables.items():
        create(SecurableKind.TABLE, name, comment=table["comment"],
               spec={"table_type": "MANAGED", "format": "DELTA",
                     "columns": table["columns"]})
    for name, dependencies in estate.views.items():
        create(SecurableKind.TABLE, name,
               spec={"table_type": "VIEW",
                     "view_definition": "SELECT * FROM " + " JOIN ".join(dependencies),
                     "view_dependencies": list(dependencies)})
    for kind, name, grantee, privilege in estate.grants:
        call("grant", metastore_id=mid, principal=ADMIN, kind=kind, name=name,
             grantee=grantee, privilege=privilege)
    return mid
