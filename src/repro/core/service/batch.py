"""Batched metadata resolution for queries (paper sections 3.4, 4.5).

"UC consolidates all metadata access for a query into a single batched
API call": the engine submits every securable reference found during
parsing, and the catalog returns — under one consistent metastore
snapshot — the metadata, authorization outcome, FGAC enforcement rules,
dependency closure (views expand to their base tables), and, on request,
the temporary storage credentials for every physical table involved.

View-based access control: a caller with SELECT on a view may read
through it without privileges on its base tables, so dependencies pulled
in by a view resolve under the *view's* authority, not the caller's, and
such query plans are restricted to trusted engines.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.cloudstore.sts import AccessLevel, TemporaryCredential
from repro.core.auth.fgac import FgacRuleSet
from repro.core.model.entity import Entity, SecurableKind
from repro.core.persistence.store import Tables
from repro.core.view import MetastoreView
from repro.errors import InvalidRequestError, UntrustedEngineError

_MAX_VIEW_DEPTH = 32


@dataclass
class ResolvedAsset:
    """Everything an engine needs to plan against one securable."""

    full_name: str
    entity: Entity
    table_type: Optional[str]
    format: Optional[str]
    columns: list[dict]
    storage_url: Optional[str]
    credential: Optional[TemporaryCredential]
    fgac: FgacRuleSet
    view_definition: Optional[str]
    dependencies: tuple[str, ...]
    #: True when pulled in as a view dependency (resolved under the view's
    #: authority rather than the caller's own grants).
    via_view: bool = False

    @property
    def requires_trusted_engine(self) -> bool:
        return not self.fgac.is_empty or self.via_view


@dataclass
class QueryResolution:
    """The single batched response for one query's metadata needs."""

    metastore_version: int
    principal: str
    assets: dict[str, ResolvedAsset] = field(default_factory=dict)
    functions: dict[str, ResolvedAsset] = field(default_factory=dict)
    #: Populated only on cluster-merged resolutions: catalog route key ->
    #: the version of the shard store that resolved that catalog's assets.
    #: Each shard versions its store independently, so the scalar
    #: ``metastore_version`` of a merged resolution (the max over shards)
    #: corresponds to no single shard's snapshot and MUST NOT be used for
    #: version pinning — pin against the entry for the asset's catalog.
    catalog_versions: dict[str, int] = field(default_factory=dict)
    #: branch the resolution was taken on (``None`` = trunk/main). A
    #: branched resolution pins per ``catalog@branch`` so merged cluster
    #: responses never mix trunk and branch versions under one key.
    branch: Optional[str] = None

    @property
    def requires_trusted_engine(self) -> bool:
        return any(a.requires_trusted_engine for a in self.assets.values())

    def asset(self, name: str) -> ResolvedAsset:
        return self.assets[name]

    def pin_key(self, name: str) -> str:
        """``catalog_versions`` key for ``name``: the catalog route key,
        branch-qualified when the resolution was taken on a branch."""
        key = name.split(".", 1)[0]
        if self.branch is not None:
            key = f"{key}@{self.branch}"
        return key

    def pinnable_version(self, name: str) -> int:
        """The store version to pin for ``name``'s catalog: per-catalog
        (and per-branch) on a cluster-merged resolution, the scalar one
        otherwise."""
        if self.catalog_versions:
            return self.catalog_versions.get(
                self.pin_key(name), self.metastore_version
            )
        return self.metastore_version


class QueryResolver:
    """Implements the batched resolution API on top of the service."""

    def __init__(self, service):
        self._service = service

    def resolve(
        self,
        metastore_id: str,
        principal: str,
        table_names: list[str],
        *,
        write_tables: tuple[str, ...] = (),
        function_names: tuple[str, ...] = (),
        include_credentials: bool = True,
        engine_trusted: Optional[bool] = None,
        workspace: Optional[str] = None,
    ) -> QueryResolution:
        """Resolve all metadata for one query in a single call.

        ``engine_trusted`` defaults to the directory's knowledge of the
        calling principal (machine identities of sandboxed engines are
        marked trusted). ``workspace`` enforces catalog bindings.
        """
        service = self._service
        view: MetastoreView = service.view(metastore_id)
        if engine_trusted is None:
            engine_trusted = service.directory.is_trusted_engine(principal)

        # a branch-pinned view stamps the resolution, so version pins key
        # per (catalog, branch) instead of colliding with trunk pins
        branch_key = getattr(view, "branch", None)
        resolution = QueryResolution(
            metastore_version=view.version,
            principal=principal,
            branch=branch_key.split("@", 1)[1] if branch_key else None,
        )
        write_set = set(write_tables)
        for name in write_set - set(table_names):
            raise InvalidRequestError(
                f"write table {name!r} missing from table_names"
            )

        cache = service._hot_caches_for(metastore_id, view)
        # BFS over (name, authorize_as_caller, depth), one *wave* (the
        # current frontier — initially the query's table list, then each
        # round of view dependencies) at a time: every wave resolves all
        # its names first so auxiliary rows for the whole wave can be
        # pulled with one batched store read instead of N point reads.
        queue: deque[tuple[str, bool, int]] = deque(
            (name, True, 0) for name in dict.fromkeys(table_names)
        )
        while queue:
            wave: list[tuple[str, bool, int, Entity]] = []
            seen: set[str] = set()
            while queue:
                name, as_caller, depth = queue.popleft()
                if name in resolution.assets or name in seen:
                    continue
                if depth > _MAX_VIEW_DEPTH:
                    raise InvalidRequestError(
                        f"view nesting deeper than {_MAX_VIEW_DEPTH}"
                    )
                entity = service._resolve(
                    view, metastore_id, SecurableKind.TABLE, name
                )
                seen.add(name)
                wave.append((name, as_caller, depth, entity))
            view.prefetch_rows(Tables.TAGS, [w[3].id for w in wave])
            for name, as_caller, depth, entity in wave:
                service.check_workspace_binding(metastore_id, entity, workspace)
                operation = "write_data" if name in write_set else "read_data"
                if as_caller:
                    service._authorize(
                        view, metastore_id, principal, entity, operation, name
                    )
                fgac = service.authorizer.fgac_rules_for(
                    view, entity, principal, cache
                )
                if not fgac.is_empty and not engine_trusted:
                    raise UntrustedEngineError(
                        f"table {name} carries fine-grained policies; only trusted "
                        "engines may receive its enforcement rules"
                    )
                table_type = entity.spec.get("table_type")
                dependencies = tuple(entity.spec.get("view_dependencies") or ())
                if entity.spec.get("base_table"):
                    dependencies = dependencies + (entity.spec["base_table"],)
                credential = None
                if (
                    include_credentials
                    and entity.storage_path
                    and table_type not in ("VIEW", "FOREIGN")
                ):
                    level = (
                        AccessLevel.READ_WRITE
                        if name in write_set
                        else AccessLevel.READ
                    )
                    credential = service.vendor.vend(view, entity, level)
                resolution.assets[name] = ResolvedAsset(
                    full_name=name,
                    entity=entity,
                    table_type=table_type,
                    format=entity.spec.get("format"),
                    columns=list(entity.plain_spec.get("columns") or ()),
                    storage_url=entity.storage_path,
                    credential=credential,
                    fgac=fgac,
                    view_definition=entity.spec.get("view_definition"),
                    dependencies=dependencies,
                    via_view=not as_caller,
                )
                for dependency in dependencies:
                    # dependencies of a view resolve under the view's authority
                    queue.append((dependency, False, depth + 1))

        if resolution.requires_trusted_engine and not engine_trusted:
            raise UntrustedEngineError(
                "query touches views or FGAC-governed tables; use a trusted "
                "engine or the data filtering service"
            )

        for name in dict.fromkeys(function_names):
            entity = service._resolve(view, metastore_id, SecurableKind.FUNCTION, name)
            service._authorize(view, metastore_id, principal, entity, "execute", name)
            resolution.functions[name] = ResolvedAsset(
                full_name=name,
                entity=entity,
                table_type=None,
                format=None,
                columns=[],
                storage_url=None,
                credential=None,
                fgac=FgacRuleSet(),
                view_definition=entity.spec.get("definition"),
                dependencies=tuple(entity.spec.get("function_dependencies") or ()),
            )

        service._audit(
            metastore_id, principal, "resolve_query",
            ",".join(table_names) or "<none>", True,
            assets=len(resolution.assets), functions=len(resolution.functions),
        )
        return resolution
