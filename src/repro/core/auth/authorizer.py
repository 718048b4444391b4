"""The single authorization decision point (paper sections 3.3, 4.3).

"[The Unity Catalog service] is the sole authority to make access control
decisions based on these governance metadata."

The authorizer implements:

* ownership and MANAGE with administrative inheritance down the hierarchy,
* privilege inheritance (a grant on a container covers all descendants),
* usage gates (USE CATALOG / USE SCHEMA) on the ancestor chain,
* the owner/data separation: container admins do **not** implicitly gain
  data privileges on descendants,
* dynamic ABAC GRANT policies matched against securable tags,
* FGAC rule assembly (explicit row filters / column masks plus ABAC
  mask/filter policies matched against column tags).

It also exposes the efficient ``visible``/``filter_visible`` entry points
that second-tier discovery services use to authorize search results
(section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.auth.abac import AbacEffect, AbacPolicy
from repro.core.auth.fgac import ColumnMask, FgacRuleSet, RowFilter
from repro.core.auth.principals import PrincipalDirectory
from repro.core.auth.privileges import Privilege
from repro.core.model.entity import Entity, SecurableKind
from repro.core.model.registry import AssetTypeRegistry
from repro.core.cache.decisions import HotPathCaches
from repro.core.persistence.store import Tables
from repro.core.view import MetastoreView
from repro.errors import PermissionDeniedError

#: identity memo entries kept before a wholesale clear
_IDENTITY_MEMO_CAP = 4096

#: Operations that administrative rights (ownership / MANAGE, possibly on
#: an ancestor) are sufficient for.
_ADMIN_OPERATIONS = frozenset(
    {"update", "delete", "grant", "transfer_ownership", "manage_policies",
     "apply_tag"}
)

#: Operations that touch data and therefore never fall back to *ancestor*
#: administrative rights (the paper's owner/data separation).
_DATA_OPERATIONS = frozenset({"read_data", "write_data", "execute"})

#: Container-scoped privileges that do NOT propagate metadata visibility
#: to descendants: holding USE SCHEMA (or a creation right) on a container
#: reveals the container itself, not everything inside it.
_NON_INHERITING_VISIBILITY = frozenset(
    {
        Privilege.USE_CATALOG,
        Privilege.USE_SCHEMA,
        Privilege.CREATE_CATALOG,
        Privilege.CREATE_SCHEMA,
        Privilege.CREATE_TABLE,
        Privilege.CREATE_VOLUME,
        Privilege.CREATE_FUNCTION,
        Privilege.CREATE_MODEL,
        Privilege.CREATE_EXTERNAL_LOCATION,
        Privilege.CREATE_STORAGE_CREDENTIAL,
        Privilege.CREATE_CONNECTION,
        Privilege.CREATE_SHARE,
        Privilege.CREATE_RECIPIENT,
    }
)


@dataclass(frozen=True)
class AccessDecision:
    """Outcome of one authorization check (recorded in the audit log)."""

    allowed: bool
    reason: str

    def raise_if_denied(self) -> None:
        if not self.allowed:
            raise PermissionDeniedError(self.reason)


@dataclass(frozen=True)
class Visibility:
    """A visibility answer and what it depends on.

    ``subtree`` is False when ownership, MANAGE or a grant on the
    entity's own chain decided it — an allow found on the chain cannot be
    revoked by anything off the chain — or when it is a denial on a kind
    nothing can live under. True means the subtree was consulted (grants
    on descendants, ABAC), so a change anywhere below can alter it and
    the decision cache files it as subtree-scoped.
    """

    allowed: bool
    subtree: bool


_VISIBLE_ON_CHAIN = Visibility(True, subtree=False)
_VISIBLE_BELOW = Visibility(True, subtree=True)


class Authorizer:
    """Stateless decision logic over a :class:`MetastoreView`."""

    def __init__(self, registry: AssetTypeRegistry, directory: PrincipalDirectory):
        self._registry = registry
        self._directory = directory
        #: principal -> (directory generation, expanded identity set)
        self._identity_memo: dict[str, tuple[int, frozenset[str]]] = {}
        # plain-int work counters the hot-path benchmark charges simulated
        # costs against (scrape-time export; zero hot-path metrics cost)
        self.evaluations = 0
        self.identity_expansions = 0
        self.grant_rows_examined = 0
        self.policy_rows_examined = 0

    # -- identity ------------------------------------------------------------

    def identities(self, principal: str) -> frozenset[str]:
        """The principal plus its transitive group memberships.

        Memoized per directory generation: the fixed-point group expansion
        runs once per principal until the directory mutates.
        """
        generation = self._directory.generation
        memo = self._identity_memo.get(principal)
        if memo is not None and memo[0] == generation:
            return memo[1]
        self.identity_expansions += 1
        if self._directory.exists(principal):
            expanded = self._directory.expand(principal)
        else:
            expanded = frozenset({principal})
        if len(self._identity_memo) >= _IDENTITY_MEMO_CAP:
            self._identity_memo.clear()
        self._identity_memo[principal] = (generation, expanded)
        return expanded

    # -- ownership and administration -----------------------------------------

    def _owns(self, entity: Entity, identities: frozenset[str]) -> bool:
        return entity.owner in identities

    def _has_direct_grant(
        self,
        view: MetastoreView,
        securable_id: str,
        privilege: Privilege,
        identities: frozenset[str],
    ) -> bool:
        grants = view.grants_on(securable_id)
        self.grant_rows_examined += len(grants)
        for grant in grants:
            if grant.privilege is privilege and grant.principal in identities:
                return True
        return False

    def _chain(
        self,
        view: MetastoreView,
        entity: Entity,
        cache: Optional[HotPathCaches] = None,
    ) -> list[Entity]:
        """Entity followed by its ancestors (nearest first, metastore last)."""
        if cache is not None:
            return list(cache.chain(view, entity))
        return [entity] + view.ancestors(entity)

    def is_owner_or_admin(
        self,
        view: MetastoreView,
        entity: Entity,
        identities: frozenset[str],
        cache: Optional[HotPathCaches] = None,
    ) -> bool:
        """Ownership or MANAGE on the entity or any ancestor.

        Administrative rights are inherited down the hierarchy (paper 3.3).
        """
        if cache is not None:
            key = (identities, entity.id, "admin")
            hit = cache.get_decision(key)
            if hit is not None:
                return hit.allowed
        allowed = False
        for securable in self._chain(view, entity, cache):
            if self._owns(securable, identities):
                allowed = True
                break
            if self._has_direct_grant(view, securable.id, Privilege.MANAGE, identities):
                allowed = True
                break
        if cache is not None:
            cache.put_decision(
                key, AccessDecision(allowed, "owner-or-admin"), identities,
                view, entity,
            )
        return allowed

    def is_direct_owner_or_admin(
        self, view: MetastoreView, entity: Entity, identities: frozenset[str]
    ) -> bool:
        """Ownership or MANAGE on the entity itself (no inheritance)."""
        if self._owns(entity, identities):
            return True
        return self._has_direct_grant(view, entity.id, Privilege.MANAGE, identities)

    # -- privilege evaluation ----------------------------------------------------

    def tags_of(self, view: MetastoreView, securable_id: str) -> dict[str, str]:
        row = view.row(Tables.TAGS, securable_id)
        return dict(row.get("tags", {})) if row else {}

    def column_tags_of(self, view: MetastoreView, securable_id: str) -> dict[str, dict[str, str]]:
        row = view.row(Tables.TAGS, securable_id)
        return {c: dict(t) for c, t in row.get("column_tags", {}).items()} if row else {}

    def _abac_policies(self, view: MetastoreView) -> list[AbacPolicy]:
        """The metastore's ABAC policies by name: the rules they add come
        out in one order whatever ids the store keys them by."""
        policies = []
        for key, value in view.rows(Tables.POLICIES):
            self.policy_rows_examined += 1
            if value.get("policy_type") == "ABAC":
                policies.append(AbacPolicy.from_dict(value))
        return sorted(policies, key=lambda p: (p.name, p.policy_id))

    def _abac_granted(
        self,
        view: MetastoreView,
        entity: Entity,
        privilege: Privilege,
        identities: frozenset[str],
        cache: Optional[HotPathCaches] = None,
    ) -> bool:
        """Dynamic GRANT policies: does one grant ``privilege`` here?"""
        policies = [
            p for p in self._abac_policies(view)
            if p.effect is AbacEffect.GRANT and p.privilege is privilege
        ]
        if not policies:
            return False
        scope_ids = {securable.id for securable in self._chain(view, entity, cache)}
        tags = self.tags_of(view, entity.id)
        for policy in policies:
            if policy.scope_id not in scope_ids:
                continue
            if not policy.affects(identities) or policy.exempts(identities):
                continue
            if not policy.condition.on_columns and policy.condition.matches(tags):
                return True
        return False

    def has_privilege(
        self,
        view: MetastoreView,
        entity: Entity,
        privilege: Privilege,
        identities: frozenset[str],
        cache: Optional[HotPathCaches] = None,
    ) -> bool:
        """Privilege inheritance: a grant on the entity or any ancestor."""
        if cache is not None:
            key = (identities, entity.id, "has:" + privilege.value)
            hit = cache.get_decision(key)
            if hit is not None:
                return hit.allowed
        allowed = any(
            self._has_direct_grant(view, securable.id, privilege, identities)
            for securable in self._chain(view, entity, cache)
        ) or self._abac_granted(view, entity, privilege, identities, cache)
        if cache is not None:
            cache.put_decision(
                key, AccessDecision(allowed, "privilege-inheritance"), identities,
                view, entity,
            )
        return allowed

    # -- usage gates --------------------------------------------------------------

    def check_usage_gates(
        self,
        view: MetastoreView,
        entity: Entity,
        identities: frozenset[str],
        cache: Optional[HotPathCaches] = None,
    ) -> AccessDecision:
        """USE CATALOG / USE SCHEMA checks along the ancestor chain.

        Owning (or having MANAGE on) a container implies its usage
        privilege, since owners hold all privileges on their objects.
        """
        if cache is not None:
            key = (identities, entity.id, "gates")
            hit = cache.get_decision(key)
            if hit is not None:
                return hit
        decision = AccessDecision(True, "usage gates satisfied")
        for ancestor in self._chain(view, entity, cache)[1:]:
            if ancestor.kind is SecurableKind.CATALOG:
                needed = Privilege.USE_CATALOG
            elif ancestor.kind is SecurableKind.SCHEMA:
                needed = Privilege.USE_SCHEMA
            else:
                continue
            if self.is_owner_or_admin(view, ancestor, identities, cache):
                continue
            if not self.has_privilege(view, ancestor, needed, identities, cache):
                decision = AccessDecision(
                    False,
                    f"missing {needed.value} on {ancestor.kind.value.lower()} "
                    f"{ancestor.name!r}",
                )
                break
        if cache is not None:
            cache.put_decision(key, decision, identities, view, entity)
        return decision

    # -- the main entry point --------------------------------------------------------

    def authorize(
        self,
        view: MetastoreView,
        entity: Entity,
        operation: str,
        principal: str,
        cache: Optional[HotPathCaches] = None,
    ) -> AccessDecision:
        """Decide whether ``principal`` may perform ``operation`` on ``entity``."""
        if cache is not None:
            key = (principal, entity.id, operation)
            hit = cache.get_decision(key)
            if hit is not None:
                return hit
        self.evaluations += 1
        identities = self.identities(principal)
        subtree = False
        if operation == "read_metadata":
            seen = self._visibility(view, entity, identities, cache)
            subtree = seen.subtree  # same answer, same dependencies
            decision = (
                AccessDecision(True, "metadata visible") if seen.allowed
                else AccessDecision(
                    False, f"no privileges on {entity.name!r} or its children"
                )
            )
        else:
            decision = self._authorize_uncached(
                view, entity, operation, principal, identities, cache
            )
        if cache is not None:
            cache.put_decision(
                key, decision, identities, view, entity, subtree=subtree
            )
        return decision

    def _authorize_uncached(
        self,
        view: MetastoreView,
        entity: Entity,
        operation: str,
        principal: str,
        identities: frozenset[str],
        cache: Optional[HotPathCaches] = None,
    ) -> AccessDecision:
        """Every operation but ``read_metadata`` (which is visibility)."""
        gates = self.check_usage_gates(view, entity, identities, cache)
        if not gates.allowed:
            return gates

        # Direct ownership/MANAGE of the securable itself confers all
        # privileges on it, including data access.
        if self.is_direct_owner_or_admin(view, entity, identities):
            return AccessDecision(True, "owner of securable")

        # Ancestor administrative rights cover admin operations only —
        # never data (the paper's owner/data separation).
        if operation in _ADMIN_OPERATIONS and self.is_owner_or_admin(
            view, entity, identities, cache
        ):
            return AccessDecision(True, "administrator of ancestor container")

        manifest = self._registry.maybe_get(entity.kind)
        if manifest is None:
            return AccessDecision(False, f"unknown securable kind {entity.kind}")
        if operation in _ADMIN_OPERATIONS and operation not in manifest.operation_rules:
            # purely administrative operations have no privilege fallback
            return AccessDecision(
                False,
                f"{principal!r} is not an owner or administrator of "
                f"{entity.name!r}",
            )
        required = manifest.privilege_for_operation(operation)
        if self.has_privilege(view, entity, required, identities, cache):
            return AccessDecision(True, f"{required.value} granted")
        return AccessDecision(
            False,
            f"{principal!r} lacks {required.value} on {entity.kind.value.lower()} "
            f"{entity.name!r}",
        )

    # -- visibility (discovery authorization API, section 4.4) -----------------------

    def visible(
        self,
        view: MetastoreView,
        entity: Entity,
        identities: frozenset[str],
        cache: Optional[HotPathCaches] = None,
    ) -> bool:
        """Metadata visibility: admin rights, any privilege on the entity
        or an ancestor, or any grant anywhere in the entity's subtree
        (so containers of accessible assets can be browsed)."""
        return self._visibility(view, entity, identities, cache).allowed

    def _visibility(
        self,
        view: MetastoreView,
        entity: Entity,
        identities: frozenset[str],
        cache: Optional[HotPathCaches] = None,
    ) -> Visibility:
        """:meth:`visible` with the scope of the answer (cached with it,
        so a hit knows what it depends on too)."""
        if cache is not None:
            key = (identities, entity.id, "visible")
            hit = cache.get_decision(key)
            if hit is not None:
                return hit
        seen = self._visible_uncached(view, entity, identities, cache)
        if cache is not None:
            cache.put_decision(
                key, seen, identities, view, entity, subtree=seen.subtree
            )
        return seen

    def _visible_uncached(
        self,
        view: MetastoreView,
        entity: Entity,
        identities: frozenset[str],
        cache: Optional[HotPathCaches] = None,
    ) -> Visibility:
        if self.is_owner_or_admin(view, entity, identities, cache):
            return _VISIBLE_ON_CHAIN
        for securable in self._chain(view, entity, cache):
            grants = view.grants_on(securable.id)
            self.grant_rows_examined += len(grants)
            for grant in grants:
                if grant.principal not in identities:
                    continue
                if securable.id == entity.id:
                    return _VISIBLE_ON_CHAIN  # any privilege on the entity itself
                if grant.privilege not in _NON_INHERITING_VISIBILITY:
                    # inheritable privileges reveal descendants
                    return _VISIBLE_ON_CHAIN
        # grants on descendants make the container browsable
        for key, value in view.rows(Tables.GRANTS):
            self.grant_rows_examined += 1
            if value.get("principal") not in identities:
                continue
            granted_entity = view.entity_by_id(value["securable_id"])
            while granted_entity is not None:
                if granted_entity.id == entity.id:
                    return _VISIBLE_BELOW
                if granted_entity.parent_id is None:
                    break
                granted_entity = view.entity_by_id(granted_entity.parent_id)
        # ABAC GRANT policies can also make an asset visible
        for privilege in (Privilege.SELECT, Privilege.READ_VOLUME,
                          Privilege.EXECUTE, Privilege.BROWSE):
            if self._abac_granted(view, entity, privilege, identities, cache):
                return _VISIBLE_BELOW
        # nothing can be granted beneath a kind that has no child kinds,
        # so only the chain could ever make such an entity visible
        return Visibility(
            False, subtree=bool(self._registry.children_of(entity.kind))
        )

    def filter_visible(
        self,
        view: MetastoreView,
        entities: list[Entity],
        principal: str,
        cache: Optional[HotPathCaches] = None,
    ) -> list[Entity]:
        """Authorization API for second-tier services: keep only entities
        whose metadata ``principal`` may see (used by search)."""
        identities = self.identities(principal)
        return [e for e in entities if self.visible(view, e, identities, cache)]

    # -- FGAC rule assembly (section 4.3.2) ---------------------------------------------

    def fgac_rules_for(
        self,
        view: MetastoreView,
        table: Entity,
        principal: str,
        cache: Optional[HotPathCaches] = None,
    ) -> FgacRuleSet:
        """All row filters / column masks applying to ``principal`` on a table."""
        if cache is not None:
            key = (principal, table.id, "fgac")
            hit = cache.get_decision(key)
            if hit is not None:
                return hit
        rules = self._fgac_rules_uncached(view, table, principal, cache)
        if cache is not None:
            cache.put_decision(
                key, rules, self.identities(principal), view, table
            )
        return rules

    def _fgac_rules_uncached(
        self,
        view: MetastoreView,
        table: Entity,
        principal: str,
        cache: Optional[HotPathCaches] = None,
    ) -> FgacRuleSet:
        identities = self.identities(principal)

        row_filters: list[RowFilter] = []
        column_masks: list[ColumnMask] = []

        # explicit per-table policies
        for key, value in view.rows(Tables.POLICIES):
            self.policy_rows_examined += 1
            policy_type = value.get("policy_type")
            if policy_type == "ROW_FILTER" and value["securable_id"] == table.id:
                row_filters.append(RowFilter.from_dict(value))
            elif policy_type == "COLUMN_MASK" and value["securable_id"] == table.id:
                column_masks.append(ColumnMask.from_dict(value))

        # ABAC mask/filter policies in scope
        scope_ids = {securable.id for securable in self._chain(view, table, cache)}
        table_tags = self.tags_of(view, table.id)
        column_tags = self.column_tags_of(view, table.id)
        for policy in self._abac_policies(view):
            if policy.scope_id not in scope_ids:
                continue
            if not policy.affects(identities):
                continue
            if policy.effect is AbacEffect.FILTER_ROWS:
                if not policy.condition.on_columns and policy.condition.matches(table_tags):
                    row_filters.append(policy.as_row_filter(table.id))
            elif policy.effect is AbacEffect.MASK_COLUMNS:
                for column, tags in column_tags.items():
                    if policy.condition.matches(tags):
                        column_masks.append(policy.as_column_mask(table.id, column))

        rules = FgacRuleSet(
            row_filters=tuple(row_filters), column_masks=tuple(column_masks)
        )
        return rules.applicable_to(identities)
