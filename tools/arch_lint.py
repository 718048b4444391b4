#!/usr/bin/env python3
"""Architecture lint for the service layer (fails CI on layering breaks).

The request-pipeline refactor established hard layering rules:

1. **Domain modules are islands.** A domain service under
   ``repro.core.service.domains`` may depend on the kernel,
   the registry/pipeline infrastructure, and the model/auth/persistence
   layers — but never on a *sibling* domain, the facade, or the REST
   router. Cross-domain needs must go through the kernel or the
   registry.
2. **The kernel points strictly inward.** ``kernel.py`` must not import
   domain modules, the facade, or the router.
3. **The REST router stays generic.** ``rest.py`` must not import domain
   modules or the facade, must not define per-endpoint marshalling
   helpers (``_bind_*`` / ``_render_*`` belong next to the endpoint in
   its domain module), and must not name registry endpoints in string
   literals — its route table is *generated* from the registry, so any
   hard-coded endpoint name means business logic is creeping back in.

The parallel serving tier added a concurrency rule:

4. **Shared hot-path state mutates under a lock.** Modules under
   ``repro.core.cache`` and ``repro.core.cluster`` are reached from
   every serving thread at once. Any method that mutates instance
   container state (``self.x[k] = v``, ``self.x += 1``,
   ``self.x.append(...)``, ``del self.x[k]``…) must do so inside
   ``with self._lock:`` on a declared ``_lock`` attribute. Helpers
   that run entirely under a caller's lock are exempted by the
   explicit allowlist below — adding to it is a code-review decision,
   not a convenience.

The branching refactor added a version-resolution rule:

5. **Layers above persistence resolve versions through the branch
   gates.** With branches in the store, ``store.current_version`` /
   ``store.snapshot`` name the *trunk's* raw head — code above the
   persistence layer that calls them directly silently ignores the
   request's branch and AS OF pins. Service and cluster code must go
   through the kernel gates (``view`` / ``raw_snapshot`` /
   ``head_version``) or :mod:`repro.core.persistence.branching`'s
   ``resolve_head``. Version-machinery internals (replication,
   rebalancing exports, the trunk cache node) are exempted by the
   explicit allowlist below — they move raw stores, overlay rows
   included, by design.

Run from the repository root::

    python tools/arch_lint.py

Exits non-zero listing every violation.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SERVICE = REPO / "src" / "repro" / "core" / "service"
DOMAINS = SERVICE / "domains"

DOMAINS_PKG = "repro.core.service.domains"
FACADE_MOD = "repro.core.service.catalog_service"
REST_MOD = "repro.core.service.rest"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _module_name(path: Path) -> str:
    relative = path.relative_to(REPO / "src").with_suffix("")
    return ".".join(relative.parts)


def imported_modules(tree: ast.Module, importer: str) -> set[str]:
    """Fully qualified module names imported anywhere in the file."""
    found: set[str] = set()
    package_parts = importer.split(".")[:-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # resolve `from . import x` style imports
                base = ".".join(package_parts[: len(package_parts)
                                              - node.level + 1])
            else:
                base = node.module or ""
            if node.level and node.module:
                base = f"{base}.{node.module}" if base else node.module
            if base:
                found.add(base)
            for alias in node.names:
                found.add(f"{base}.{alias.name}" if base else alias.name)
    return found


def _violates(imports: set[str], forbidden: str) -> bool:
    return any(
        name == forbidden or name.startswith(forbidden + ".")
        for name in imports
    )


def check_domain_isolation() -> list[str]:
    """Rule 1: no domain imports a sibling domain, the facade, or rest."""
    errors = []
    modules = sorted(
        p for p in DOMAINS.glob("*.py") if p.name != "__init__.py"
    )
    for path in modules:
        importer = _module_name(path)
        imports = imported_modules(_parse(path), importer)
        for sibling in modules:
            sibling_mod = _module_name(sibling)
            if sibling_mod == importer:
                continue
            if _violates(imports, sibling_mod):
                errors.append(
                    f"{path.relative_to(REPO)}: domain imports sibling "
                    f"domain {sibling_mod} — route through the kernel or "
                    "registry instead"
                )
        for forbidden in (FACADE_MOD, REST_MOD):
            if _violates(imports, forbidden):
                errors.append(
                    f"{path.relative_to(REPO)}: domain imports outer "
                    f"layer {forbidden}"
                )
    return errors


def check_kernel_points_inward() -> list[str]:
    """Rule 2: the kernel never imports domains, the facade, or rest."""
    errors = []
    path = SERVICE / "kernel.py"
    imports = imported_modules(_parse(path), _module_name(path))
    for forbidden in (DOMAINS_PKG, FACADE_MOD, REST_MOD):
        if _violates(imports, forbidden):
            errors.append(
                f"{path.relative_to(REPO)}: kernel imports outer layer "
                f"{forbidden} — dependencies must point strictly inward"
            )
    return errors


def _registered_endpoint_names() -> set[str]:
    """Endpoint names declared by the domain modules, read via AST (the
    lint must not import the code it is judging)."""
    names: set[str] = set()
    for path in DOMAINS.glob("*.py"):
        for node in ast.walk(_parse(path)):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "EndpointDescriptor"
            ):
                for keyword in node.keywords:
                    if keyword.arg == "name" and isinstance(
                        keyword.value, ast.Constant
                    ):
                        names.add(keyword.value.value)
    return names


def check_rest_stays_generic() -> list[str]:
    """Rule 3: rest.py has no per-endpoint business logic."""
    errors = []
    path = SERVICE / "rest.py"
    tree = _parse(path)
    imports = imported_modules(tree, _module_name(path))
    for forbidden in (DOMAINS_PKG, FACADE_MOD):
        if _violates(imports, forbidden):
            errors.append(
                f"{path.relative_to(REPO)}: router imports {forbidden} — "
                "marshalling belongs in the domain's RestBinding"
            )
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith(("_bind_", "_render_")):
                errors.append(
                    f"{path.relative_to(REPO)}:{node.lineno}: per-endpoint "
                    f"marshalling helper {node.name!r} in the router — move "
                    "it next to its EndpointDescriptor"
                )
    endpoint_names = _registered_endpoint_names()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value in endpoint_names:
                errors.append(
                    f"{path.relative_to(REPO)}:{node.lineno}: endpoint name "
                    f"{node.value!r} hard-coded in the router — routes are "
                    "generated from the registry"
                )
    return errors


# -- rule 4: concurrency guards ---------------------------------------------

#: directories whose classes serve every request thread concurrently
CONCURRENT_PACKAGES = (
    REPO / "src" / "repro" / "core" / "cache",
    REPO / "src" / "repro" / "core" / "cluster",
)

#: ``module:Class.method`` entries exempt from rule 4, each with the
#: reason it is safe. Every entry is a *helper that only runs while its
#: caller already holds the guarding lock* — extending this list is a
#: review decision, not a convenience.
CONCURRENCY_ALLOWLIST: dict[str, str] = {
    # AuthDecisionCache / ResolutionCache are deliberately lock-free:
    # every access goes through the owning HotPathCaches bundle, whose
    # RLock wraps get/put/invalidate/sync end to end.
    "repro.core.cache.decisions:_ChainIndex.file":
        "only reached via HotPathCaches under its RLock",
    "repro.core.cache.decisions:_ChainIndex.release":
        "only reached via HotPathCaches under its RLock",
    "repro.core.cache.decisions:AuthDecisionCache.put":
        "only reached via HotPathCaches under its RLock",
    "repro.core.cache.decisions:AuthDecisionCache._drop":
        "only reached via HotPathCaches under its RLock",
    "repro.core.cache.decisions:AuthDecisionCache.clear":
        "only reached via HotPathCaches under its RLock",
    "repro.core.cache.decisions:AuthDecisionCache.invalidate":
        "only reached via HotPathCaches under its RLock",
    "repro.core.cache.decisions:ResolutionCache.put":
        "only reached via HotPathCaches under its RLock",
    "repro.core.cache.decisions:ResolutionCache._drop":
        "only reached via HotPathCaches under its RLock",
    "repro.core.cache.decisions:ResolutionCache.clear":
        "only reached via HotPathCaches under its RLock",
    "repro.core.cache.decisions:ResolutionCache.invalidate":
        "only reached via HotPathCaches under its RLock",
    "repro.core.cache.decisions:HotPathCaches._apply_changes":
        "called only from sync()/note_commit(), both inside self._lock",
    "repro.core.cache.decisions:HotPathCaches._drop_chain":
        "called only from _apply_changes()/chain(), both inside self._lock",
    # Eviction policies are owned 1:1 by a MetastoreCacheNode, which
    # invokes them only inside its own RLock.
    "repro.core.cache.eviction:LruPolicy.record_access":
        "driven by MetastoreCacheNode under the node RLock",
    "repro.core.cache.eviction:LruPolicy.forget":
        "driven by MetastoreCacheNode under the node RLock",
    "repro.core.cache.eviction:LfuPolicy.record_access":
        "driven by MetastoreCacheNode under the node RLock",
    "repro.core.cache.eviction:LfuPolicy.forget":
        "driven by MetastoreCacheNode under the node RLock",
    # MetastoreCacheNode internals: every public entry point takes the
    # node RLock before reaching these helpers.
    "repro.core.cache.node:_VersionedRow.append":
        "rows are private to a node; mutated only in _apply under RLock",
    "repro.core.cache.node:MetastoreCacheNode._reconcile":
        "called from view()/commit()/reconcile() inside self._lock",
    "repro.core.cache.node:MetastoreCacheNode._evict_all":
        "called from _reconcile inside self._lock",
    "repro.core.cache.node:MetastoreCacheNode._apply":
        "write-through helper; all call sites hold self._lock",
    "repro.core.cache.node:MetastoreCacheNode._reindex_entity":
        "called from _apply/_maybe_evict inside self._lock",
    "repro.core.cache.node:MetastoreCacheNode._reindex_grant":
        "called from _apply inside self._lock",
    "repro.core.cache.node:MetastoreCacheNode._maybe_evict":
        "called from _apply inside self._lock",
    "repro.core.cache.ttl:TtlCache._reap":
        "called from put() inside self._lock",
    "repro.core.cluster.twophase:TwoPhaseCoordinator._release":
        "called from commit()/abort() inside self._lock (plain Lock)",
    "repro.core.cluster.twophase:TwoPhaseCoordinator._compact_locked":
        "called from commit()/abort() inside self._lock (plain Lock)",
    # The replicated change log is appended to only inside the group's
    # _commit_lock critical section (fence + store commit + log append
    # are atomic); ReplicatedChangeLog also guards its deque internally.
    "repro.core.cluster.replication:ReplicaGroup.commit_through":
        "log.append serialized under self._commit_lock; log has own lock",
    "repro.core.cluster.replication:ReplicaGroup.slot_through":
        "log.append serialized under self._commit_lock; log has own lock",
}

#: method names that mutate their receiver in place
_MUTATOR_CALLS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend",
    "insert", "move_to_end", "pop", "popitem", "remove", "setdefault",
    "update",
})


def _is_self_attr(node: ast.expr, attr: str) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _self_state_root(node: ast.expr) -> str | None:
    """The attribute name if ``node`` is rooted at ``self.<attr>``."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        node = node.value
    return None


def _mutated_self_state(node: ast.AST) -> str | None:
    """The ``self.<attr>`` container this node mutates, if any.

    Plain rebinds (``self.x = v``) are excluded — a single STORE_ATTR
    is atomic under the interpreter — but subscript stores, augmented
    assignments (read-modify-write), deletions, and in-place mutator
    calls are all genuine races without a lock.
    """
    if isinstance(node, ast.Assign):
        for target in node.targets:
            if isinstance(target, (ast.Subscript, ast.Tuple)):
                elements = (
                    target.elts if isinstance(target, ast.Tuple) else [target]
                )
                for element in elements:
                    if isinstance(element, ast.Subscript):
                        root = _self_state_root(element)
                        if root:
                            return root
    elif isinstance(node, ast.AugAssign):
        root = _self_state_root(node.target)
        if root:
            return root
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                root = _self_state_root(target)
                if root:
                    return root
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in _MUTATOR_CALLS:
            root = _self_state_root(node.func.value)
            if root:
                return root
    return None


def _unguarded_mutations(method: ast.FunctionDef) -> list[tuple[int, str]]:
    """(lineno, attr) for each self-state mutation outside ``self._lock``."""
    found: list[tuple[int, str]] = []

    def visit(node: ast.AST, locked: bool) -> None:
        if isinstance(node, ast.With):
            holds = locked or any(
                _is_self_attr(item.context_expr, "_lock")
                for item in node.items
            )
            for child in ast.iter_child_nodes(node):
                visit(child, holds)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            # a nested def/lambda runs later, on whichever thread calls
            # it — it inherits no lock from the enclosing body
            for child in ast.iter_child_nodes(node):
                visit(child, False)
            return
        if not locked:
            attr = _mutated_self_state(node)
            if attr is not None:
                found.append((node.lineno, attr))
        for child in ast.iter_child_nodes(node):
            visit(child, locked)

    for statement in method.body:
        visit(statement, False)
    return found


def check_concurrency_guards() -> list[str]:
    """Rule 4: cache/cluster instance state only mutates under _lock."""
    errors = []
    for package in CONCURRENT_PACKAGES:
        for path in sorted(package.glob("*.py")):
            module = _module_name(path)
            tree = _parse(path)
            for cls in [n for n in tree.body if isinstance(n, ast.ClassDef)]:
                methods = [
                    n for n in cls.body
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
                declares_lock = any(
                    isinstance(node, ast.Assign)
                    and any(_is_self_attr(t, "_lock") for t in node.targets)
                    for method in methods
                    for node in ast.walk(method)
                )
                for method in methods:
                    if method.name == "__init__":
                        continue  # construction happens-before sharing
                    key = f"{module}:{cls.name}.{method.name}"
                    if key in CONCURRENCY_ALLOWLIST:
                        continue
                    for lineno, attr in _unguarded_mutations(method):
                        where = f"{path.relative_to(REPO)}:{lineno}"
                        if not declares_lock:
                            errors.append(
                                f"{where}: {cls.name}.{method.name} mutates "
                                f"self.{attr} but {cls.name} declares no "
                                "_lock — concurrent serving threads race on "
                                "this state"
                            )
                        else:
                            errors.append(
                                f"{where}: {cls.name}.{method.name} mutates "
                                f"self.{attr} outside `with self._lock:` — "
                                "guard it or allowlist the helper with a "
                                "reason"
                            )
    return errors


# -- rule 5: branch-aware version resolution --------------------------------

#: packages above persistence whose raw store reads are checked
VERSION_GATED_PACKAGES = (
    REPO / "src" / "repro" / "core" / "service",
    REPO / "src" / "repro" / "core" / "service" / "domains",
    REPO / "src" / "repro" / "core" / "cluster",
)

#: ``module`` or ``module:qualname`` entries exempt from rule 5, each
#: with the reason the raw read is correct. Every entry deals in whole
#: stores or the trunk head *by design* — extending this list is a
#: review decision, not a convenience.
RAW_VERSION_ALLOWLIST: dict[str, str] = {
    "repro.core.service.kernel:ServiceKernel._install_metastore":
        "seeds the trunk cache bundle at install time; no request exists",
    "repro.core.service.kernel:ServiceKernel.raw_snapshot":
        "IS the branch gate: applies the request pin before reading",
    "repro.core.service.kernel:ServiceKernel.view":
        "IS the branch gate: applies the request pin before reading",
    "repro.core.cluster.cluster:CatalogCluster._collect_placement":
        "metrics export counts whole-store rows, branch-agnostic",
    "repro.core.cluster.cluster:CatalogCluster.after_mutation":
        "session read-your-writes tracks the shard's raw commit counter",
    "repro.core.cluster.rebalance:export_subtree":
        "migration moves raw rows between shards, overlay rows included",
    "repro.core.cluster.replication":
        "replication ships the raw global change log; the branch layer "
        "rides on top of it",
}


def _receiver_mentions_store(node: ast.expr) -> bool:
    """True if the call receiver is rooted at something named ``store``
    (``store``, ``self.store``, ``shard.service.store``, ``_store``…)."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
        if isinstance(node, ast.Attribute) and "store" in node.attr:
            return True
        node = getattr(node, "value", None) or getattr(node, "func", None)
        if node is None:
            return False
    return isinstance(node, ast.Name) and "store" in node.id


def check_branch_version_gates() -> list[str]:
    """Rule 5: no raw head-version reads above the persistence layer."""
    errors = []
    seen: set[Path] = set()
    for package in VERSION_GATED_PACKAGES:
        for path in sorted(package.glob("*.py")):
            if path in seen:
                continue
            seen.add(path)
            module = _module_name(path)
            if module in RAW_VERSION_ALLOWLIST:
                continue
            tree = _parse(path)
            # map each node to its enclosing class/function qualname
            for top in tree.body:
                qualnames: list[tuple[str, ast.AST]] = []
                if isinstance(top, ast.ClassDef):
                    for method in top.body:
                        if isinstance(method, (ast.FunctionDef,
                                               ast.AsyncFunctionDef)):
                            qualnames.append(
                                (f"{top.name}.{method.name}", method)
                            )
                elif isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualnames.append((top.name, top))
                else:
                    qualnames.append(("<module>", top))
                for qualname, scope in qualnames:
                    if f"{module}:{qualname}" in RAW_VERSION_ALLOWLIST:
                        continue
                    for node in ast.walk(scope):
                        if not (
                            isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Attribute)
                            and node.func.attr in ("current_version",
                                                   "snapshot")
                            and _receiver_mentions_store(node.func.value)
                        ):
                            continue
                        errors.append(
                            f"{path.relative_to(REPO)}:{node.lineno}: "
                            f"{qualname} reads store.{node.func.attr} "
                            "directly — above persistence, resolve through "
                            "the kernel gates (view / raw_snapshot / "
                            "head_version) or branching.resolve_head so "
                            "branch and AS OF pins apply"
                        )
    return errors


def run() -> list[str]:
    errors = []
    errors += check_domain_isolation()
    errors += check_kernel_points_inward()
    errors += check_rest_stays_generic()
    errors += check_concurrency_guards()
    errors += check_branch_version_gates()
    return errors


def main() -> int:
    errors = run()
    if errors:
        print(f"architecture lint: {len(errors)} violation(s)")
        for error in errors:
            print(f"  {error}")
        return 1
    print("architecture lint: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
