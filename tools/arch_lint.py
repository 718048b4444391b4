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
   not a convenience. An entry that names no existing method is itself
   a violation: a stale exemption would silently cover a new method
   that reuses its name.

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
   included, by design. As with rule 4, a stale entry is a violation.

The frozen-row change added a row-ownership rule:

6. **A stored row is shared, never deep-copied.** Every row the store,
   the cache node and the views hand out is frozen
   (:mod:`repro.core.frozen`) and shared by every reader, so no module
   under ``repro.core`` imports :mod:`copy` or calls ``deepcopy``: a
   writer that changes a row copies it with ``dict(row)``.

The view read memo added a view-lifetime rule:

7. **A snapshot view lives for one request.** ``SnapshotView`` keeps
   every row it reads for its own lifetime, which is bounded only
   because the kernel builds one per request and never keeps it. So
   ``SnapshotView(`` is called only in ``repro.core.service.kernel``;
   anything else that needs a view asks the kernel for one.

Deriving change events from the change log added an events rule:

8. **Change events are derived in one place.** ``core/events.py``
   reads every event from the store's change log, so no write builds
   one: ``ChangeEvent(`` is called only there, and ``ChangeType.`` is
   read only there and in ``core/search.py``, the events' consumer.

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


def defined_names(packages) -> set[str]:
    """Every ``module``, ``module:function`` and ``module:Class.method``
    defined directly under ``packages``: what an allowlist entry may name."""
    known: set[str] = set()
    for package in packages:
        for path in sorted(package.glob("*.py")):
            module = _module_name(path)
            known.add(module)
            for top in _parse(path).body:
                if isinstance(top, ast.ClassDef):
                    known.update(
                        f"{module}:{top.name}.{node.name}" for node in top.body
                        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    )
                elif isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    known.add(f"{module}:{top.name}")
    return known


def stale_entries(allowlist: dict[str, str], packages, rule: int) -> list[str]:
    """One violation per allowlist entry that names nothing under
    ``packages``."""
    known = defined_names(packages)
    return [
        f"tools/arch_lint.py: rule {rule} allowlist entry {entry!r} names no "
        "existing module, class or method — delete it"
        for entry in sorted(allowlist) if entry not in known
    ]


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
    # MetastoreCacheNode internals: every public entry point (view,
    # commit, warm, reconcile and the snapshot reads) takes the node
    # RLock before reaching these helpers.
    "repro.core.cache.node:MetastoreCacheNode._reconcile":
        "called from view()/commit()/reconcile() inside the node RLock",
    "repro.core.cache.node:MetastoreCacheNode._fill":
        "called from warm()/_read() inside the node RLock",
    "repro.core.cache.node:MetastoreCacheNode._install":
        "called from commit()/_reconcile()/_fill()/_rows() inside "
        "the node RLock",
    "repro.core.cache.node:MetastoreCacheNode._prune":
        "called from view() inside the node RLock",
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
    errors = stale_entries(CONCURRENCY_ALLOWLIST, CONCURRENT_PACKAGES, 4)
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
    "repro.core.service.kernel:ServiceKernel._attach":
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
    errors = stale_entries(RAW_VERSION_ALLOWLIST, VERSION_GATED_PACKAGES, 5)
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


# -- rule 6: shared rows are not deep-copied --------------------------------

#: where rows flow: the stores, the cache node, the views and every layer
#: above them that reads a row
ROW_SHARING_ROOT = REPO / "src" / "repro" / "core"


def row_copy_sites(tree: ast.Module) -> list[tuple[int, str]]:
    """(lineno, what) for each ``import copy`` / ``from copy import`` and
    each ``deepcopy`` reference in ``tree``."""
    found: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, f"import {alias.name}") for alias in node.names
                      if alias.name.split(".")[0] == "copy"]
        elif isinstance(node, ast.ImportFrom) and node.module == "copy":
            found.append((node.lineno, "from copy import"))
        elif isinstance(node, ast.Attribute) and node.attr == "deepcopy":
            found.append((node.lineno, "deepcopy"))
        elif isinstance(node, ast.Name) and node.id == "deepcopy":
            found.append((node.lineno, "deepcopy"))
    return found


def check_no_row_copies(root: Path = ROW_SHARING_ROOT) -> list[str]:
    """Rule 6: no module under ``root`` deep-copies (or imports copy)."""
    errors = []
    for path in sorted(root.rglob("*.py")):
        for lineno, what in row_copy_sites(_parse(path)):
            errors.append(
                f"{path.relative_to(REPO)}:{lineno}: {what} — stored rows "
                "are frozen and shared; a writer copies one with dict(row)"
            )
    return errors


# -- rule 7: snapshot views are built per request, by the kernel -----------

SRC = REPO / "src" / "repro"
#: the one module that builds snapshot views (``ServiceKernel.view``)
VIEW_BUILDER = SRC / "core" / "service" / "kernel.py"


def view_constructions(tree: ast.Module) -> list[int]:
    """Line of each ``SnapshotView(...)`` call in ``tree``."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and (
            (isinstance(node.func, ast.Name) and node.func.id == "SnapshotView")
            or (isinstance(node.func, ast.Attribute)
                and node.func.attr == "SnapshotView"))
    ]


def check_views_built_per_request(root: Path = SRC,
                                  builder: Path = VIEW_BUILDER) -> list[str]:
    """Rule 7: no module under ``root`` but ``builder`` builds a view."""
    errors = []
    for path in sorted(root.rglob("*.py")):
        if path == builder:
            continue
        for lineno in view_constructions(_parse(path)):
            errors.append(
                f"{path.relative_to(REPO)}:{lineno}: SnapshotView( — a view "
                "memoizes what it reads, so only the kernel builds one, per "
                "request; ask it with view()"
            )
    return errors


# -- rule 8: change events are derived in one place ------------------------

#: the one module that builds change events (``ChangeEventBus.publish``)
EVENTS_MODULE = SRC / "core" / "events.py"
#: the modules that may name a change type: the deriver and its consumer
CHANGE_TYPE_READERS = (EVENTS_MODULE, SRC / "core" / "search.py")


def _spells(node: ast.expr, name: str) -> bool:
    return ((isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name))


def event_sites(tree: ast.Module) -> list[tuple[int, str]]:
    """(lineno, what) for each ``ChangeEvent(...)`` call and each
    ``ChangeType.<member>`` read in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _spells(node.func, "ChangeEvent"):
            found.append((node.lineno, "ChangeEvent("))
        elif isinstance(node, ast.Attribute) and _spells(node.value, "ChangeType"):
            found.append((node.lineno, "ChangeType."))
    return sorted(found)


def check_events_derived_in_one_place(
    root: Path = SRC, builder: Path = EVENTS_MODULE,
    readers: tuple[Path, ...] = CHANGE_TYPE_READERS,
) -> list[str]:
    """Rule 8: only ``builder`` builds events; only ``readers`` name a
    change type."""
    errors = []
    for path in sorted(root.rglob("*.py")):
        for lineno, what in event_sites(_parse(path)):
            if path == builder or (what == "ChangeType." and path in readers):
                continue
            errors.append(
                f"{path.relative_to(REPO)}:{lineno}: {what} — change events "
                "are derived from the store's change log in core/events.py; "
                "a write builds none"
            )
    return errors


def run() -> list[str]:
    errors = []
    errors += check_domain_isolation()
    errors += check_kernel_points_inward()
    errors += check_rest_stays_generic()
    errors += check_concurrency_guards()
    errors += check_branch_version_gates()
    errors += check_no_row_copies()
    errors += check_views_built_per_request()
    errors += check_events_derived_in_one_place()
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
