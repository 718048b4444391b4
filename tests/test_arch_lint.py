"""The architecture lint itself: the tree passes, and the rules bite."""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "arch_lint",
    Path(__file__).resolve().parent.parent / "tools" / "arch_lint.py",
)
arch_lint = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(arch_lint)


def test_repository_satisfies_the_layering_rules():
    assert arch_lint.run() == []


def test_imported_modules_sees_plain_imports():
    tree = ast.parse("import repro.core.service.rest as r\n")
    imports = arch_lint.imported_modules(tree, "repro.core.service.domains.x")
    assert "repro.core.service.rest" in imports


def test_imported_modules_sees_from_imports():
    tree = ast.parse(
        "from repro.core.service.domains.securables import create_metastore\n"
    )
    imports = arch_lint.imported_modules(tree, "repro.core.service.rest")
    assert any(
        name.startswith("repro.core.service.domains") for name in imports
    )


def test_imported_modules_resolves_relative_imports():
    tree = ast.parse("from . import securables\n")
    imports = arch_lint.imported_modules(
        tree, "repro.core.service.domains.grants_policies"
    )
    assert any(
        name.startswith("repro.core.service.domains") for name in imports
    )


def test_violates_matches_module_and_submodules():
    assert arch_lint._violates({"a.b.c"}, "a.b")
    assert arch_lint._violates({"a.b"}, "a.b")
    assert not arch_lint._violates({"a.bc"}, "a.b")


def test_endpoint_names_are_discovered_from_domains():
    names = arch_lint._registered_endpoint_names()
    assert "create_securable" in names
    assert "vend_credentials" in names


# -- rule 4: concurrency guards ---------------------------------------------


def _method(source: str) -> ast.FunctionDef:
    node = ast.parse(source).body[0]
    assert isinstance(node, ast.FunctionDef)
    return node


def test_unguarded_subscript_store_is_flagged():
    method = _method(
        "def put(self, k, v):\n"
        "    self._entries[k] = v\n"
    )
    assert arch_lint._unguarded_mutations(method) == [(2, "_entries")]


def test_unguarded_augassign_counter_is_flagged():
    method = _method(
        "def touch(self):\n"
        "    self.hits += 1\n"
    )
    assert arch_lint._unguarded_mutations(method) == [(2, "hits")]


def test_unguarded_mutator_call_and_delete_are_flagged():
    method = _method(
        "def evict(self, k):\n"
        "    self._order.pop(k, None)\n"
        "    del self._entries[k]\n"
    )
    attrs = {attr for _, attr in arch_lint._unguarded_mutations(method)}
    assert attrs == {"_order", "_entries"}


def test_mutation_under_self_lock_passes():
    method = _method(
        "def put(self, k, v):\n"
        "    with self._lock:\n"
        "        self._entries[k] = v\n"
        "        self.hits += 1\n"
        "        self._order.append(k)\n"
    )
    assert arch_lint._unguarded_mutations(method) == []


def test_other_context_managers_do_not_count_as_the_lock():
    method = _method(
        "def put(self, k, v):\n"
        "    with self._tracer.span('put'):\n"
        "        self._entries[k] = v\n"
    )
    assert arch_lint._unguarded_mutations(method) == [(3, "_entries")]


def test_nested_defs_do_not_inherit_the_enclosing_lock():
    # a closure built under the lock runs later, on another thread
    method = _method(
        "def plan(self, k):\n"
        "    with self._lock:\n"
        "        def apply():\n"
        "            self._entries[k] = 1\n"
        "        return apply\n"
    )
    assert arch_lint._unguarded_mutations(method) == [(4, "_entries")]


def test_plain_attribute_rebind_is_not_flagged():
    # one STORE_ATTR is atomic; only read-modify-write races matter
    method = _method(
        "def attach(self, runtime):\n"
        "    self._runtime = runtime\n"
    )
    assert arch_lint._unguarded_mutations(method) == []


def test_local_variable_mutations_are_not_flagged():
    method = _method(
        "def merge(self, rows):\n"
        "    out = []\n"
        "    out.append(rows)\n"
        "    rows['k'] = 1\n"
    )
    assert arch_lint._unguarded_mutations(method) == []


def test_concurrency_allowlist_entries_all_name_real_methods():
    """A stale allowlist entry silently disables the rule — forbid it."""
    known: set[str] = set()
    for package in arch_lint.CONCURRENT_PACKAGES:
        for path in sorted(package.glob("*.py")):
            module = arch_lint._module_name(path)
            tree = arch_lint._parse(path)
            for cls in [
                n for n in tree.body if isinstance(n, ast.ClassDef)
            ]:
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef):
                        known.add(f"{module}:{cls.name}.{node.name}")
    stale = set(arch_lint.CONCURRENCY_ALLOWLIST) - known
    assert stale == set()


def test_planted_stale_allowlist_entries_are_flagged(monkeypatch):
    """Rules 4 and 5 fail on an exemption that names nothing."""
    monkeypatch.setitem(arch_lint.CONCURRENCY_ALLOWLIST,
                        "repro.core.cache.node:MetastoreCacheNode._gone",
                        "a method that no longer exists")
    monkeypatch.setitem(arch_lint.RAW_VERSION_ALLOWLIST,
                        "repro.core.service.kernel:ServiceKernel._gone",
                        "a method that no longer exists")
    errors = arch_lint.check_concurrency_guards()
    assert [e for e in errors if "allowlist entry" in e] == [
        "tools/arch_lint.py: rule 4 allowlist entry "
        "'repro.core.cache.node:MetastoreCacheNode._gone' names no existing "
        "module, class or method — delete it"
    ]
    errors = arch_lint.check_branch_version_gates()
    assert [e for e in errors if "allowlist entry" in e] == [
        "tools/arch_lint.py: rule 5 allowlist entry "
        "'repro.core.service.kernel:ServiceKernel._gone' names no existing "
        "module, class or method — delete it"
    ]
    assert len(arch_lint.run()) == 2


def test_receiver_mentions_store_matches_store_chains():
    def recv(source: str) -> ast.expr:
        call = ast.parse(source).body[0].value
        return call.func.value

    assert arch_lint._receiver_mentions_store(recv("store.snapshot(m)"))
    assert arch_lint._receiver_mentions_store(recv("self.store.snapshot(m)"))
    assert arch_lint._receiver_mentions_store(
        recv("shard.service.store.current_version(m)"))
    assert not arch_lint._receiver_mentions_store(recv("self.snapshot(m)"))
    assert not arch_lint._receiver_mentions_store(recv("log.snapshot(v)"))


def test_raw_version_allowlist_entries_all_name_real_sites():
    """A stale rule-5 exemption silently disables the rule — forbid it."""
    known: set[str] = set()
    for package in arch_lint.VERSION_GATED_PACKAGES:
        for path in sorted(package.glob("*.py")):
            module = arch_lint._module_name(path)
            known.add(module)
            tree = arch_lint._parse(path)
            for top in tree.body:
                if isinstance(top, ast.ClassDef):
                    for node in top.body:
                        if isinstance(node, ast.FunctionDef):
                            known.add(f"{module}:{top.name}.{node.name}")
                elif isinstance(top, ast.FunctionDef):
                    known.add(f"{module}:{top.name}")
    stale = set(arch_lint.RAW_VERSION_ALLOWLIST) - known
    assert stale == set()


def test_raw_store_read_outside_allowlist_is_flagged():
    removed = arch_lint.RAW_VERSION_ALLOWLIST.pop(
        "repro.core.cluster.rebalance:export_subtree")
    try:
        errors = arch_lint.check_branch_version_gates()
        assert any("rebalance.py" in e and "store.snapshot" in e
                   for e in errors)
    finally:
        arch_lint.RAW_VERSION_ALLOWLIST[
            "repro.core.cluster.rebalance:export_subtree"] = removed


# -- rule 6: shared rows are not deep-copied --------------------------------

def test_row_copy_sites_sees_every_spelling():
    tree = ast.parse(
        "import copy\n"
        "from copy import deepcopy\n"
        "import copy as c\n"
        "x = copy.deepcopy(row)\n"
        "y = deepcopy(row)\n"
        "z = dict(row)\n"
    )
    assert [line for line, _ in arch_lint.row_copy_sites(tree)] == [1, 2, 3, 4, 5]


def test_planted_deepcopy_in_a_store_is_flagged(tmp_path, monkeypatch):
    monkeypatch.setattr(arch_lint, "REPO", tmp_path)
    core = tmp_path / "src" / "repro" / "core"
    (core / "persistence").mkdir(parents=True)
    (core / "persistence" / "engine.py").write_text(
        "import copy\n\n"
        "def get(rows, key):\n"
        "    return copy.deepcopy(rows[key])\n"
    )
    (core / "view.py").write_text("def row(rows, key):\n    return rows[key]\n")
    errors = arch_lint.check_no_row_copies(core)
    assert [e.split(": ")[0] for e in errors] == [
        "src/repro/core/persistence/engine.py:1",
        "src/repro/core/persistence/engine.py:4",
    ]
    assert all("dict(row)" in e for e in errors)


# -- rule 7: snapshot views are built per request, by the kernel -----------

def test_view_constructions_sees_both_spellings():
    tree = ast.parse(
        "from repro.core import view\n"
        "a = SnapshotView(snapshot, registry)\n"
        "b = view.SnapshotView(snapshot, registry)\n"
        "c = SnapshotView\n"
        "isinstance(b, SnapshotView)\n"
    )
    assert arch_lint.view_constructions(tree) == [2, 3]


def test_planted_view_outside_the_kernel_is_flagged(tmp_path, monkeypatch):
    monkeypatch.setattr(arch_lint, "REPO", tmp_path)
    src = tmp_path / "src" / "repro"
    kernel = src / "core" / "service" / "kernel.py"
    kernel.parent.mkdir(parents=True)
    kernel.write_text("def view(self, snapshot):\n"
                      "    return SnapshotView(snapshot, self.registry)\n")
    (src / "core" / "cache").mkdir()
    (src / "core" / "cache" / "views.py").write_text(
        "from repro.core.view import SnapshotView\n\n"
        "class Keeper:\n"
        "    def __init__(self, store, registry):\n"
        "        self.view = SnapshotView(store.snapshot('m'), registry)\n"
    )
    errors = arch_lint.check_views_built_per_request(src, kernel)
    assert [e.split(": ")[0] for e in errors] == ["src/repro/core/cache/views.py:5"]
    assert "only the kernel builds one" in errors[0]
