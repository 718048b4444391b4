"""One-asset-per-path: the URL trie and its invariant."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cloudstore.object_store import StoragePath
from repro.core.paths import PathTrie
from repro.errors import NotFoundError, PathConflictError


def p(url: str) -> StoragePath:
    return StoragePath.parse(url)


class TestPathTrie:
    def test_register_and_resolve_exact(self):
        trie = PathTrie()
        trie.register(p("s3://b/tables/t1"), "a1")
        assert trie.resolve(p("s3://b/tables/t1")) == "a1"

    def test_resolve_descendant_path(self):
        trie = PathTrie()
        trie.register(p("s3://b/tables/t1"), "a1")
        assert trie.resolve(p("s3://b/tables/t1/part-0.parquet")) == "a1"

    def test_resolve_unrelated_is_none(self):
        trie = PathTrie()
        trie.register(p("s3://b/tables/t1"), "a1")
        assert trie.resolve(p("s3://b/tables/t2")) is None
        assert trie.resolve(p("s3://b/tab")) is None

    def test_sibling_paths_coexist(self):
        trie = PathTrie()
        trie.register(p("s3://b/t/a"), "a1")
        trie.register(p("s3://b/t/b"), "a2")
        assert trie.resolve(p("s3://b/t/a/x")) == "a1"
        assert trie.resolve(p("s3://b/t/b/y")) == "a2"
        assert len(trie) == 2

    def test_register_child_of_existing_conflicts(self):
        trie = PathTrie()
        trie.register(p("s3://b/t"), "a1")
        with pytest.raises(PathConflictError):
            trie.register(p("s3://b/t/sub"), "a2")

    def test_register_parent_of_existing_conflicts(self):
        trie = PathTrie()
        trie.register(p("s3://b/t/sub"), "a1")
        with pytest.raises(PathConflictError):
            trie.register(p("s3://b/t"), "a2")

    def test_register_same_path_conflicts(self):
        trie = PathTrie()
        trie.register(p("s3://b/t"), "a1")
        with pytest.raises(PathConflictError):
            trie.register(p("s3://b/t"), "a2")

    def test_different_buckets_never_conflict(self):
        trie = PathTrie()
        trie.register(p("s3://b1/t"), "a1")
        trie.register(p("s3://b2/t"), "a2")
        assert trie.resolve(p("s3://b2/t/x")) == "a2"

    def test_unregister_frees_path(self):
        trie = PathTrie()
        trie.register(p("s3://b/t"), "a1")
        trie.unregister("a1")
        assert trie.resolve(p("s3://b/t")) is None
        trie.register(p("s3://b/t"), "a2")  # path reusable

    def test_unregister_unknown_raises(self):
        with pytest.raises(NotFoundError):
            PathTrie().unregister("ghost")

    def test_unregister_keeps_siblings(self):
        trie = PathTrie()
        trie.register(p("s3://b/t/a"), "a1")
        trie.register(p("s3://b/t/b"), "a2")
        trie.unregister("a1")
        assert trie.resolve(p("s3://b/t/b")) == "a2"

    def test_find_overlapping_descendants(self):
        trie = PathTrie()
        trie.register(p("s3://b/t/a"), "a1")
        trie.register(p("s3://b/t/b"), "a2")
        assert set(trie.find_overlapping(p("s3://b/t"))) == {"a1", "a2"}

    def test_find_overlapping_ancestor(self):
        trie = PathTrie()
        trie.register(p("s3://b/t"), "a1")
        assert trie.find_overlapping(p("s3://b/t/x/y")) == ["a1"]

    def test_path_of(self):
        trie = PathTrie()
        trie.register(p("s3://b/t"), "a1")
        assert trie.path_of("a1").url() == "s3://b/t"
        assert trie.path_of("nope") is None

    def test_all_registrations(self):
        trie = PathTrie()
        trie.register(p("s3://b/t"), "a1")
        assert {k: v.url() for k, v in trie.all_registrations().items()} == {
            "a1": "s3://b/t"
        }

    def test_move_swaps_paths_in_one_batch(self):
        trie = PathTrie()
        trie.register(p("s3://b/x"), "a1")
        trie.register(p("s3://b/y"), "a2")
        trie.move({"a1": p("s3://b/y"), "a2": p("s3://b/x"), "a3": p("s3://b/z")})
        assert [trie.resolve(p(f"s3://b/{k}")) for k in "xyz"] == ["a2", "a1", "a3"]
        trie.move({"a1": None, "a2": p("s3://b/x")})  # out, and unchanged
        assert trie.path_of("a1") is None and trie.resolve(p("s3://b/x/f")) == "a2"
        with pytest.raises(PathConflictError):
            trie.move({"a2": p("s3://b/z/inner")})


# -- property-based: the invariant itself ------------------------------------

_segments = st.lists(
    st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=4
)


@st.composite
def _paths(draw):
    segments = draw(_segments)
    return StoragePath("s3", "bucket", "/".join(segments))


@settings(max_examples=200)
@given(st.lists(_paths(), min_size=1, max_size=12))
def test_one_asset_per_path_invariant(paths):
    """However registrations interleave, accepted paths never overlap, and
    every path resolves to the unique asset whose registration contains it."""
    trie = PathTrie()
    accepted: dict[str, StoragePath] = {}
    for i, path in enumerate(paths):
        asset_id = f"asset{i}"
        try:
            trie.register(path, asset_id)
            accepted[asset_id] = path
        except PathConflictError:
            # must genuinely overlap something already accepted
            assert any(path.overlaps(existing) for existing in accepted.values())
            continue
    # invariant: pairwise non-overlap of accepted registrations
    items = list(accepted.items())
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            assert not items[i][1].overlaps(items[j][1])
    # resolution agrees with containment
    for asset_id, path in accepted.items():
        probe = path.child("leaf") if True else path
        assert trie.resolve(probe) == asset_id


@settings(max_examples=100)
@given(st.lists(_paths(), min_size=1, max_size=10))
def test_unregister_restores_registrability(paths):
    trie = PathTrie()
    registered = []
    for i, path in enumerate(paths):
        try:
            trie.register(path, f"a{i}")
            registered.append((f"a{i}", path))
        except PathConflictError:
            pass
    for asset_id, path in registered:
        trie.unregister(asset_id)
    assert len(trie) == 0
    # everything can be registered again after a full clear
    for asset_id, path in registered:
        trie.register(path, asset_id)
