"""Smoke coverage for the listing benchmark harness.

Runs a deliberately tiny estate (too small to clear the 5x performance
gate — fixed per-request costs dominate at this scale), and checks the
properties that must hold at ANY scale: cross-backend equivalence,
deterministic reruns, and the unindexed-vs-tree scan-work asymmetry.
"""

import json

from repro.bench.listing import Estate, _op_script, main

TINY = [
    "--max-tables", "40",
    "--noise-grantees", "1",
    "--script-ops", "12",
    "--equivalence-ops", "8",
    "--clients", "2",
    "--duration", "0.05",
]


def test_listing_bench_smoke(tmp_path):
    out = tmp_path / "BENCH_listing.json"
    assert main([*TINY, "--out", str(out)]) == 0
    report = json.loads(out.read_text())

    equivalence = report["equivalence"]
    assert equivalence["identical_results"]
    assert equivalence["identical_audits"]
    assert equivalence["deterministic_rerun"]

    tree = report["modes"]["treecat"]
    flat = report["modes"]["memory"]
    # the scan-only baseline never issues a range read; the tree backend
    # leans on them and examines far fewer rows for the same answers
    assert flat["store_range_scans"] == 0
    assert tree["store_range_scans"] > 0
    assert tree["store_scan_rows"] * 5 < flat["store_scan_rows"]
    assert report["speedup"]["throughput_x"] > 1.0


def test_estate_and_script_are_deterministic():
    # entity ids are minted fresh per generation (and stripped from every
    # fingerprint); the population's names, shapes and op script — what
    # the equivalence bytes are built from — must reproduce exactly
    first, second = Estate(19, 40), Estate(19, 40)
    assert [e.name for e in first.entities()] == [e.name for e in second.entities()]
    assert sorted(first.table_names.values()) == sorted(second.table_names.values())
    assert first.resolvable == second.resolvable
    assert _op_script(first, 19, 20) == _op_script(second, 19, 20)
