"""Self-tests of the benchmark harness (not of the catalog).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``; tier-1 does
not collect this directory.
"""

from __future__ import annotations

import glob
import os
import signal
import subprocess
import sys
import time

import pytest

from benchmarks.e2e import stats
from benchmarks.e2e.estate import Estate, Shape, build
from benchmarks.e2e.harness import Request, closed_loop, open_loop, requests_sha256
from benchmarks.e2e.runner import OUT_DIR
from benchmarks.e2e.tracing import (
    Patches,
    TimedStore,
    Tracer,
    pick,
    trace_globals,
    trace_service,
)
from tests import test_persistence as store_contract

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# -- percentile and window rules -------------------------------------------------


def test_highest_percentile_needs_ten_samples_beyond_it():
    assert stats.highest_supported_percentile(19) == 50.0
    assert stats.highest_supported_percentile(99) == 50.0
    assert stats.highest_supported_percentile(100) == 90.0
    assert stats.highest_supported_percentile(199) == 90.0
    assert stats.highest_supported_percentile(200) == 95.0
    assert stats.highest_supported_percentile(999) == 95.0
    assert stats.highest_supported_percentile(1000) == 99.0
    assert stats.highest_supported_percentile(10_000) == 99.9


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50.0) == 50
    assert stats.percentile(values, 99.0) == 99
    assert stats.percentile(values, 100.0) == 100
    assert stats.percentile([7.0], 99.0) == 7.0


def test_every_latency_figure_is_the_median_of_the_windows():
    calm = [1.0] * 1088 + [9.0] * 12            # p50 1, p99 9
    flat = [5.0] * 1100                         # p50 5, p99 5
    stalled = [3.0] * 1000 + [100.0] * 100      # p50 3, p99 100
    summary = stats.latency_summary([calm, flat, stalled], "test")
    assert summary["p50"] == {"value": 3.0, "min": 1.0, "max": 5.0}
    # one stalled window moves neither figure
    assert summary["p99"] == {"value": 9.0, "min": 5.0, "max": 100.0}
    assert summary["samples"] == 3300
    assert stats.window_median([4800.0, 4100.0, 4750.0])["value"] == 4750.0


def test_too_few_samples_is_a_sizing_error_not_a_lower_percentile():
    with pytest.raises(stats.MisSized):
        stats.latency_summary([[1.0] * 1099] * 3, "test")
    with pytest.raises(stats.MisSized):
        stats.latency_summary([[1.0] * 5000, [], [1.0] * 5000], "test")


# -- loops -------------------------------------------------------------------------


def _requests(count: int) -> list[Request]:
    return [Request("get", "GET", f"/t/{i}", principal="p") for i in range(count)]


def test_open_loop_times_from_the_due_time_and_reports_lateness():
    # a server that takes 20 ms, asked for one request every 10 ms on one
    # connection: it falls further behind with every request
    def slow(request, since=None):
        start = time.perf_counter() if since is None else since
        time.sleep(0.020)
        return time.perf_counter() - start, True

    cursor = [0]
    window = open_loop([slow], _requests(40), cursor, seconds=0.4, rate=100.0)
    latencies = window.samples["get"]
    assert window.ops == 40 and cursor[0] == 40 and window.failed == 0
    # timed from the send, every request would read ~20 ms; from its due
    # time the last one carries the whole backlog (~40 x 10 ms)
    assert latencies[0] < 0.035
    assert latencies[-1] > 0.30
    assert latencies == sorted(latencies)
    assert window.lateness[0] < 0.005 and window.lateness[-1] > 0.25


def test_closed_loop_continues_the_stream_across_windows():
    seen = []

    def issue(request):
        seen.append(request.path)
        time.sleep(0.001)
        return 0.001, request.path != "/t/3"

    cursors = [0]
    first = closed_loop([issue], [_requests(5)], cursors, 0.02)
    second = closed_loop([issue], [_requests(5)], cursors, 0.02)
    assert cursors[0] == first.ops + second.ops == len(seen)
    assert seen[:7] == [f"/t/{i % 5}" for i in range(7)]  # cyclic, in order
    assert first.failed + second.failed == seen.count("/t/3")


def test_same_seed_same_inputs():
    shape = Shape(catalogs=2, schemas=2, tables=4, views=2)
    one, two, other = Estate(5, shape), Estate(5, shape), Estate(6, shape)
    assert one.tables == two.tables and one.views == two.views
    assert one.hot_names(50) == two.hot_names(50)
    assert one.table_names != other.table_names
    stream = _requests(3)
    assert requests_sha256([stream]) == requests_sha256([_requests(3)])
    assert requests_sha256([stream]) != requests_sha256([_requests(4)])


# -- spans -------------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.begin_request(0)

    def at(t):
        clock.now = float(t)

    at(0); a = tracer.enter("a")
    at(1); b = tracer.enter("b")
    at(4); tracer.exit(b)
    at(5); c = tracer.enter("c")
    at(6); d = tracer.enter("c.d")
    at(8); tracer.exit(d)
    at(9); tracer.exit(c)
    at(10); tracer.exit(a)

    totals = tracer.snapshot()
    assert totals["a"] == [1, 3.0, 10.0]    # 10 - (3 + 4)
    assert totals["b"] == [1, 3.0, 3.0]
    assert totals["c"] == [1, 2.0, 4.0]     # 4 - 2
    assert totals["c.d"] == [1, 2.0, 2.0]
    assert pick(totals, "c") == (2, 4.0)    # a prefix covers what lies below it
    assert sum(t[1] for t in totals.values()) == 10.0  # self times add up
    by_name = {name: (span, parent) for span, parent, _, name, _, _ in tracer.spans}
    assert by_name["a"][1] == 0
    assert by_name["b"][1] == by_name["c"][1] == by_name["a"][0]
    assert by_name["c.d"][1] == by_name["c"][0]


def test_spans_are_kept_for_numbered_requests_only():
    tracer = Tracer(keep_requests=2)
    for request in (-1, 0, 1, 2):
        tracer.begin_request(request)
        tracer.exit(tracer.enter("x"))
    assert tracer.snapshot()["x"][0] == 4
    assert [span[2] for span in tracer.spans] == [0, 1]


# -- the store proxy -----------------------------------------------------------------

_CONTRACT_CASES = [
    (suite, name)
    for suite in (store_contract.TestContract, store_contract.TestRangeScans)
    for name in sorted(vars(suite)) if name.startswith("test_")
    # this one asks isinstance() of the store object, which a proxy is not
    and name != "test_flat_backends_report_no_tree_index"
]


@pytest.mark.parametrize("backend", sorted(store_contract.BACKENDS))
@pytest.mark.parametrize("suite,name", _CONTRACT_CASES,
                         ids=[name for _, name in _CONTRACT_CASES])
def test_timed_store_passes_the_store_contract_tests(backend, suite, name):
    """The repo's own contract tests, run through the proxy unchanged."""
    tracer = Tracer()
    store = TimedStore(store_contract.BACKENDS[backend](), tracer)
    store.create_metastore_slot(store_contract.MID)
    try:
        getattr(suite(), name)(store)
    finally:
        if backend == "sqlite":
            store.close()


def test_timed_store_names_a_span_after_each_contract_call():
    tracer = Tracer()
    store = TimedStore(store_contract.BACKENDS["memory"](), tracer)
    store.create_metastore_slot("m")
    store.commit("m", 0, [store_contract.put("a", x=1)])
    snapshot = store.snapshot("m")
    assert snapshot.get("entities", "a") == {"x": 1} and snapshot.version == 1
    assert list(snapshot.scan("entities")) == [("a", {"x": 1})]
    assert store.changes_since("m", 0)[0].key == "a"
    assert {name: total[0] for name, total in tracer.snapshot().items()} == {
        "persistence.commit": 1, "persistence.snapshot": 1, "persistence.get": 1,
        "persistence.scan": 1, "persistence.changes_since": 1}


def test_timed_scans_do_the_read_inside_the_span():
    clock = FakeClock()

    class LazySnapshot:
        version = 1

        def scan(self, table):
            clock.now += 5.0  # the cost of the read, paid on first next()
            yield "k", {"v": 1}

    class Store:
        def snapshot(self, metastore_id, at_version=None):
            return LazySnapshot()

    tracer = Tracer(clock=clock)
    rows = TimedStore(Store(), tracer).snapshot("m").scan("entities")
    assert tracer.snapshot()["persistence.scan"][1] == 5.0
    assert list(rows) == [("k", {"v": 1})]


# -- wrappers come off again -----------------------------------------------------------


def test_wrappers_restore_the_originals():
    from repro.core.model.entity import SecurableKind
    from repro.core.persistence import branching
    from repro.core.service.batch import QueryResolver
    from repro.core.service.catalog_service import UnityCatalogService

    service = UnityCatalogService()
    mid = build(Estate(1, Shape(1, 1, 2)), service.directory, service.dispatch)
    node, bundle = service.cache_node(mid), service.hot_caches(mid)
    before = {
        "resolve": QueryResolver.resolve,
        "branch_snapshot": branching.branch_snapshot,
        # instance attributes by name: a wrapper is one more of them
        "service": set(vars(service)),
        "authorizer": set(vars(service.authorizer)),
        "node": set(vars(node)),
        "bundle": set(vars(bundle)),
    }
    tracer, patches = Tracer(), Patches()
    trace_service(tracer, patches, service)
    trace_globals(tracer, patches)
    assert QueryResolver.resolve is not before["resolve"]
    assert "view" in vars(service) and "sync" in vars(bundle)
    service.get_securable(mid, "admin", SecurableKind.CATALOG, "c0")
    assert pick(tracer.snapshot(), "kernel")[0] > 0

    patches.restore()
    assert QueryResolver.resolve is before["resolve"]
    assert branching.branch_snapshot is before["branch_snapshot"]
    assert set(vars(service)) == before["service"]
    assert set(vars(service.authorizer)) == before["authorizer"]
    assert set(vars(node)) == before["node"] and set(vars(bundle)) == before["bundle"]
    assert service.view.__func__ is type(service).view


# -- nothing is left behind ----------------------------------------------------------------


def _driver(workload: str) -> subprocess.Popen:
    environment = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [ROOT, os.path.join(ROOT, "src")]))
    return subprocess.Popen(
        [sys.executable, "-m", "benchmarks.e2e", "--workload", workload,
         "--seconds", "60"],
        cwd=ROOT, env=environment, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)


def _children_of(pid: int) -> list[int]:
    found = []
    for entry in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(entry) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # the process ended while we were listing
        if int(fields[1]) == pid:
            found.append(int(entry.split("/")[2]))
    return found


def _wait_for(condition, seconds: float):
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        value = condition()
        if value:
            return value
        time.sleep(0.05)
    return condition()


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_server_child_stops_when_the_driver_is_killed():
    driver = _driver("http_serving")
    try:
        children = _wait_for(lambda: _children_of(driver.pid), 20)
        assert children, "the driver never started its server child"
        driver.kill()  # SIGKILL: no handler, no finally block runs
        driver.wait()
        assert _wait_for(lambda: not any(_alive(c) for c in children), 15), \
            "the server child outlived its driver"
    finally:
        driver.kill()
        driver.wait()


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_interrupted_run_removes_its_sqlite_directory():
    pattern = os.path.join(OUT_DIR, "snapshot-*")
    before = set(glob.glob(pattern))
    driver = _driver("snapshot_reads")
    try:
        created = _wait_for(lambda: set(glob.glob(pattern)) - before, 20)
        assert created, "the run never created its SQLite directory"
        driver.send_signal(signal.SIGTERM)
        assert driver.wait(timeout=20) != 0
        assert not (set(glob.glob(pattern)) - before)
    finally:
        driver.kill()
        driver.wait()
