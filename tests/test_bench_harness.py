"""The benchmark harness: stats, the DB queueing model, the closed loop,
and the CLI every simulated bench runs under."""

import itertools
import json

import pytest

from repro.bench import harness
from repro.bench.latency import DbServerModel, LatencyModel
from repro.bench.loadgen import run_closed_loop
from repro.bench.report import ascii_bar_chart, paper_row, render_table
from repro.bench.stats import cdf, fraction_below, histogram, percentile, summarize


class TestStats:
    def test_percentile_interpolates(self):
        values = [0, 10]
        assert percentile(values, 0) == 0
        assert percentile(values, 50) == 5
        assert percentile(values, 100) == 10

    def test_percentile_single_value(self):
        assert percentile([7], 90) == 7

    def test_percentile_rejects_bad_input(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 101)

    def test_cdf_monotone(self):
        points = cdf(list(range(100)), points=10)
        values = [v for v, _ in points]
        fractions = [f for _, f in points]
        assert values == sorted(values)
        assert fractions[0] == 0 and fractions[-1] == 1

    def test_fraction_below(self):
        assert fraction_below([1, 2, 3, 4], 2) == 0.5

    def test_summarize_keys(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary["mean"] == 2.0
        assert summary["p50"] == 2.0
        assert summary["max"] == 3.0

    def test_histogram_bins(self):
        bins = histogram([1, 5, 15], [10])
        assert bins[0][1] == 2 and bins[1][1] == 1


class TestDbServerModel:
    def test_idle_server_service_time_only(self):
        db = DbServerModel(LatencyModel(), capacity_qps=1000)
        completion = db.submit(now=0.0, queries=1)
        assert completion == pytest.approx(0.001)

    def test_queueing_under_load(self):
        db = DbServerModel(LatencyModel(), capacity_qps=1000)
        first = db.submit(0.0, queries=10)
        second = db.submit(0.0, queries=1)
        assert second > first  # waited behind the batch

    def test_throughput_capped_at_capacity(self):
        db = DbServerModel(LatencyModel(), capacity_qps=100)
        now = 0.0
        completions = []
        for _ in range(500):
            now = db.submit(now, queries=1)
            completions.append(now)
        # 500 queries at 100 qps need ~5 seconds
        assert completions[-1] == pytest.approx(5.0, rel=1e-6)

    def test_idle_gaps_not_carried(self):
        db = DbServerModel(LatencyModel(), capacity_qps=100)
        db.submit(0.0, queries=1)
        late = db.submit(100.0, queries=1)
        assert late == pytest.approx(100.01)

    def test_scan_rows_charged(self):
        model = LatencyModel()
        db = DbServerModel(model, capacity_qps=1000)
        with_scan = db.submit(0.0, queries=0, scan_rows=100000)
        assert with_scan == pytest.approx(100000 * model.db_scan_row)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            DbServerModel(LatencyModel(), capacity_qps=0)


class TestClosedLoop:
    def test_fixed_latency_throughput(self):
        result = run_closed_loop(
            clients=4, duration=10.0,
            request_fn=lambda now: now + 0.01,
        )
        # 4 clients, 10ms per request, 10s => ~4000 requests
        assert 3800 <= result.completed <= 4000
        assert result.throughput == pytest.approx(400, rel=0.1)
        assert result.latency_summary()["p50"] == pytest.approx(0.01)

    def test_warmup_discards_early_samples(self):
        full = run_closed_loop(
            clients=1, duration=1.0,
            request_fn=lambda now: now + 0.1,
        )
        trimmed = run_closed_loop(
            clients=1, duration=1.0, warmup=0.5,
            request_fn=lambda now: now + 0.1,
        )
        assert trimmed.completed < full.completed

    def test_shared_bottleneck_saturates(self):
        """More clients than the server can carry: throughput plateaus and
        latency grows — the Figure 10(b) mechanism."""
        model = LatencyModel()

        def runner(clients):
            db = DbServerModel(model, capacity_qps=100)
            return run_closed_loop(
                clients=clients, duration=20.0,
                request_fn=lambda now: db.submit(now, queries=1),
            )

        light = runner(1)
        heavy = runner(50)
        assert heavy.throughput == pytest.approx(100, rel=0.1)
        assert heavy.latency_summary()["p50"] > 5 * light.latency_summary()["p50"]

    def test_misbehaving_request_fn_detected(self):
        with pytest.raises(ValueError):
            run_closed_loop(1, 1.0, request_fn=lambda now: now - 1)

    def test_requires_clients(self):
        with pytest.raises(ValueError):
            run_closed_loop(0, 1.0, request_fn=lambda now: now)


class TestReport:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [[1, 2.5], ["xyz", 10000.0]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "xyz" in text and "10,000" in text

    def test_ascii_bar_chart(self):
        chart = ascii_bar_chart(["x", "yy"], [1.0, 2.0])
        assert chart.splitlines()[1].count("#") > chart.splitlines()[0].count("#")

    def test_bar_chart_validates(self):
        with pytest.raises(ValueError):
            ascii_bar_chart(["a"], [1.0, 2.0])

    def test_paper_row_shape(self):
        row = paper_row("metric", "~20x", 19.5, "good")
        assert row == ["metric", "~20x", 19.5, "good"]


def fake_scenario(run, wallclock=None):
    return harness.Scenario(name="fake", doc="a fake bench", seed=5, run=run,
                            summary=lambda report: "fake summary",
                            wallclock=wallclock)


class TestHarnessMain:
    def test_run_that_differs_between_calls_fails_check(self, tmp_path):
        calls = itertools.count()
        fake = fake_scenario(lambda args: {"n": next(calls),
                                           "checks": {"ok": True}})
        out = tmp_path / "report.json"
        assert harness.main(fake, ["--out", str(out), "--check"]) == 1
        report = json.loads(out.read_text())
        assert report["checks"] == {"ok": True, "deterministic": False}

    def test_failing_check_exits_1_and_still_writes_the_report(self, tmp_path):
        fake = fake_scenario(lambda args: {"seed": args.seed,
                                           "checks": {"gate": False}})
        out = tmp_path / "report.json"
        assert harness.main(fake, ["--out", str(out), "--check"]) == 1
        assert json.loads(out.read_text()) == {
            "bench": "fake", "seed": 5,
            "checks": {"gate": False, "deterministic": True},
        }
        assert out.read_text().endswith("}\n")

    def test_wallclock_keys_do_not_fail_the_determinism_check(self, tmp_path):
        calls = itertools.count()
        order = []

        def run(args):
            order.append("run")
            return {"wallclock_s": next(calls),
                    "modes": {"a": {"qps": 1, "wallclock": next(calls)}},
                    "checks": {}}

        def wallclock(args, report):
            order.append("wallclock")
            report["wallclock"] = {"qps": next(calls)}

        out = tmp_path / "report.json"
        fake = fake_scenario(run, wallclock)
        assert harness.main(fake, ["--out", str(out), "--check"]) == 0
        assert json.loads(out.read_text())["checks"] == {"deterministic": True}
        assert order == ["run", "run", "wallclock"]  # measured once, last

    def test_out_into_a_directory_that_does_not_exist_yet(self, tmp_path):
        out = tmp_path / "a" / "b" / "BENCH_fake.json"
        fake = fake_scenario(lambda args: {"checks": {"gate": False}})
        assert harness.main(fake, ["--out", str(out)]) == 0  # no --check
        assert json.loads(out.read_text())["bench"] == "fake"
