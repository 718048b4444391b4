"""The observability layer: metrics, tracing, and their REST exposure.

Everything runs under ``SimClock``, so every latency, quantile, and span
duration asserted here is exact — the clock only moves when a test moves
it.
"""

import pytest

from repro.bench import render_metrics
from repro.clock import SimClock
from repro.core.service.http_server import UnityCatalogHttpServer
from repro.core.service.rest import RestApi, TextResponse
from repro.obs import MetricsRegistry, Observability, Tracer
from repro.obs.tracing import NULL_SPAN


class TestCounters:
    def test_counter_renders_labels(self):
        registry = MetricsRegistry(clock=SimClock())
        counter = registry.counter("requests_total", "Requests.", ("api",))
        counter.labels(api="get").inc()
        counter.labels(api="get").inc()
        counter.labels(api="list").inc()
        text = registry.render()
        assert "# HELP requests_total Requests." in text
        assert "# TYPE requests_total counter" in text
        assert 'requests_total{api="get"} 2' in text
        assert 'requests_total{api="list"} 1' in text

    def test_counter_rejects_negative_increment(self):
        registry = MetricsRegistry(clock=SimClock())
        child = registry.counter("ops_total").labels()
        with pytest.raises(ValueError):
            child.inc(-1)

    def test_get_or_create_is_idempotent_but_type_checked(self):
        registry = MetricsRegistry(clock=SimClock())
        first = registry.counter("x_total")
        assert registry.counter("x_total") is first
        with pytest.raises(ValueError):
            registry.gauge("x_total")


class TestHistogramQuantiles:
    def test_exact_quantiles_from_known_stream(self):
        registry = MetricsRegistry(clock=SimClock())
        histogram = registry.histogram("latency_seconds", buckets=(0.1, 1.0))
        child = histogram.labels()
        for value in range(1, 101):  # 1..100
            child.observe(float(value))
        assert child.quantile(0.0) == 1.0
        assert child.quantile(1.0) == 100.0
        assert child.quantile(0.50) == pytest.approx(50.5)
        assert child.quantile(0.95) == pytest.approx(95.05)
        assert child.quantile(0.99) == pytest.approx(99.01)

    def test_timer_charges_simclock_elapsed_time(self):
        clock = SimClock()
        registry = MetricsRegistry(clock=clock)
        histogram = registry.histogram("op_seconds")
        child = histogram.labels()
        for _ in range(10):
            with histogram.timer(child):
                clock.advance(0.25)
        assert child.count == 10
        assert child.sum == pytest.approx(2.5)
        assert child.quantile(0.50) == pytest.approx(0.25)

    def test_cumulative_buckets_follow_prometheus_contract(self):
        registry = MetricsRegistry(clock=SimClock())
        histogram = registry.histogram("h", buckets=(0.1, 1.0, 10.0))
        child = histogram.labels()
        for value in (0.05, 0.5, 5.0, 50.0):
            child.observe(value)
        text = registry.render()
        assert 'h_bucket{le="0.1"} 1' in text
        assert 'h_bucket{le="1"} 2' in text
        assert 'h_bucket{le="10"} 3' in text
        assert 'h_bucket{le="+Inf"} 4' in text
        assert "h_count 4" in text

    def test_reservoir_is_deterministic_across_runs(self):
        def build():
            registry = MetricsRegistry(clock=SimClock())
            child = registry.histogram("h").labels()
            for value in range(10_000):
                child.observe(float(value))
            return child.percentiles()

        assert build() == build()


class TestTracer:
    def test_nested_spans_share_a_trace(self):
        clock = SimClock()
        tracer = Tracer(clock=clock)
        with tracer.start_trace("query") as root:
            clock.advance(1.0)
            with tracer.span("parse"):
                clock.advance(0.5)
            with tracer.span("scan") as scan:
                scan.set_attr("rows", 42)
                clock.advance(2.0)
        trace = tracer.trace(root.span.trace_id)
        assert [s.name for s in trace.walk()] == ["query", "parse", "scan"]
        assert trace.duration == pytest.approx(3.5)
        assert trace.find("parse").duration == pytest.approx(0.5)
        assert trace.find("scan").attrs["rows"] == 42

    def test_span_without_active_trace_is_noop(self):
        tracer = Tracer(clock=SimClock())
        with tracer.span("orphan"):
            pass
        assert tracer.trace_ids() == []

    def test_exception_recorded_on_span(self):
        tracer = Tracer(clock=SimClock())
        with pytest.raises(RuntimeError):
            with tracer.start_trace("query") as root:
                raise RuntimeError("boom")
        trace = tracer.trace(root.span.trace_id)
        assert "RuntimeError: boom" in trace.error

    def test_trace_buffer_is_bounded(self):
        tracer = Tracer(clock=SimClock(), max_traces=3)
        for _ in range(5):
            with tracer.start_trace("q"):
                pass
        assert len(tracer.trace_ids()) == 3


class TestLifeOfAQueryTrace:
    def test_select_produces_nested_phase_spans(self, service, alice_session):
        result = alice_session.sql("SELECT * FROM sales.q1.orders")
        assert result.trace_id is not None
        trace = service.obs.tracer.trace(result.trace_id)
        names = [s.name for s in trace.walk()]
        for phase in (
            "parse",
            "analyze",
            "uc.resolve_for_query",
            "uc.authorize",
            "uc.vend",
            "scan",
        ):
            assert trace.find(phase) is not None, names
        # authorize/vend nest under the service-side resolve span
        resolve = trace.find("uc.resolve_for_query")
        assert resolve.find("uc.authorize") is not None
        assert resolve.find("uc.vend") is not None
        assert trace.find("scan").attrs["rows"] == 4

    def test_metrics_count_the_query_work(self, service, alice_session):
        snapshot = service.obs.metrics.snapshot()
        resolves = snapshot.get('uc_api_requests_total{api="resolve_for_query"}', 0)
        alice_session.sql("SELECT * FROM sales.q1.orders WHERE amount > 100")
        after = service.obs.metrics.snapshot()
        assert after['uc_api_requests_total{api="resolve_for_query"}'] == resolves + 1
        assert after["uc_credentials_minted_total"] >= 1
        assert after["uc_delta_commits_total"] >= 2  # create + insert
        latency = after['uc_api_latency_seconds{api="resolve_for_query"}']
        assert latency["count"] >= 1


class TestRestExposure:
    def test_metrics_endpoint_returns_prometheus_text(self, service, populated):
        api = RestApi(service)
        status, response = api.handle("GET", "/metrics", principal="")
        assert status == 200
        assert isinstance(response, TextResponse)
        assert response.content_type.startswith("text/plain")
        assert "# TYPE uc_api_requests_total counter" in response.body
        assert 'uc_api_requests_total{api="create_securable"}' in response.body
        assert "uc_cache_hits_total" in response.body
        # the fast-path bundle's sizes: three series per metastore
        sizes = [line for line in response.body.splitlines()
                 if line.startswith("uc_hot_cache_entries{")]
        assert len(sizes) == 3
        for cache in ("decisions", "resolutions", "chains"):
            assert sum(f'cache="{cache}"' in line and 'metastore="main"' in line
                       for line in sizes) == 1

    def test_traces_endpoint_returns_span_tree(self, service, alice_session):
        result = alice_session.sql("SELECT id FROM sales.q1.orders")
        api = RestApi(service)
        status, listing = api.handle("GET", "/traces", principal="")
        assert status == 200
        assert result.trace_id in listing["trace_ids"]
        status, tree = api.handle("GET", f"/traces/{result.trace_id}", principal="")
        assert status == 200
        assert tree["name"] == "query"
        names = {child["name"] for child in tree["children"]}
        assert "parse" in names
        assert tree["duration"] is not None

    def test_unknown_trace_is_404(self, service, metastore_id):
        api = RestApi(service)
        status, body = api.handle("GET", "/traces/trace-999", principal="")
        assert status == 404
        assert body["error_code"] == "RESOURCE_DOES_NOT_EXIST"

    def test_metrics_over_http_without_principal(self, service, populated):
        import http.client

        with UnityCatalogHttpServer(service) as server:
            host, port = server.address
            connection = http.client.HTTPConnection(host, port, timeout=10)
            connection.request("GET", "/metrics")
            response = connection.getresponse()
            payload = response.read().decode()
            connection.close()
        assert response.status == 200
        assert response.getheader("Content-Type").startswith("text/plain")
        assert "uc_api_requests_total" in payload

    def test_http_connection_metrics_count_connections_not_requests(
        self, service, populated
    ):
        import http.client

        with UnityCatalogHttpServer(service) as server:
            connection = http.client.HTTPConnection(*server.address, timeout=10)
            for _ in range(3):
                connection.request("GET", "/metrics")
                payload = connection.getresponse().read().decode()
            connection.close()
        assert "# TYPE uc_http_connections_total counter" in payload
        assert "\nuc_http_connections_total 1\n" in payload
        assert "# TYPE uc_http_open_connections gauge" in payload
        assert "\nuc_http_open_connections 1\n" in payload
        # after stop() every connection has been joined
        assert service.obs.metrics.get("uc_http_connections_total").value == 1
        assert service.obs.metrics.get("uc_http_open_connections").value == 0


class TestObservabilityBundle:
    def test_shared_clock(self):
        clock = SimClock()
        obs = Observability(clock=clock)
        assert obs.clock is clock
        assert obs.metrics.clock is clock
        assert obs.tracer._clock is clock

    def test_null_span_absorbs_the_span_protocol(self):
        with NULL_SPAN as span:
            span.set_attr("ignored", 1)
        assert span is NULL_SPAN

    def test_bench_report_pulls_registry_snapshot(self, service, alice_session):
        alice_session.sql("SELECT * FROM sales.q1.orders")
        report = render_metrics(service.obs.metrics, prefix="uc_", title="query telemetry")
        lines = report.splitlines()
        assert lines[0] == "query telemetry"
        assert "uc_api_requests_total" in report
        assert "uc_api_latency_seconds" in report
        # every data row (after title/header/rule) honours the prefix
        for line in lines[3:]:
            assert line.startswith("uc_"), line
