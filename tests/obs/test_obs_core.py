"""Unit tests for the observability layer: tracing, registry, export, analysis."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    Gauge,
    MetricsRegistry,
    ObservabilityConfig,
    Span,
    TraceRecorder,
    coverage,
    critical_path,
    folded_stacks,
    index_spans,
    json_artifact,
    latency_attribution,
    percentile_root,
    prometheus_text,
    render_report,
    render_waterfall,
    request_roots,
    spans_from_tuples,
    write_artifacts,
)
from repro.simulation.simulator import SimulationConfig


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self._now = now

    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> None:
        self._now += dt


class TestObservabilityConfig:
    def test_defaults_and_full(self):
        config = ObservabilityConfig.full()
        assert config.trace and config.metrics
        assert config.sample_every == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ObservabilityConfig(sample_every=0)
        with pytest.raises(ValueError):
            ObservabilityConfig(metrics_interval=0.0)

    def test_simulation_config_rejects_wrong_type(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(observability="yes")


class TestTraceRecorder:
    def test_nested_spans_and_parents(self):
        clock = FakeClock()
        tracer = TraceRecorder(clock)
        root = tracer.begin("sdk.read")
        child = tracer.begin("cluster.read", shard=1)
        tracer.end(child)
        tracer.end(root)
        spans = tracer.spans()
        assert [span.name for span in spans] == ["sdk.read", "cluster.read"]
        assert spans[1].parent_id == spans[0].span_id
        assert spans[0].parent_id is None
        assert tracer.take_last_root() is spans[0]
        assert tracer.take_last_root() is None

    def test_events_require_an_open_span(self):
        tracer = TraceRecorder(FakeClock())
        assert tracer.event("router.route", shard=0) is None
        assert len(tracer) == 0
        root = tracer.begin("sdk.read")
        event = tracer.event("router.route", shard=0)
        tracer.end(root)
        assert event.parent_id == root.span_id
        assert event.attrs["shard"] == 0

    def test_unbalanced_end_raises(self):
        tracer = TraceRecorder(FakeClock())
        with pytest.raises(RuntimeError):
            tracer.end()

    def test_sampling_every_other_request(self):
        tracer = TraceRecorder(FakeClock(), sample_every=2)
        for index in range(4):
            root = tracer.begin("sdk.read")
            tracer.event("sdk.fetch")
            tracer.end(root)
            # Sampled requests return a Span, skipped ones None -- but the
            # stack stays balanced either way.
            assert (root is not None) == (index % 2 == 0)
        names = [span.name for span in tracer.spans()]
        assert names == ["sdk.read", "sdk.fetch", "sdk.read", "sdk.fetch"]

    def test_attach_cost_children(self):
        clock = FakeClock(5.0)
        tracer = TraceRecorder(clock)
        root = tracer.begin("sdk.read")
        tracer.end(root)
        part = tracer.attach(root, "net.origin", cost=0.15)
        assert part.parent_id == root.span_id
        assert part.cost == 0.15

    def test_round_trip_through_tuples(self):
        tracer = TraceRecorder(FakeClock())
        root = tracer.begin("sdk.read", key="k")
        tracer.end(root)
        rows = tracer.span_tuples()
        restored = spans_from_tuples(rows)
        assert [span.to_tuple() for span in restored] == list(rows)

class TestMetricsRegistry:
    def test_counters_are_monotone(self):
        registry = MetricsRegistry()
        registry.inc("requests_total", op="read")
        registry.inc("requests_total", 2, op="read")
        assert registry.counter_value("requests_total", op="read") == 3
        with pytest.raises(ValueError):
            registry.inc("requests_total", -1, op="read")

    def test_gauges_move_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("inflight")
        gauge.add(3)
        assert gauge.add(-2) == 1
        assert registry.gauge_value("inflight") == 1
        standalone = Gauge(5.0)
        standalone.set(1.0)
        assert standalone.value == 1.0

    def test_series_snapshots(self):
        registry = MetricsRegistry(interval=1.0)
        registry.inc("ops")
        registry.sample(1.0)
        registry.inc("ops")
        registry.sample(2.0)
        series = registry.series()
        assert [point[0] for point in series] == [1.0, 2.0]
        assert series[0][1] == (("ops", (), 1),)
        assert series[1][1] == (("ops", (), 2),)

class TestExport:
    def _state(self):
        registry = MetricsRegistry()
        registry.inc("requests_total", 7, op="read")
        registry.gauge("inflight").add(2)
        registry.observe("latency_seconds", 0.25, op="read")
        registry.observe("latency_seconds", 0.75, op="read")
        registry.sample(1.0)
        return registry.state()

    def test_prometheus_text(self):
        text = prometheus_text(self._state())
        assert '# TYPE requests_total counter' in text
        assert 'requests_total{op="read"} 7' in text
        assert 'inflight 2' in text.replace(".0", "")
        assert 'latency_seconds_count{op="read"} 2' in text
        assert 'latency_seconds_sum{op="read"} 1' in text.replace(".0", "")

    def test_json_artifact_and_write(self, tmp_path):
        artifact = json_artifact(self._state(), trace_rows=(), meta={"seed": 13})
        assert artifact["meta"]["seed"] == 13
        prom_path, json_path = write_artifacts(tmp_path, self._state())
        assert prom_path.read_text().startswith("# TYPE")
        loaded = json.loads(json_path.read_text())
        assert set(loaded) == {"meta", "metrics", "trace"}


def _request(tracer, name, parts, level="origin"):
    root = tracer.begin(name)
    tracer.end(root)
    total = 0.0
    for stage, cost in parts:
        tracer.attach(root, stage, cost=cost)
        total += cost
    root.cost = total
    root.attrs["level"] = level
    return root


class TestAnalyze:
    def _spans(self):
        tracer = TraceRecorder(FakeClock())
        _request(tracer, "sdk.read", [("net.origin", 0.15), ("queue.origin", 0.05)])
        _request(tracer, "sdk.read", [("net.cdn", 0.01)], level="cdn")
        _request(tracer, "sdk.query", [("net.origin", 0.3), ("gray.slow", 0.9)])
        return tracer.spans()

    def test_roots_and_attribution(self):
        spans = self._spans()
        roots = request_roots(spans)
        assert len(roots) == 3
        summary = latency_attribution(spans)
        assert summary["requests"] == 3
        assert summary["min_coverage"] == pytest.approx(1.0)
        assert summary["stages"][0][0] == "gray.slow"

    def test_coverage_with_negative_compensation(self):
        tracer = TraceRecorder(FakeClock())
        root = _request(
            tracer, "sdk.read", [("net.origin", 0.2), ("resilience.fast_fail", -0.2)]
        )
        _by_id, children = index_spans(tracer.spans())
        # Zero total latency: trivially fully covered.
        assert root.cost == 0.0
        assert coverage(root, children) == 1.0

    def test_critical_path_and_percentiles(self):
        spans = self._spans()
        _by_id, children = index_spans(spans)
        roots = request_roots(spans)
        p99 = percentile_root(roots, 0.99)
        assert p99.name == "sdk.query"
        top = critical_path(p99, children, k=1)
        assert top == [("gray.slow", 0.9)]
        assert percentile_root([], 0.5) is None
        with pytest.raises(ValueError):
            percentile_root(roots, 1.5)

    def test_renderers(self):
        spans = self._spans()
        _by_id, children = index_spans(spans)
        roots = request_roots(spans)
        waterfall = render_waterfall(roots[2], children)
        assert "gray.slow" in waterfall and "#" in waterfall
        stacks = folded_stacks(spans)
        assert any(line.startswith("sdk.query;gray.slow ") for line in stacks)
        report = render_report(spans)
        assert "latency attribution: 3 sampled requests" in report
        assert "top stages at p99" in report

    def test_analyze_accepts_tuple_rows(self):
        rows = [span.to_tuple() for span in self._spans()]
        assert latency_attribution(rows)["requests"] == 3
