"""Determinism gates for the observability layer.

The hard guarantee pinned here: **observer effect is zero.**  Enabling
tracing + metrics must not change a single summary value of a seeded run —
including the golden summaries pinned since the hot-path overhaul
(duplicated inline; test modules cannot import each other without a tests
package).
"""

from __future__ import annotations

import pytest

from repro.obs import ObservabilityConfig, latency_attribution
from repro.obs.__main__ import main as obs_main, scenario_config
from repro.simulation import CachingMode, SimulationConfig, Simulator
from repro.workloads import DatasetSpec, WorkloadSpec


def golden_config(
    mode: CachingMode,
    num_shards: int = 1,
    observability: ObservabilityConfig | None = None,
) -> SimulationConfig:
    """The exact config behind the pinned golden summaries (see module docstring)."""
    return SimulationConfig(
        mode=mode,
        workload=WorkloadSpec.read_heavy(),
        dataset=DatasetSpec(num_tables=2, documents_per_table=300, queries_per_table=30),
        num_clients=4,
        connections_per_client=50,
        ebf_refresh_interval=1.0,
        matching_nodes=2,
        duration=60.0,
        max_operations=3_000,
        seed=13,
        num_shards=num_shards,
        observability=observability,
    )


#: golden summary for ``golden_config(CachingMode.QUAESTOR, 1)``, verbatim
#: from tests/simulation/test_golden_summary.py.
GOLDEN_QUAESTOR_1 = {
    "throughput": 14718.436844591828,
    "mean_read_latency_ms": 8.615301002732833,
    "mean_query_latency_ms": 1.0542310848279033,
    "client_query_hit_rate": 0.9540034071550255,
    "client_read_hit_rate": 0.8171953255425709,
    "cdn_query_hit_rate": 0.04003407155025554,
    "cdn_read_hit_rate": 0.09599332220367279,
    "query_stale_rate": 0.31601362862010224,
    "read_stale_rate": 0.07679465776293823,
}


class TestTracingIsInvisible:
    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_golden_summary_identical_tracing_off_and_on(self, num_shards):
        off = Simulator(golden_config(CachingMode.QUAESTOR, num_shards)).run().summary()
        traced = Simulator(
            golden_config(
                CachingMode.QUAESTOR, num_shards, observability=ObservabilityConfig.full()
            )
        )
        on = traced.run().summary()
        assert on == off
        if num_shards == 1:
            assert on == GOLDEN_QUAESTOR_1
        spans = traced.trace_spans()
        assert spans, "tracing on must actually record spans"
        assert latency_attribution(spans)["min_coverage"] >= 0.95

    def test_sampling_rate_does_not_change_results(self):
        full = Simulator(
            golden_config(CachingMode.QUAESTOR, observability=ObservabilityConfig.full())
        )
        sampled = Simulator(
            golden_config(
                CachingMode.QUAESTOR,
                observability=ObservabilityConfig(sample_every=7),
            )
        )
        assert full.run().summary() == sampled.run().summary() == GOLDEN_QUAESTOR_1
        # Sampled traces are a strict subset: fewer roots, same request mix.
        full_roots = len([s for s in full.trace_spans() if s.parent_id is None])
        sampled_roots = len([s for s in sampled.trace_spans() if s.parent_id is None])
        assert 0 < sampled_roots < full_roots

    def test_faulted_resilient_scenario_parity(self):
        """The brownout + resilience scenario the CLI runs: tracing must be
        invisible on the gray-failure and retry code paths too."""
        off = Simulator(scenario_config(13, 800)).run().summary()
        traced = Simulator(scenario_config(13, 800, ObservabilityConfig.full()))
        on = traced.run().summary()
        assert on == off
        assert on["faults_injected"] > 0, "scenario must actually exercise faults"
        attribution = latency_attribution(traced.trace_spans())
        assert attribution["min_coverage"] >= 0.95

    def test_metrics_agree_with_the_result_summary(self):
        simulator = Simulator(
            golden_config(CachingMode.QUAESTOR, observability=ObservabilityConfig.full())
        )
        result = simulator.run()
        counters, _gauges, histograms, series = simulator.metrics_state()
        ops_total = sum(
            value for name, _labels, value in counters if name == "sim_operations_total"
        )
        assert ops_total == result.operations
        latency_rows = [row for row in histograms if row[0] == "sim_request_latency_seconds"]
        assert sum(len(samples) for _n, _l, samples in latency_rows) == result.operations
        # The lazy epoch sampler plus the closing snapshot: the last series
        # point carries the final counter state.
        assert series, "the closing snapshot must leave at least one point"
        final_counters = series[-1][1]
        assert sum(v for n, _l, v in final_counters if n == "sim_operations_total") == ops_total


class TestSmokeCli:
    def test_smoke_exits_zero_and_writes_artifacts(self, tmp_path, capsys):
        assert obs_main(["--smoke", "--out", str(tmp_path), "--ops", "400"]) == 0
        out = capsys.readouterr().out
        assert "summary parity: OK" in out
        assert "latency attribution:" in out
        assert (tmp_path / "metrics.prom").read_text().startswith("# TYPE")
        assert (tmp_path / "obs.json").exists()
