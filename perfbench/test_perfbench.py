"""Tests of the benchmark itself, on test-sized (``--tiny``) workloads."""

from __future__ import annotations

import copy
import dataclasses
import json
import pathlib
import shutil
import signal
import subprocess
import sys

import pytest

from perfbench import gate, run
from perfbench.rep import run_rep
from perfbench.speed import REFERENCE_PROBE_S
from perfbench.workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS
from repro.db.collection import Collection
from repro.obs import ObservabilityConfig
from repro.simulation import Simulator
from repro.verify.mutations import MUTATIONS

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _result_line(output: str) -> dict:
    return json.loads(output.strip().splitlines()[-1])


def test_benchmark_json_matches_the_metrics_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for section, metrics in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[section]}
        assert declared == metrics


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_a_unit(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seconds", "0", "--trace", str(trace), "--tiny"])
    result = _result_line(capsys.readouterr().out)
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name][0]
        if not trace:
            assert metric["value"] > 0, name


def test_traced_runs_repeat_counts_and_simulated_results_exactly():
    plain = run_rep("write-heavy-replicated", DEFAULT_SEED, "plain", tiny=True)
    first = run_rep("write-heavy-replicated", DEFAULT_SEED, "spans", tiny=True)
    second = run_rep("write-heavy-replicated", DEFAULT_SEED, "spans", tiny=True)
    assert first["layers"]["calls"] == second["layers"]["calls"]
    assert first["layers"]["counts"] == second["layers"]["counts"]
    assert first["layers"]["missing"] == []
    assert all(first["layers"]["calls"][layer] > 0 for layer in first["layers"]["calls"])
    assert gate.check_identical([plain, first, second]) == []


def test_plain_run_probes_both_phases_and_restores_the_alarm_handler():
    handler = signal.getsignal(signal.SIGALRM)
    rep = run_rep("read-heavy-cached", DEFAULT_SEED, "plain", tiny=True)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    for phase in ("setup", "run"):
        assert rep["probe"][phase]["count"] >= 2 and rep["probe"][phase]["mean_s"] > 0
        assert run.calibrated_s(rep, phase) > 0


def test_calibration_cancels_a_uniformly_slower_host():
    rep = {"run_s": 2.0, "probe": {"run": {"mean_s": 0.006}}}
    slower = {"run_s": 4.0, "probe": {"run": {"mean_s": 0.012}}}
    assert run.calibrated_s(rep, "run") == run.calibrated_s(slower, "run")
    assert run.calibrated_s(rep, "run") == 2.0 * REFERENCE_PROBE_S / 0.006


def test_tracer_restores_the_program_after_the_traced_run():
    original = Collection.__dict__["find"]
    run_rep("uncached-scatter", DEFAULT_SEED, "spans", tiny=True)
    assert Collection.__dict__["find"] is original


@pytest.mark.parametrize(
    "perturb",
    [
        lambda sim: sim["summary"].__setitem__("throughput", sim["summary"]["throughput"] * 1.01),
        lambda sim: sim["level_counts"]["read"].__setitem__("client", 0),
        lambda sim: sim["level_counts"]["write"].__setitem__("error", 1),
    ],
    ids=["summary", "level-counts", "error"],
)
def test_gate_rejects_a_perturbed_outcome(perturb):
    rep = run_rep("read-heavy-cached", DEFAULT_SEED, "plain", tiny=True)
    assert gate.check_rep(rep) == []
    perturbed = copy.deepcopy(rep)
    perturb(perturbed["sim"])
    assert gate.check_rep(perturbed) or gate.check_identical([rep, perturbed])


def test_gate_rejects_every_perturbed_history():
    config = dataclasses.replace(
        WORKLOADS["write-heavy-replicated"].config(DEFAULT_SEED, tiny=True),
        observability=ObservabilityConfig(),
        record_history=True,
    )
    simulator = Simulator(config)
    simulator.run()
    events = simulator.history_events()
    clean = {"min_coverage": 1.0, **gate.audit_history(events, config)}
    assert gate.check_audit(clean) == []
    for mutation in MUTATIONS:
        mutated = {"min_coverage": 1.0, **gate.audit_history(mutation.apply(events), config)}
        assert gate.check_audit(mutated), mutation.name
    assert gate.check_audit({**clean, "min_coverage": 0.5})


def test_default_and_held_out_seeds_both_run_and_differ():
    default = run_rep("read-heavy-cached", DEFAULT_SEED, "plain", tiny=True)
    held_out = run_rep("read-heavy-cached", HELD_OUT_SEED, "plain", tiny=True)
    assert gate.check_rep(default) == [] and gate.check_rep(held_out) == []
    assert default["sim"]["summary"] != held_out["sim"]["summary"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "read-heavy-cached",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert process.returncode != 0
    assert '"correct"' not in process.stdout
