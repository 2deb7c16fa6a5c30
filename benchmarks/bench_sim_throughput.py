#!/usr/bin/env python
"""End-to-end simulator throughput benchmark: simulated ops/sec, before/after.

Measures how fast :class:`repro.simulation.Simulator` advances simulated
operations through a full Quaestor deployment and writes the numbers to
``BENCH_sim.json``.  Every scenario is run twice in the same process:

* **baseline** -- under :func:`repro.perf.legacy_hot_paths`, which restores
  the pre-overhaul per-operation code paths (``copy.deepcopy`` document
  cloning, per-record ``Response``/Cache-Control construction, uncached ETag
  rendering, per-operation RNG sampling, per-operation session snapshot
  copies);
* **optimized** -- the default fast paths (tuple-heap event queue with bulk
  ``schedule_many`` start-up, chunked ``random.choices``-style workload
  sampling, fast-path hierarchy fetch and ``store_fresh`` cache stores,
  memoized ETag rendering and per-version session snapshots).

Before any timing is read, the two legs' seeded
:meth:`~repro.simulation.SimulationResult.summary` dictionaries are asserted
**value-identical** -- the overhaul changes what one simulated operation
costs, never what it computes.

The per-mode breakdown covers the paper's four system configurations
(QUAESTOR / EBF_ONLY / CDN_ONLY / UNCACHED) at one and four shards.  The
headline metric is the full system (``quaestor``, one shard): the default
configuration every figure-8/9/10 reproduction drives.

Usage::

    PYTHONPATH=src python benchmarks/bench_sim_throughput.py              # full run
    PYTHONPATH=src python benchmarks/bench_sim_throughput.py --budget     # CI-sized
    PYTHONPATH=src python benchmarks/bench_sim_throughput.py --budget \\
        --check BENCH_sim.json                                           # regression gate

``--check`` compares the freshly measured optimized-vs-baseline *speedups*
against the committed file and fails (exit 1) when any ratio collapsed by
more than the allowed factor (default 3x).  Ratios, not absolute ops/sec:
both legs of each ratio come from the same machine and invocation, so the
gate is independent of how fast the CI runner happens to be.

Every run also measures and gates a **sweep grid**: eight seeds of the
``quaestor/shards=1`` scenario at 20k operations, run once as a plain serial
loop and once through :func:`repro.simulation.map_ordered` on every usable
core.  The two legs' summaries are asserted identical before any timing is
read, and the sweep must reach 0.625x per usable core vs the serial loop
(>= 1.25x on 2 cores, >= 2.5x on 4); below that floor the run exits 1 and
writes nothing.  ``cpu_count`` and ``usable_cores`` are recorded in the
report, so a grid measured on a single-core runner is legible as such.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import platform
import sys
import time
from typing import Dict, List, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import perf  # noqa: E402
from repro.rest.etags import clear_etag_caches  # noqa: E402
from repro.simulation import (  # noqa: E402
    CachingMode,
    SimulationConfig,
    Simulator,
    map_ordered,
    usable_cores,
)
from repro.workloads import DatasetSpec, WorkloadSpec  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_sim.json"
SCHEMA = "quaestor-bench-sim/1"
#: CI gate: fail when a scenario's speedup drops below committed/FACTOR.
DEFAULT_REGRESSION_FACTOR = 3.0
#: The scenario every figure reproduction drives: the full system.
HEADLINE_SCENARIO = "quaestor/shards=1"

#: The sweep grid: independent seeds of the headline scenario.
SWEEP_SEEDS = tuple(range(42, 50))
#: Operations per sweep run, in budget and full mode alike: the grid gates a
#: *ratio*, and too small a run would drown it in process start-up cost.
SWEEP_MAX_OPERATIONS = 20_000
#: Scaling floor per usable core: the sweep on N usable cores must reach
#: 0.625 * N vs the serial loop (1.25x on 2 cores, 2.5x on 4).
SWEEP_SCALING_PER_CORE = 0.625

#: Simulated-ops/sec measured in this repo immediately before the overhaul
#: (commit 2326f94, quaestor/shards=1, full-run scale) -- the absolute
#: pre-PR reference for the machine that produced the committed report.
PRE_CHANGE_REFERENCE = {
    "quaestor/shards=1": 8_156.0,
    "cdn-only/shards=1": 28_878.0,
    "uncached/shards=1": 9_927.0,
}


def build_config(mode: CachingMode, num_shards: int, max_operations: int) -> SimulationConfig:
    """One benchmark scenario: a mid-sized deployment, fixed seed."""
    return SimulationConfig(
        mode=mode,
        workload=WorkloadSpec.read_heavy(),
        dataset=DatasetSpec(num_tables=2, documents_per_table=300, queries_per_table=30),
        num_clients=4,
        connections_per_client=50,
        ebf_refresh_interval=1.0,
        matching_nodes=2,
        duration=60.0,
        max_operations=max_operations,
        seed=42,
        num_shards=num_shards,
    )


def run_leg(config: SimulationConfig) -> Tuple[Dict[str, float], int, int, float]:
    """Build and run one simulator; returns (summary, operations, events, seconds)."""
    simulator = Simulator(config)
    start = time.perf_counter()
    result = simulator.run()
    elapsed = time.perf_counter() - start
    return result.summary(), simulator.total_operations, simulator.events.processed, elapsed


def bench_scenario(
    mode: CachingMode, num_shards: int, max_operations: int, repeats: int
) -> Dict[str, object]:
    """Measure baseline (legacy flags) vs optimized for one scenario."""
    config = build_config(mode, num_shards, max_operations)

    # Determinism gate before any timing: the seeded summaries of the two
    # implementations must be value-identical.
    clear_etag_caches()
    fast_summary, _ops, _events, _ = run_leg(config)
    with perf.legacy_hot_paths():
        legacy_summary, _lops, _levents, _ = run_leg(config)
    if fast_summary != legacy_summary:
        raise AssertionError(
            f"hot-path overhaul changed the seeded summary for {mode.value}/"
            f"shards={num_shards}:\n  legacy:    {legacy_summary}\n  optimized: {fast_summary}"
        )

    best_baseline = 0.0
    best_optimized = 0.0
    events_per_sec = 0.0
    operations = 0
    for _ in range(repeats):
        with perf.legacy_hot_paths():
            _summary, ops, _events, elapsed = run_leg(config)
        if elapsed > 0:
            best_baseline = max(best_baseline, ops / elapsed)
        clear_etag_caches()
        _summary, ops, events, elapsed = run_leg(config)
        if elapsed > 0:
            rate = ops / elapsed
            if rate > best_optimized:
                best_optimized = rate
                events_per_sec = events / elapsed
        operations = ops
    return {
        "operations": operations,
        "baseline_ops_per_sec": round(best_baseline, 1),
        "optimized_ops_per_sec": round(best_optimized, 1),
        "optimized_events_per_sec": round(events_per_sec, 1),
        "speedup": round(best_optimized / best_baseline, 2) if best_baseline else float("inf"),
        "summary_identical": True,
    }


def sweep_run(config: SimulationConfig) -> Tuple[Dict[str, float], int]:
    """One sweep item: the seeded summary plus the operations it executed."""
    simulator = Simulator(config)
    summary = simulator.run().summary()
    return summary, simulator.total_operations


def bench_sweep(repeats: int) -> Dict[str, object]:
    """Time the sweep grid serially and across every usable core.

    The serial leg is the plain loop ``[sweep_run(c) for c in configs]``;
    the parallel leg hands the same configs to :func:`map_ordered`.  Before
    any timing is read, the two legs' results are asserted identical, so
    spreading runs over processes can change how long a sweep takes, never
    what it computes.  Scaling is the serial leg's best wall time over the
    parallel leg's, so it is independent of runner speed.
    """
    base = build_config(CachingMode.QUAESTOR, 1, SWEEP_MAX_OPERATIONS)
    configs = [dataclasses.replace(base, seed=seed) for seed in SWEEP_SEEDS]
    cores = usable_cores()
    best = {"serial": float("inf"), "parallel": float("inf")}
    operations = 0
    for _ in range(repeats):
        start = time.perf_counter()
        serial = [sweep_run(config) for config in configs]
        best["serial"] = min(best["serial"], time.perf_counter() - start)
        start = time.perf_counter()
        parallel = map_ordered(sweep_run, configs)
        best["parallel"] = min(best["parallel"], time.perf_counter() - start)
        if parallel != serial:
            raise AssertionError(
                "the sweep's summaries differ between the serial loop and map_ordered"
            )
        operations = sum(ops for _summary, ops in serial)
    return {
        "scenario": f"{HEADLINE_SCENARIO} x {len(SWEEP_SEEDS)} seeds",
        "seeds": list(SWEEP_SEEDS),
        "max_operations": SWEEP_MAX_OPERATIONS,
        "cpu_count": os.cpu_count() or 1,
        "usable_cores": cores,
        "summaries_identical": True,
        "serial_ops_per_sec": round(operations / best["serial"], 1),
        "parallel_ops_per_sec": round(operations / best["parallel"], 1),
        "scaling": round(best["serial"] / best["parallel"], 3),
        "floor": round(SWEEP_SCALING_PER_CORE * cores, 3),
    }


def check_sweep(report: Dict[str, object]) -> int:
    """Gate the sweep scaling measured in this invocation (0.625x per core)."""
    sweep = report["sweep"]
    scaling, floor = float(sweep["scaling"]), float(sweep["floor"])
    status = "ok" if scaling >= floor else "REGRESSION"
    print(
        f"  sweep scaling {scaling:.3f}x  floor {floor:.3f}x "
        f"(usable_cores={sweep['usable_cores']})  {status}"
    )
    if scaling < floor:
        print("FAIL: sweep scaling below 0.625x per usable core")
        return 1
    print("OK: sweep scaling within floor (summaries already asserted identical)")
    return 0


def run(budget: bool, repeats: int) -> Dict[str, object]:
    max_operations = 6_000 if budget else 20_000
    bench_repeats = max(1, min(repeats, 2) if budget else repeats)
    if budget:
        scenarios: List[Tuple[CachingMode, int]] = [
            (CachingMode.QUAESTOR, 1),
            (CachingMode.EBF_ONLY, 1),
            (CachingMode.CDN_ONLY, 1),
            (CachingMode.UNCACHED, 1),
            (CachingMode.QUAESTOR, 4),
        ]
    else:
        scenarios = [(mode, shards) for mode in CachingMode for shards in (1, 4)]

    results: Dict[str, object] = {}
    for mode, shards in scenarios:
        name = f"{mode.value}/shards={shards}"
        results[name] = bench_scenario(mode, shards, max_operations, bench_repeats)

    headline = results.get(HEADLINE_SCENARIO, {})
    return {
        "schema": SCHEMA,
        "generated_by": "benchmarks/bench_sim_throughput.py",
        "budget_mode": budget,
        "python": platform.python_version(),
        "workload": "read-heavy (49.5% reads, 49.5% queries, 1% updates), zipf 0.7",
        "max_operations": max_operations,
        "scenarios": results,
        "sweep": bench_sweep(bench_repeats),
        "headline": {
            "scenario": HEADLINE_SCENARIO,
            "speedup": headline.get("speedup"),
            "optimized_ops_per_sec": headline.get("optimized_ops_per_sec"),
        },
        "pre_change_reference": {
            "note": (
                "absolute simulated-ops/sec measured in-repo at commit 2326f94 "
                "(before this overhaul) on the machine that produced this report; "
                "the baseline_ops_per_sec legs re-measure the legacy code paths "
                "per run via repro.perf.legacy_hot_paths()"
            ),
            "measured_ops_per_sec": PRE_CHANGE_REFERENCE,
        },
    }


def speedup_metrics(report: Dict[str, object]) -> Dict[str, float]:
    return {
        name: scenario["speedup"]
        for name, scenario in report["scenarios"].items()
        if isinstance(scenario, dict) and "speedup" in scenario
    }


def check(report: Dict[str, object], baseline_path: pathlib.Path, factor: float) -> int:
    """Gate on the optimized-vs-baseline *speedup* of the current run.

    Only scenarios present in both reports are compared (the budget run
    covers a subset of the committed full grid).  A collapse of a ratio
    towards 1 is exactly the regression this guards against: per-operation
    deep copies, uncached ETag rendering or per-record response construction
    sneaking back into the simulation hot path.
    """
    committed = json.loads(baseline_path.read_text(encoding="utf-8"))
    current = speedup_metrics(report)
    reference = speedup_metrics(committed)
    failures = []
    compared = 0
    for name, reference_ratio in reference.items():
        if name not in current:
            continue
        compared += 1
        current_ratio = current[name]
        floor = reference_ratio / factor
        status = "ok" if current_ratio >= floor else "REGRESSION"
        print(
            f"  {name:<22} current speedup {current_ratio:>6.2f}x  "
            f"committed {reference_ratio:>6.2f}x  floor {floor:>5.2f}x  {status}"
        )
        if current_ratio < floor:
            failures.append(name)
    if compared == 0:
        print("FAIL: no overlapping scenarios between current run and committed report")
        return 1
    if failures:
        print(f"FAIL: simulator speedup collapsed >{factor:.0f}x on: {', '.join(failures)}")
        return 1
    print(f"OK: all simulator speedups within {factor:.0f}x of the committed baseline")
    return 0


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--budget", action="store_true", help="CI-sized run (fewer operations/scenarios/repeats)"
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=DEFAULT_OUTPUT,
        help=f"where to write the JSON report (default: {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--no-write", action="store_true", help="measure and print without writing the file"
    )
    parser.add_argument(
        "--check",
        type=pathlib.Path,
        metavar="BASELINE",
        help="compare against a committed report; exit 1 on >--factor regression",
    )
    parser.add_argument(
        "--factor",
        type=float,
        default=DEFAULT_REGRESSION_FACTOR,
        help=f"allowed regression factor for --check (default {DEFAULT_REGRESSION_FACTOR:g})",
    )
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats (best-of)")
    args = parser.parse_args(argv)

    report = run(args.budget, args.repeats)
    print(json.dumps(report, indent=2))

    print("\nSweep scaling check (measured this invocation):")
    exit_code = check_sweep(report)

    if args.check is not None:
        # Gate runs never overwrite the committed baseline they compare against.
        print(f"\nRegression check against {args.check}:")
        return check(report, args.check, args.factor) or exit_code

    if exit_code == 0 and not args.no_write:
        args.output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"\nwrote {args.output}")
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
