#!/usr/bin/env python3
"""Repository benchmark: seeded simulator workloads, end to end and per layer.

Usage::

    python3 perfbench/run.py --workload read-heavy-cached --seed 1 --seconds 30 --trace 0

Each repetition runs in a fresh interpreter (``perfbench/rep.py``) through
the public ``SimulationConfig`` -> ``Simulator(config)`` -> ``.run()`` API.
With ``--trace 0`` the benchmark repeats plain runs for ``--seconds`` (at
least three) and reports the end-to-end metrics: medians of the host
metrics, and the simulated metrics, which every repetition must reproduce
exactly.  With ``--trace 1`` it alternates plain and span-traced runs for
``--seconds``, makes one run with ``repro.obs`` and history recording on,
and reports the per-layer metrics.  Both modes apply the correctness
gate (``perfbench/gate.py``).  The last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import signal
import subprocess
import sys
import time
from statistics import median
from typing import Dict, List, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
REP_SCRIPT = ROOT / "perfbench" / "rep.py"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.layertrace import LAYERS  # noqa: E402  (imports nothing from repro)
from perfbench.speed import REFERENCE_PROBE_S, probe  # noqa: E402

#: Fewest repetitions a ``--trace 0`` run takes, however short ``--seconds``.
MIN_REPS = 3
#: A run stops starting repetitions once it has used this much wall time.
WALL_BUDGET_S = 150.0

#: End-to-end metrics (``--trace 0``): name -> (unit, better).
END_TO_END: Dict[str, Tuple[str, str]] = {
    "host_ops_per_s": ("ops/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "sim_throughput_ops_s": ("ops/s", "higher"),
    "read_mean_ms": ("ms", "lower"),
    "read_p99_ms": ("ms", "lower"),
    "query_mean_ms": ("ms", "lower"),
    "query_p99_ms": ("ms", "lower"),
    "write_p50_ms": ("ms", "lower"),
    "write_p99_ms": ("ms", "lower"),
    "fresh_rate": ("ratio", "higher"),
    "success_rate": ("ratio", "higher"),
}

#: Per-layer metrics (``--trace 1``): name -> (unit, better).
PER_LAYER: Dict[str, Tuple[str, str]] = {
    **{f"{layer}.self_us_per_op": ("us/op", "lower") for layer in LAYERS},
    **{f"{layer}.calls_per_op": ("calls/op", "lower") for layer in LAYERS},
    "db.doc_copies_per_op": ("copies/op", "lower"),
    "db.finds_per_query": ("finds/query", "lower"),
    "cluster.fanout_per_query": ("shards/query", "lower"),
    "caching.stores_per_op": ("stores/op", "lower"),
    "caching.lookups_per_op": ("lookups/op", "lower"),
    "bloom.probes_per_op": ("probes/op", "lower"),
    "bloom.adds_per_write": ("adds/write", "lower"),
    "invalidb.notifications_per_write": ("1/write", "lower"),
    "cdn.purges_per_write": ("purges/write", "lower"),
    "replication.records_shipped_per_write": ("records/write", "lower"),
    "simulation.events_per_op": ("events/op", "lower"),
    "client.hit_rate.read": ("ratio", "higher"),
    "client.hit_rate.query": ("ratio", "higher"),
    "cdn.hit_rate.read": ("ratio", "higher"),
    "cdn.hit_rate.query": ("ratio", "higher"),
    "origin.share.read": ("ratio", "lower"),
    "origin.share.query": ("ratio", "lower"),
    "replication.replica_read_share": ("ratio", "higher"),
    "latency_share.net.origin": ("ratio", "lower"),
    "latency_share.net.cdn": ("ratio", "lower"),
    "latency_share.net.write": ("ratio", "lower"),
    "latency_share.queue.origin": ("ratio", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

#: Counters per denominator: metric -> (counter, denominator).
COUNTER_METRICS = {
    "db.doc_copies_per_op": ("db.doc_copies", "op"),
    "db.finds_per_query": ("db.finds", "query"),
    "cluster.fanout_per_query": ("cluster.shard_queries", "query"),
    "caching.stores_per_op": ("caching.stores", "op"),
    "caching.lookups_per_op": ("caching.lookups", "op"),
    "bloom.probes_per_op": ("bloom.probes", "op"),
    "bloom.adds_per_write": ("bloom.adds", "write"),
    "invalidb.notifications_per_write": ("invalidb.notifications", "write"),
    "cdn.purges_per_write": ("cdn.purges", "write"),
    "replication.records_shipped_per_write": ("replication.records_shipped", "write"),
    "simulation.events_per_op": ("simulation.events", "op"),
}


class RepFailed(RuntimeError):
    """A repetition process crashed, timed out or printed no result."""


def fingerprint() -> Dict[str, object]:
    """The machine a result was measured on."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "system": platform.system(),
        "release": platform.release(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


def calibrate() -> float:
    """Milliseconds of the host speed probe (best of 20).

    Compare it across machines before comparing host metrics: a machine
    that runs the probe 2x slower runs the simulator roughly 2x slower.
    """
    return min(probe() for _ in range(20)) * 1000.0


def run_rep(workload: str, seed: int, mode: str, tiny: bool, timeout: float) -> Dict:
    """Run one repetition in a fresh interpreter and parse its result."""
    command = [sys.executable, str(REP_SCRIPT), "--workload", workload,
               "--seed", str(seed), "--mode", mode]
    if tiny:
        command.append("--tiny")
    try:
        process = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"{mode} run timed out after {timeout:.0f}s") from exc
    lines = process.stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        tail = "\n".join(process.stderr.strip().splitlines()[-5:])
        raise RepFailed(f"{mode} run exited {process.returncode}: {tail}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> List[Dict]:
    """All repetitions of one benchmark run, in the order they ran.

    ``--trace 1`` makes its one ``obs`` run after the first plain/spans
    pair, so that a traced benchmark run takes about as long as a plain one.
    """
    plan = ("plain", "spans", "obs") if trace else ("plain",)
    reps: List[Dict] = []
    start = time.monotonic()
    while True:
        for mode in plan:
            elapsed = time.monotonic() - start
            reps.append(run_rep(workload, seed, mode, tiny, WALL_BUDGET_S + 20.0 - elapsed))
        plan = ("plain", "spans") if trace else plan
        elapsed = time.monotonic() - start
        rounds = sum(rep["mode"] == "plain" for rep in reps)
        enough = elapsed >= seconds and (trace or rounds >= MIN_REPS)
        if enough or elapsed + elapsed / rounds > WALL_BUDGET_S:
            return reps


def calibrated_s(rep: Dict, phase: str) -> float:
    """A plain repetition's setup or run time, in seconds of the reference host
    (see ``perfbench/speed.py``)."""
    return rep[f"{phase}_s"] * REFERENCE_PROBE_S / rep["probe"][phase]["mean_s"]


def end_to_end_metrics(reps: List[Dict], failed: int, attempted: int) -> Dict[str, float]:
    plain = [rep for rep in reps if rep["mode"] == "plain"]
    sim = plain[0]["sim"]
    latency = sim["latency"]
    stale = sim["stale_counts"]
    audited = stale.get("audited_read", 0) + stale.get("audited_query", 0)
    stale_total = stale.get("stale_read", 0) + stale.get("stale_query", 0)
    return {
        "host_ops_per_s": median(
            rep["sim"]["total_operations"] / calibrated_s(rep, "run") for rep in plain
        ),
        "setup_s": median(calibrated_s(rep, "setup") for rep in plain),
        "peak_rss_mb": median(rep["peak_rss_mb"] for rep in plain),
        "sim_throughput_ops_s": sim["summary"]["throughput"],
        "read_mean_ms": latency["read"]["mean_ms"],
        "read_p99_ms": latency["read"]["p99_ms"],
        "query_mean_ms": latency["query"]["mean_ms"],
        "query_p99_ms": latency["query"]["p99_ms"],
        "write_p50_ms": latency["write"]["p50_ms"],
        "write_p99_ms": latency["write"]["p99_ms"],
        "fresh_rate": 1.0 - stale_total / audited if audited else 1.0,
        "success_rate": 1.0 - failed / attempted,
    }


def per_layer_metrics(reps: List[Dict]) -> Dict[str, float]:
    plain = [rep for rep in reps if rep["mode"] == "plain"]
    traced = [rep for rep in reps if rep["mode"] == "spans"]
    obs = next(rep for rep in reps if rep["mode"] == "obs")["obs"]
    sim = plain[0]["sim"]
    layers = traced[0]["layers"]
    ops = sim["total_operations"]
    denominators = {
        "op": ops,
        "query": layers["counts"]["client.queries"],
        "write": layers["counts"]["client.writes"],
    }
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_us_per_op"] = median(
            rep["layers"]["self_s"][layer] for rep in traced
        ) * 1e6 / ops
        metrics[f"{layer}.calls_per_op"] = layers["calls"][layer] / ops
    for metric, (counter, per) in COUNTER_METRICS.items():
        denominator = denominators[per]
        metrics[metric] = layers["counts"][counter] / denominator if denominator else 0.0
    for op_class in ("read", "query"):
        counts = sim["level_counts"][op_class]
        total = sum(counts.values())
        for level, prefix in (("client", "client.hit_rate"), ("cdn", "cdn.hit_rate"),
                              ("origin", "origin.share")):
            metrics[f"{prefix}.{op_class}"] = counts.get(level, 0) / total if total else 0.0
    metrics["replication.replica_read_share"] = float(
        sim["summary"].get("replica_read_share", 0.0)
    )
    for stage, share in obs["latency_share"].items():
        metrics[f"latency_share.{stage}"] = share
    metrics["trace.overhead_ratio"] = median(rep["run_s"] for rep in traced) / median(
        rep["run_s"] for rep in plain
    )
    return metrics


def report_lines(config: Dict, reps: List[Dict], trace: bool) -> List[str]:
    """Human-readable context printed before the result line."""
    sim = reps[0]["sim"]
    latency = sim["latency"]
    lines = [
        "config: " + json.dumps(config, sort_keys=True),
        "samples (measured window): "
        + " ".join(f"{op}={latency[op]['count']}" for op in ("read", "query", "write"))
        + f" of {sim['operations']} measured, {sim['total_operations']} executed",
        "levels: " + json.dumps(sim["level_counts"], sort_keys=True),
        "latency: " + "; ".join(
            f"{op} n={latency[op]['count']} mean={latency[op]['mean_ms']:.3f}ms "
            f"p50={latency[op]['p50_ms']:.3f}ms p99={latency[op]['p99_ms']:.3f}ms"
            for op in ("read", "query", "write")
        ),
    ]
    if latency["write"]["count"] < 1000:
        lines.append(
            f"note: write_p99_ms rests on {latency['write']['count']} writes (<1000); "
            "read it as indicative"
        )
    lines.append(
        f"plain runs (wall s; calibrated s at a probe of {REFERENCE_PROBE_S * 1000:g}ms): "
        + ", ".join(
            f"setup {rep['setup_s']:.3f} ({calibrated_s(rep, 'setup'):.3f}) "
            f"run {rep['run_s']:.3f} ({calibrated_s(rep, 'run'):.3f}) "
            f"probe {rep['probe']['run']['mean_s'] * 1000:.2f}ms x{rep['probe']['run']['count']} "
            f"rss {rep['peak_rss_mb']:.1f}MB"
            for rep in reps if rep["mode"] == "plain"
        )
    )
    spans = [rep for rep in reps if rep["mode"] == "spans"]
    if spans:
        lines.append("spans runs (wall s): " + ", ".join(
            f"setup {rep['setup_s']:.3f} run {rep['run_s']:.3f}" for rep in spans
        ))
    if trace:
        obs = next(rep for rep in reps if rep["mode"] == "obs")["obs"]
        lines.append(
            f"audit: {obs['history_events']} history events at delta={obs['delta_budget_s']}s: "
            + ", ".join(f"{c['checker']} checked={c['checked']} violations={c['violations']}"
                        for c in obs["checkers"])
            + f"; obs coverage min={obs['min_coverage']:.4f}"
        )
        missing = next(rep for rep in reps if rep["mode"] == "spans")["layers"]["missing"]
        if missing:
            lines.append("note: counter targets absent from the program (count 0): "
                         + ", ".join(missing))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: perfbench.workloads.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long to repeat runs (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, 1: per-layer metrics")
    parser.add_argument("--tiny", action="store_true",
                        help="test-sized workload (not comparable with full runs)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench import gate
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    trace = bool(args.trace)

    print(f"perfbench workload={args.workload} seed={seed} trace={args.trace} "
          f"seconds={args.seconds:g}{' tiny' if args.tiny else ''}")
    print("machine: " + json.dumps(fingerprint(), sort_keys=True)
          + f" calibration_ms={calibrate():.3f}")

    problems: List[str] = []
    try:
        reps = measure(args.workload, seed, args.seconds, trace, args.tiny)
    except RepFailed as exc:
        budget = WORKLOADS[args.workload].config(seed, tiny=args.tiny).max_operations
        print(f"gate: FAILED: {exc}")
        print(json.dumps({"correct": False, "attempted": budget, "failed": budget, "metrics": {}}))
        return 1
    for rep in reps:
        problems += [f"{rep['mode']} run: {problem}" for problem in gate.check_rep(rep)]
    problems += gate.check_identical(reps)
    if trace:
        problems += gate.check_audit(next(rep for rep in reps if rep["mode"] == "obs")["obs"])

    for line in report_lines(WORKLOADS[args.workload].describe(), reps, trace):
        print(line)
    attempted = sum(rep["sim"]["operations"] for rep in reps)
    failed = attempted if problems else sum(gate.error_count(rep["sim"]) for rep in reps)
    if trace:
        metrics, specs = per_layer_metrics(reps), PER_LAYER
    else:
        metrics, specs = end_to_end_metrics(reps, failed, attempted), END_TO_END
    latency = reps[0]["sim"]["latency"]
    for name, value in metrics.items():
        op_class = name.split("_")[0]
        samples = f" (n={latency[op_class]['count']})" if op_class in latency and not trace else ""
        print(f"{name} = {value!r} {specs[name][0]}{samples}")
    print("gate: " + ("ok" if not problems else "FAILED: " + "; ".join(problems)))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": specs[name][0]}
                    for name, value in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    # Turn SIGTERM into SystemExit so a running repetition is killed and
    # reaped (subprocess.run does that on any exception) before we exit.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
