"""One repetition of a workload, meant to run in a fresh process.

``python3 perfbench/rep.py --workload NAME --seed N --mode MODE`` builds the
workload's config, times ``Simulator(config)`` and ``.run()``, and prints one
JSON object on its last stdout line.  The modes:

* ``plain`` -- the program as users run it, interrupted only by the host
  speed probes of :class:`SpeedSampler`; gives the host metrics.
* ``spans`` -- the same run under :class:`LayerTracer` (host self time and
  work counters per layer).
* ``obs``   -- the same run with ``ObservabilityConfig`` on and history
  recording on; gives the simulated latency attribution and the
  consistency-checker verdicts.

Every mode reports the simulated results, which must be value-identical
across modes for one seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import pathlib
import resource
import sys
import time
from contextlib import nullcontext
from typing import Dict

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.simulation import Simulator  # noqa: E402

from perfbench.gate import audit_history  # noqa: E402
from perfbench.layertrace import LayerTracer  # noqa: E402
from perfbench.speed import SpeedSampler  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

MODES = ("plain", "spans", "obs")
#: Simulated latency stages reported as shares of all modelled latency.
ATTRIBUTED_STAGES = ("net.origin", "net.cdn", "net.write", "queue.origin")


def simulated_outcome(simulator: Simulator, result) -> Dict[str, object]:
    """Everything the simulation computed (identical for one seed in every mode)."""
    latency = {}
    for op_class, histogram in (
        ("read", result.read_latency),
        ("query", result.query_latency),
        ("write", result.write_latency),
    ):
        latency[op_class] = {
            "count": histogram.count,
            "mean_ms": histogram.mean * 1000.0,
            "p50_ms": histogram.percentile(0.5) * 1000.0,
            "p99_ms": histogram.percentile(0.99) * 1000.0,
        }
    return {
        "summary": result.summary(),
        "operations": result.operations,
        "total_operations": simulator.total_operations,
        "level_counts": result.level_counts,
        "stale_counts": simulator.stale_counts(),
        "latency": latency,
    }


def run_rep(workload_name: str, seed: int, mode: str, tiny: bool = False) -> Dict[str, object]:
    """Run one repetition in this process and return its measurements."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    config = WORKLOADS[workload_name].config(seed, tiny=tiny)
    if mode == "obs":
        from repro.obs import ObservabilityConfig

        config = dataclasses.replace(
            config, observability=ObservabilityConfig(), record_history=True
        )
    tracer = LayerTracer() if mode == "spans" else None
    gc.collect()
    if mode == "plain":
        with SpeedSampler() as sampler:
            sampler.enter("setup")
            start = time.perf_counter()
            simulator = Simulator(config)
            built = time.perf_counter()
            sampler.enter("run")
            ran_from = time.perf_counter()
            result = simulator.run()
            finished = time.perf_counter()
            sampler.enter(None)
        setup_s = built - start - sampler.probe_s["setup"]
        run_s = finished - ran_from - sampler.probe_s["run"]
    else:
        with tracer if tracer is not None else nullcontext():
            start = time.perf_counter()
            simulator = Simulator(config)
            built = time.perf_counter()
            result = simulator.run()
            finished = time.perf_counter()
        setup_s, run_s = built - start, finished - built
    rep = {
        "mode": mode,
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "max_operations": config.max_operations,
        "sim": simulated_outcome(simulator, result),
    }
    if mode == "plain":
        rep["probe"] = {
            phase: {"mean_s": sampler.mean_probe_s(phase), "count": len(sampler.samples[phase])}
            for phase in ("setup", "run")
        }
    if tracer is not None:
        rep["layers"] = {
            "root_s": tracer.root_s,
            "self_s": tracer.self_s,
            "calls": tracer.calls,
            "counts": tracer.counts,
            "missing": tracer.missing,
        }
    if mode == "obs":
        rep["obs"] = audit(simulator, config)
    return rep


def audit(simulator: Simulator, config) -> Dict[str, object]:
    """Latency attribution and consistency-checker verdicts of an ``obs`` run."""
    from repro.obs import latency_attribution

    attribution = latency_attribution(simulator.trace_spans())
    shares = {name: share for name, _seconds, share in attribution["stages"]}
    return {
        "requests": attribution["requests"],
        "min_coverage": attribution["min_coverage"],
        "latency_share": {stage: shares.get(stage, 0.0) for stage in ATTRIBUTED_STAGES},
        **audit_history(simulator.history_events(), config),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=MODES)
    parser.add_argument("--tiny", action="store_true", help="test-sized run")
    args = parser.parse_args(argv)
    rep = run_rep(args.workload, args.seed, args.mode, tiny=args.tiny)
    print(json.dumps(rep, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
