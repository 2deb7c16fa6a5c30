"""The correctness gate: checks every repetition must pass.

Each check returns a list of problems; an empty list means it passed.  A
run with any problem reports ``correct: false``, counts all of its
operations as failed and exits non-zero.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.client.sdk import ERROR_LEVEL

#: Share of every traced request's modelled latency that named cost spans
#: must account for (the same floor ``python -m repro.obs --smoke`` uses).
MIN_COVERAGE = 0.95


def error_count(sim: Dict) -> int:
    """Measured operations that failed (served at the SDK's error level)."""
    return sum(counts.get(ERROR_LEVEL, 0) for counts in sim["level_counts"].values())


def check_rep(rep: Dict) -> List[str]:
    """Invariants of one repetition's simulated outcome."""
    sim = rep["sim"]
    problems = []
    if sim["total_operations"] != rep["max_operations"]:
        problems.append(
            f"ran {sim['total_operations']} of {rep['max_operations']} operations"
        )
    level_total = sum(sum(counts.values()) for counts in sim["level_counts"].values())
    if level_total != sim["operations"]:
        problems.append(
            f"level counts sum to {level_total}, measured operations are {sim['operations']}"
        )
    latency_total = sum(stats["count"] for stats in sim["latency"].values())
    if latency_total != sim["operations"]:
        problems.append(f"{latency_total} latency samples for {sim['operations']} operations")
    for op_class, stats in sim["latency"].items():
        if stats["count"] == 0:
            problems.append(f"no {op_class} operations measured")
    errors = error_count(sim)
    if errors:
        problems.append(f"{errors} operations failed in a workload without faults")
    return problems


def check_identical(reps: Sequence[Dict]) -> List[str]:
    """Every repetition of one seed, traced or not, computed the same results."""
    problems = []
    reference = reps[0]
    for rep in reps[1:]:
        if rep["sim"] != reference["sim"]:
            differing = sorted(
                key for key in reference["sim"] if rep["sim"].get(key) != reference["sim"][key]
            )
            problems.append(
                f"{rep['mode']} run differs from the first {reference['mode']} run in {differing}"
            )
    traced = [rep for rep in reps if "layers" in rep]
    for rep in traced[1:]:
        for part in ("calls", "counts"):
            if rep["layers"][part] != traced[0]["layers"][part]:
                problems.append(f"traced runs disagree on layer {part}")
    return problems


def audit_history(events: Sequence, config) -> Dict:
    """Run every consistency checker at the no-fault Delta budget."""
    from repro.core.consistency import ConsistencyLevel
    from repro.verify.checkers import run_all
    from repro.verify.scenarios import ScenarioSpec, budgets_for

    spec = ScenarioSpec(
        "none", config.replication_factor, ConsistencyLevel.DELTA_ATOMIC, config.seed
    )
    delta, degraded = budgets_for(spec, config)
    reports = run_all(events, delta, degraded)
    return {
        "delta_budget_s": delta,
        "history_events": len(events),
        "checkers": [
            {
                "checker": report.checker,
                "checked": report.checked,
                "violations": len(report.violations),
                "first": [str(violation) for violation in report.violations[:3]],
            }
            for report in reports
        ],
    }


def check_audit(obs: Dict) -> List[str]:
    """Zero checker violations, a non-vacuous audit, and full latency coverage."""
    problems = []
    for report in obs["checkers"]:
        if report["violations"]:
            problems.append(
                f"{report['checker']}: {report['violations']} violations, e.g. {report['first'][0]}"
            )
    checked = {report["checker"]: report["checked"] for report in obs["checkers"]}
    if not checked.get("delta-atomicity"):
        problems.append("delta-atomicity checker audited no reads")
    if obs["min_coverage"] < MIN_COVERAGE:
        problems.append(
            f"obs coverage {obs['min_coverage']:.4f} below {MIN_COVERAGE}"
        )
    return problems
