"""Seeded runs reproduce exactly inside spawned sweep workers.

A sweep hands each configuration to :func:`map_ordered`, which runs it in a
freshly spawned interpreter.  Nothing a run reports may depend on which
process ran it: for every caching mode, replication factor, fault plan and
recording option below, the worker's summary, staleness audit, history,
trace and metrics state must equal the in-process run's under Python
``==`` -- no tolerance.
"""

from __future__ import annotations

import json
import signal
from dataclasses import replace

import pytest

from repro.faults import FaultAction, FaultEvent, FaultPlan
from repro.obs import ObservabilityConfig
from repro.resilience import ResilienceConfig
from repro.simulation import CachingMode, SimulationConfig, Simulator, map_ordered
from repro.verify.history import canonical_bytes
from repro.workloads import DatasetSpec


def base_config(mode: CachingMode, replication_factor: int = 1) -> SimulationConfig:
    return SimulationConfig(
        mode=mode,
        dataset=DatasetSpec(num_tables=2, documents_per_table=120, queries_per_table=12),
        num_shards=2,
        replication_factor=replication_factor,
        num_clients=4,
        connections_per_client=4,
        matching_nodes=2,
        duration=30.0,
        max_operations=600,
        seed=29,
    )


CRASH_PLAN = FaultPlan(
    events=[
        FaultEvent(0.02, FaultAction.CRASH, "shard:0"),
        FaultEvent(0.03, FaultAction.CRASH, "s1:n1"),
        FaultEvent(0.12, FaultAction.RECOVER, "shard:0"),
        FaultEvent(0.13, FaultAction.RECOVER, "s1:n1"),
    ],
    name="sweep-crashes",
)

GRAY_PLAN = FaultPlan(
    events=[
        FaultEvent(0.02, FaultAction.SLOW_SHARD, "shard:0", magnitude=4.0),
        FaultEvent(0.03, FaultAction.FLAKY_SHARD, "shard:1", magnitude=0.3),
        FaultEvent(0.04, FaultAction.SLOW_SHARD, "s1:n1", magnitude=6.0),
        FaultEvent(0.25, FaultAction.RESTORE, "shard:0"),
        FaultEvent(0.26, FaultAction.RESTORE, "shard:1"),
        FaultEvent(0.27, FaultAction.RESTORE, "s1:n1"),
    ],
    name="sweep-gray",
)

MODES = (CachingMode.QUAESTOR, CachingMode.EBF_ONLY, CachingMode.CDN_ONLY, CachingMode.UNCACHED)

CASES = {
    **{
        f"{mode.value}-rf{rf}": base_config(mode, rf)
        for mode in MODES
        for rf in (1, 3)
    },
    "crash-plan": replace(base_config(CachingMode.QUAESTOR, 3), fault_plan=CRASH_PLAN),
    "gray-plan-resilience": replace(
        base_config(CachingMode.QUAESTOR, 3),
        fault_plan=GRAY_PLAN,
        resilience=ResilienceConfig(),
    ),
    "history": replace(base_config(CachingMode.QUAESTOR, 3), record_history=True),
    "observability": replace(
        base_config(CachingMode.QUAESTOR), observability=ObservabilityConfig.full()
    ),
}


def observe(config: SimulationConfig) -> dict:
    """Everything a run reports, in plain picklable form."""
    simulator = Simulator(config)
    result = simulator.run()
    return {
        "summary": json.dumps(result.summary(), separators=(",", ":")),
        "operations": result.operations,
        "total_operations": simulator.total_operations,
        "stale_counts": simulator.stale_counts(),
        "history": canonical_bytes(simulator.history_events()),
        "trace": simulator.trace_tuples(),
        "metrics": simulator.metrics_state(),
    }


@pytest.fixture(scope="module")
def observed():
    """Each case run once in this process and once through a spawned sweep."""

    def expire(_signum, _frame):
        raise TimeoutError("the sweep did not return within 300 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(300)
    try:
        swept = map_ordered(observe, list(CASES.values()))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    inline = [observe(config) for config in CASES.values()]
    return {
        name: (here, there)
        for name, here, there in zip(CASES, inline, swept)
    }


@pytest.mark.parametrize("case", list(CASES))
def test_swept_run_matches_in_process_run(observed, case):
    here, there = observed[case]
    assert there == here


def test_runs_complete_their_operation_budget(observed):
    for here, _there in observed.values():
        assert here["total_operations"] == 600
        assert 0 < here["operations"] < 600


def test_crash_plan_injects_faults(observed):
    summary = json.loads(observed["crash-plan"][0]["summary"])
    assert summary["faults_injected"] >= 2.0


def test_gray_plan_exercises_the_resilience_layer(observed):
    summary = json.loads(observed["gray-plan-resilience"][0]["summary"])
    assert summary["resilience_retries"] > 0


def test_recording_cases_actually_record(observed):
    assert observed["history"][0]["history"] != canonical_bytes(())
    assert observed["observability"][0]["trace"]
    assert observed["observability"][0]["metrics"] is not None
    # The plain cases record nothing.
    plain = observed["quaestor-rf1"][0]
    assert plain["history"] == canonical_bytes(()) and plain["trace"] == ()
    assert plain["metrics"] is None


def test_distinct_configurations_give_distinct_summaries(observed):
    summaries = {observed[f"{mode.value}-rf1"][0]["summary"] for mode in MODES}
    assert len(summaries) == len(MODES)
