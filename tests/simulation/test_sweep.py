"""Tests for the ordered process-pool map behind independent-run sweeps."""

from __future__ import annotations

import os
import signal

import pytest

from repro.simulation import SimulationConfig, Simulator, map_ordered, sweep
from repro.workloads import DatasetSpec


def tiny_config(seed: int) -> SimulationConfig:
    return SimulationConfig(
        dataset=DatasetSpec(num_tables=2, documents_per_table=100, queries_per_table=10),
        num_clients=2,
        connections_per_client=10,
        matching_nodes=2,
        max_operations=400,
        seed=seed,
    )


def summarize(config: SimulationConfig) -> dict:
    return Simulator(config).run().summary()


def current_pid(_item) -> int:
    return os.getpid()


@pytest.fixture
def time_limit():
    """Fail a pool test that hangs instead of blocking the suite."""

    def expire(_signum, _frame):
        raise TimeoutError("map_ordered did not return within 120 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestMapOrdered:
    def test_results_match_serial_runs_in_input_order(self, time_limit):
        configs = [tiny_config(seed) for seed in (5, 3, 11)]
        expected = [summarize(config) for config in configs]
        assert len({summary["throughput"] for summary in expected}) == 3
        assert map_ordered(summarize, configs) == expected

    def test_worker_exception_propagates_and_names_the_item(self, time_limit):
        items = [tiny_config(1), "not-a-config", tiny_config(2)]
        with pytest.raises(AttributeError) as raised:
            map_ordered(summarize, items)
        notes = getattr(raised.value, "__notes__", [])
        assert any("sweep item 1: 'not-a-config'" in note for note in notes)

    def test_one_item_runs_inline(self, monkeypatch):
        import concurrent.futures

        def no_pool(*_args, **_kwargs):
            raise AssertionError("a single item must not start a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert map_ordered(current_pid, ["only"]) == [os.getpid()]

    def test_one_usable_core_runs_inline(self, monkeypatch):
        monkeypatch.setattr(sweep, "usable_cores", lambda: 1)
        assert map_ordered(current_pid, range(3)) == [os.getpid()] * 3

    def test_empty_input(self):
        assert map_ordered(summarize, []) == []

    def test_inline_exception_names_the_item(self, monkeypatch):
        monkeypatch.setattr(sweep, "usable_cores", lambda: 1)
        with pytest.raises(AttributeError) as raised:
            map_ordered(summarize, [None])
        assert any("sweep item 0: None" in note for note in raised.value.__notes__)
