"""Configuration knob for the observability layer.

``ObservabilityConfig`` is carried on :class:`repro.simulation.SimulationConfig`
(``observability=``) the same way ``record_history`` carries the consistency
recorder: ``None`` (the default) means the layer is completely off and the
request path pays nothing beyond a single ``is None`` check per site.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ObservabilityConfig"]


@dataclass(frozen=True)
class ObservabilityConfig:
    """What to record during a simulation run.

    Determinism contract (shared with ``repro.verify``): the tracing and
    metrics code draws **zero** random numbers and only *reads* the virtual
    clock, so enabling it cannot change any seeded summary value.

    :param trace: record request spans (``TraceRecorder``).
    :param metrics: record labeled counters/gauges/histograms
        (``MetricsRegistry``).
    :param sample_every: record every Nth request's span tree (1 = all).
        Sampling is counter-based — ``request_index % sample_every == 0`` —
        never random, so the sampled set is identical run-to-run.
    :param metrics_interval: sim-seconds between registry time-series
        snapshots.  Snapshots land on the epoch grid (multiples of the
        interval), so a series is reproducible run-to-run.
    """

    trace: bool = True
    metrics: bool = True
    sample_every: int = 1
    metrics_interval: float = 1.0

    def __post_init__(self) -> None:
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        if self.metrics_interval <= 0.0:
            raise ValueError("metrics_interval must be positive")

    @classmethod
    def full(cls) -> "ObservabilityConfig":
        """Trace every request and snapshot metrics every sim-second."""
        return cls()
