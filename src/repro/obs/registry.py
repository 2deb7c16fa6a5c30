"""Labeled metrics registry with deterministic time-series snapshots.

Unlike ``repro.metrics.Counter`` (a flat name→int map used by the benchmark
harness), the registry keys every instrument by ``(name, label-tuple)`` —
the Prometheus data model — and can snapshot the counter/gauge state onto a
sim-time epoch grid so a metric can be watched *evolving* during a scenario.

Three instrument kinds:

* **counter** — monotone; ``inc`` rejects negative amounts (decrements are
  a modelling bug for counters — use a gauge).
* **gauge** (:class:`Gauge`) — a level that may go up *and* down: queue
  depths, open breakers, cache residency.
* **histogram** — raw sample lists; exposition derives count/sum/quantiles.

Determinism contract: publishing draws no RNG and reads nothing but the
values handed to it plus explicitly supplied timestamps, so enabling the
registry cannot change any seeded summary.  ``state()`` is a plain,
canonically-sorted tuple — the surface the exporters consume.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = ["Gauge", "MetricsRegistry"]

LabelKey = Tuple[Tuple[str, object], ...]


def _label_key(labels: dict) -> LabelKey:
    return tuple(sorted(labels.items()))


class Gauge:
    """A value that may move in either direction.

    This is the explicit home for decrements: ``repro.metrics.Counter`` (and
    the registry's counters) are monotone and refuse to go below zero, so
    anything that legitimately falls — in-flight requests, open circuit
    breakers, backlog depth — is modelled as a gauge instead.
    """

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0) -> None:
        self.value = value

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> float:
        """Apply a (possibly negative) delta and return the new level."""
        self.value += delta
        return self.value


class MetricsRegistry:
    """Counters, gauges and histograms keyed by ``(name, label-tuple)``."""

    __slots__ = ("interval", "_counters", "_gauges", "_histograms", "_series")

    def __init__(self, interval: float = 1.0) -> None:
        if interval <= 0.0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self._counters: Dict[Tuple[str, LabelKey], float] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], List[float]] = {}
        self._series: List[tuple] = []

    # ------------------------------------------------------------------ write
    def inc(self, name: str, amount: float = 1, **labels) -> float:
        """Increment a monotone counter; negative amounts are rejected."""
        if amount < 0:
            raise ValueError(
                f"counter {name!r} is monotone and cannot be decremented "
                f"(amount={amount!r}); use a Gauge for values that fall"
            )
        key = (name, _label_key(labels))
        value = self._counters.get(key, 0) + amount
        self._counters[key] = value
        return value

    def gauge(self, name: str, **labels) -> Gauge:
        """The gauge for this label set, created at zero on first use."""
        key = (name, _label_key(labels))
        gauge = self._gauges.get(key)
        if gauge is None:
            gauge = Gauge()
            self._gauges[key] = gauge
        return gauge

    def observe(self, name: str, value: float, **labels) -> None:
        """Record one histogram sample."""
        key = (name, _label_key(labels))
        samples = self._histograms.get(key)
        if samples is None:
            samples = []
            self._histograms[key] = samples
        samples.append(value)

    def sample(self, timestamp: float) -> None:
        """Snapshot counters and gauges onto the time series at ``timestamp``.

        The caller supplies the timestamp (an epoch-grid boundary or the
        run's stop time) so snapshots are reproducible.
        """
        counters = tuple(
            sorted((name, labels, value) for (name, labels), value in self._counters.items())
        )
        gauges = tuple(
            sorted((name, labels, gauge.value) for (name, labels), gauge in self._gauges.items())
        )
        self._series.append((timestamp, counters, gauges))

    # ------------------------------------------------------------------- read
    def counter_value(self, name: str, **labels) -> float:
        return self._counters.get((name, _label_key(labels)), 0)

    def gauge_value(self, name: str, **labels) -> float:
        gauge = self._gauges.get((name, _label_key(labels)))
        return 0.0 if gauge is None else gauge.value

    def histogram_samples(self, name: str, **labels) -> Tuple[float, ...]:
        return tuple(self._histograms.get((name, _label_key(labels)), ()))

    def series(self) -> Tuple[tuple, ...]:
        return tuple(self._series)

    def state(self) -> tuple:
        """Picklable, canonically-sorted snapshot of the whole registry.

        Shape: ``(counters, gauges, histograms, series)`` where the first
        three are ``(name, label_tuple, value-or-samples)`` rows sorted by
        key and ``series`` is the snapshot list in record order.
        """
        counters = tuple(
            sorted((name, labels, value) for (name, labels), value in self._counters.items())
        )
        gauges = tuple(
            sorted((name, labels, gauge.value) for (name, labels), gauge in self._gauges.items())
        )
        histograms = tuple(
            sorted(
                (name, labels, tuple(samples))
                for (name, labels), samples in self._histograms.items()
            )
        )
        return (counters, gauges, histograms, tuple(self._series))
