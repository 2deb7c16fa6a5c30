"""Host speed probe: calibrates host time against a fixed pure-Python loop.

The benchmark shares its machine with other tenants, and their load changes
the speed of a pure-Python program by up to 2x from one second to the next,
with no steal time to show for it.  Averaging inside a run does not remove
that: the slow and fast spells last as long as a run does.  So host times
are calibrated: while the program runs, :class:`SpeedSampler` interrupts it
every :data:`INTERVAL_S` (``SIGALRM``) to time :func:`probe`, a fixed loop
doing the kind of work the simulator does (dict lookups, small objects,
string keys, a heap).  A phase's calibrated time is its wall time, less the
time spent in the probes, scaled by ``REFERENCE_PROBE_S / mean probe time``
over that phase: the time the phase would take on a host that runs the probe
in :data:`REFERENCE_PROBE_S`.  A slowdown of the host lengthens both and
cancels; a slowdown of the program does not touch the probe.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time
from statistics import mean
from typing import Dict, List, Optional

#: Probe seconds of the reference host (a 2-core x86-64 VM under CPython
#: 3.11, uncontended); calibrated times are in seconds of that host.
REFERENCE_PROBE_S = 0.003
#: Wall seconds between two probes while a phase runs.
INTERVAL_S = 0.1
PROBE_ITERATIONS = 2000


class _Entry:
    __slots__ = ("key", "document")

    def __init__(self, key: str, document: dict) -> None:
        self.key = key
        self.document = document


def probe() -> float:
    """Seconds one fixed pure-Python loop takes, with the collector held off.

    The collector is off so that a collection of the program's heap, which
    the probe's allocations could trigger, is never charged to the probe.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        heap: list = []
        store: Dict[str, _Entry] = {}
        state = 12345
        for index in range(PROBE_ITERATIONS):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            key = f"t{index % 37}:{state % 512}"
            entry = store.get(key)
            if entry is None:
                store[key] = _Entry(key, {"version": index, "fields": [index, state]})
            else:
                document = dict(entry.document)
                document["version"] = index
                entry.document = document
            heapq.heappush(heap, (state, index, key))
            if len(heap) > 64:
                heapq.heappop(heap)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Probes the host's speed while named phases of the program run.

    ``enter(phase)`` probes once at the boundary, crediting the probe to the
    phase that ends and the one that starts, so that even a short phase has
    two samples; the timer's probes go to the current phase.  Boundary
    probes run outside the caller's timed spans; ``probe_s[phase]`` is the
    time the timer's probes took inside the phase, to be subtracted from it.
    """

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {}
        self.probe_s: Dict[str, float] = {}
        self.phase: Optional[str] = None
        self._previous_handler = None

    def __enter__(self) -> "SpeedSampler":
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self.phase = None

    def enter(self, phase: Optional[str]) -> None:
        sample = probe()
        for name in (self.phase, phase):
            if name is not None:
                self.samples.setdefault(name, []).append(sample)
                self.probe_s.setdefault(name, 0.0)
        self.phase = phase

    def _on_alarm(self, signum, frame) -> None:
        if self.phase is None:
            return
        start = time.perf_counter()
        self.samples[self.phase].append(probe())
        self.probe_s[self.phase] += time.perf_counter() - start

    def mean_probe_s(self, phase: str) -> float:
        return mean(self.samples[phase])

