"""Operation histories for offline consistency checking.

A *history* is the complete, ordered record of everything the system did
during a simulated run, captured at two planes:

* **Client operations** — one event per SDK call with its invocation /
  completion interval, session id, the version it wrote or observed, the
  serving level, and degraded/hedged/retried markers.
* **Authoritative installs** — one event each time the origin (primary
  write stream, query fingerprint, scatter merge) establishes a new
  version token for a key.  These are the ground truth the Δ-atomicity
  checker scores client reads against, recorded at the same call sites
  that feed :class:`repro.simulation.staleness.StalenessAuditor`.

Events are plain frozen dataclasses so checkers are pure functions over
tuples; :func:`canonical_bytes` gives a stable serialisation used to
assert that two runs of the same seed record byte-identical histories.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "KIND_INSTALL",
    "KIND_OPERATION",
    "HistoryEvent",
    "HistoryRecorder",
    "canonical_bytes",
    "events_from_tuples",
]

KIND_OPERATION = "op"
KIND_INSTALL = "install"

#: Version recorded for observed/acknowledged deletes (no document body).
TOMBSTONE_VERSION = -1


@dataclass(frozen=True)
class HistoryEvent:
    """One entry in a recorded history.

    ``seq`` is the global record order assigned by the recorder — exactly
    the deterministic event-loop order.  ``session`` is the client name for operations and ``""`` for
    server-side installs.  ``frontier`` snapshots the client's causal
    frontier *after* the operation completed.
    """

    __slots__ = (
        "seq", "kind", "session", "op", "key", "invoked", "completed",
        "etag", "version", "level", "frontier", "degraded", "hedged",
        "retried", "fast_failed",
    )

    seq: int
    kind: str
    session: str
    op: str
    key: str
    invoked: float
    completed: float
    etag: Optional[str]
    version: Optional[int]
    level: str
    frontier: float
    degraded: bool
    hedged: bool
    retried: bool
    fast_failed: bool

    def to_tuple(self) -> tuple:
        """Order-preserving flat form (see :func:`events_from_tuples`)."""
        return (
            self.seq, self.kind, self.session, self.op, self.key,
            self.invoked, self.completed, self.etag, self.version,
            self.level, self.frontier, self.degraded, self.hedged,
            self.retried, self.fast_failed,
        )

    def describe(self) -> str:
        """One legible timeline line (used by violation reports)."""
        span = f"[{self.invoked:.4f}, {self.completed:.4f}]"
        who = self.session or "server"
        head = f"#{self.seq:<4d} {span} {who:<10s} {self.op:<8s} {self.key}"
        bits: List[str] = []
        if self.version is not None:
            bits.append(f"v={self.version}")
        if self.etag is not None:
            bits.append(f"etag={self.etag}")
        if self.level:
            bits.append(f"level={self.level}")
        for flag in ("degraded", "hedged", "retried", "fast_failed"):
            if getattr(self, flag):
                bits.append(flag)
        return head + (" " + " ".join(bits) if bits else "")


def events_from_tuples(rows: Iterable[tuple]) -> Tuple[HistoryEvent, ...]:
    """Rebuild events from :meth:`HistoryEvent.to_tuple` rows."""
    return tuple(HistoryEvent(*row) for row in rows)


def canonical_bytes(events: Sequence[HistoryEvent]) -> bytes:
    """Stable byte serialisation of a history.

    Floats round-trip through ``repr`` (shortest exact form) so two
    histories are byte-identical iff every field is ``==``-identical.
    """
    rows = [
        [
            event.seq, event.kind, event.session, event.op, event.key,
            repr(event.invoked), repr(event.completed), event.etag,
            event.version, event.level, repr(event.frontier),
            event.degraded, event.hedged, event.retried, event.fast_failed,
        ]
        for event in events
    ]
    return json.dumps(rows, separators=(",", ":"), sort_keys=False).encode("ascii")


class HistoryRecorder:
    """Accumulates history events in deterministic record order.

    One recorder is shared by the simulator's clients and the
    server/cluster install sites; sequence numbers are assigned as events
    arrive, which in the discrete-event simulator is a pure function of
    the seed.  Consecutive identical install tokens per key are deduped,
    mirroring :meth:`StalenessAuditor.record_version`, so the install
    timeline matches the auditor's zone structure exactly.
    """

    __slots__ = ("_events", "_last_install")

    def __init__(self) -> None:
        self._events: List[HistoryEvent] = []
        self._last_install: Dict[str, str] = {}

    def __len__(self) -> int:
        return len(self._events)

    def record_install(self, key: str, token: str, timestamp: float) -> None:
        """Record an authoritative version install for ``key``."""
        if self._last_install.get(key) == token:
            return
        self._last_install[key] = token
        self._events.append(
            HistoryEvent(
                seq=len(self._events),
                kind=KIND_INSTALL,
                session="",
                op="install",
                key=key,
                invoked=timestamp,
                completed=timestamp,
                etag=token,
                version=None,
                level="origin",
                frontier=0.0,
                degraded=False,
                hedged=False,
                retried=False,
                fast_failed=False,
            )
        )

    def record_operation(
        self,
        *,
        session: str,
        op: str,
        key: str,
        invoked: float,
        completed: float,
        etag: Optional[str],
        version: Optional[int],
        level: str,
        frontier: float,
        degraded: bool = False,
        hedged: bool = False,
        retried: bool = False,
        fast_failed: bool = False,
    ) -> None:
        """Record one completed client operation."""
        self._events.append(
            HistoryEvent(
                seq=len(self._events),
                kind=KIND_OPERATION,
                session=session,
                op=op,
                key=key,
                invoked=invoked,
                completed=completed,
                etag=etag,
                version=version,
                level=level,
                frontier=frontier,
                degraded=degraded,
                hedged=hedged,
                retried=retried,
                fast_failed=fast_failed,
            )
        )

    def events(self) -> Tuple[HistoryEvent, ...]:
        return tuple(self._events)
