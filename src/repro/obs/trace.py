"""Deterministic request tracing on the simulation's virtual clock.

A :class:`Span` is one named piece of work inside a request: the SDK root
operation, the cluster scatter, a pipeline stage, a replica selection, or a
*cost span* attached after the fact carrying the modelled seconds the
simulator priced for a stage (``net.origin``, ``resilience.backoff``, ...).

The recorder follows the ``repro.verify.history`` playbook that keeps
recording invisible to seeded results:

* timestamps come only from the virtual clock (never wall clock),
* no random numbers are ever drawn — request sampling is counter based,
* spans serialize to plain tuples (``to_tuple``) for export.

Because the virtual clock does not advance *inside* a synchronous request,
a span's ``start``/``end`` describe structure, not duration; the modelled
duration lives in ``cost`` (seconds), filled by the simulator's pricing
sites.  The analyzer (``repro.obs.analyze``) therefore attributes latency
by summing ``cost`` over a root's descendants.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

__all__ = [
    "Span",
    "TraceRecorder",
    "spans_from_tuples",
]


class Span:
    """One node of a request's trace tree.

    Mutable while the request is in flight (the simulator back-fills the
    root's ``end``/``cost`` and result attributes once the operation has
    been priced); treated as frozen once exported via :meth:`to_tuple`.
    """

    __slots__ = ("span_id", "parent_id", "name", "start", "end", "cost", "attrs")

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        start: float,
        end: Optional[float] = None,
        cost: float = 0.0,
        attrs: Optional[dict] = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end = start if end is None else end
        self.cost = cost
        self.attrs = {} if attrs is None else attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_tuple(self) -> tuple:
        """Picklable row: ``(span_id, parent_id, name, start, end, cost, attrs)``.

        Attributes are sorted by key so the row is order-independent of how
        the instrumentation filled them in.
        """
        return (
            self.span_id,
            self.parent_id,
            self.name,
            self.start,
            self.end,
            self.cost,
            tuple(sorted(self.attrs.items())),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span(id={self.span_id}, parent={self.parent_id}, name={self.name!r}, "
            f"cost={self.cost!r}, attrs={self.attrs!r})"
        )


class _SpanScope:
    """``with tracer.span("name"):`` sugar; safe when sampling skips the request."""

    __slots__ = ("_recorder", "_name", "_attrs", "span")

    def __init__(self, recorder: "TraceRecorder", name: str, attrs: dict) -> None:
        self._recorder = recorder
        self._name = name
        self._attrs = attrs
        self.span: Optional[Span] = None

    def __enter__(self) -> Optional[Span]:
        self.span = self._recorder.begin(self._name, **self._attrs)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._recorder.end(self.span)


class TraceRecorder:
    """Collects spans for the current request stack.

    One recorder is shared by every layer of a deployment (clients, cluster,
    servers, replica groups); the open-span *stack* tracks the request the
    simulator is currently executing — the discrete-event model runs exactly
    one synchronous request at a time, so a single stack suffices.

    Sampling is decided once per root span (``request_index % sample_every``)
    and applies to the whole request: either every span of the request is
    recorded or none is.  Unsampled requests still push a ``None`` placeholder
    so ``begin``/``end`` stay balanced.
    """

    __slots__ = (
        "clock",
        "sample_every",
        "_spans",
        "_stack",
        "_roots_seen",
        "_recording",
        "_last_root",
    )

    def __init__(self, clock, sample_every: int = 1) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.clock = clock
        self.sample_every = sample_every
        self._spans: List[Span] = []
        self._stack: List[Optional[Span]] = []
        self._roots_seen = 0
        self._recording = False
        self._last_root: Optional[Span] = None

    @property
    def recording(self) -> bool:
        """Whether the request currently on the stack is being sampled."""
        return bool(self._stack) and self._recording

    def begin(self, name: str, **attrs) -> Optional[Span]:
        """Open a span; returns ``None`` when the request is not sampled."""
        if not self._stack:
            self._recording = (self._roots_seen % self.sample_every) == 0
            self._roots_seen += 1
        if not self._recording:
            self._stack.append(None)
            return None
        parent = self._stack[-1] if self._stack else None
        now = self.clock.now()
        span = Span(
            len(self._spans),
            None if parent is None else parent.span_id,
            name,
            now,
            attrs=dict(attrs),
        )
        self._spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Optional[Span] = None, **attrs) -> None:
        """Close the innermost open span (``span`` is accepted for symmetry)."""
        if not self._stack:
            raise RuntimeError("TraceRecorder.end() without a matching begin()")
        popped = self._stack.pop()
        if popped is None:
            return
        popped.end = self.clock.now()
        if attrs:
            popped.attrs.update(attrs)
        if not self._stack:
            self._last_root = popped

    def span(self, name: str, **attrs) -> _SpanScope:
        """Context-manager form of :meth:`begin`/:meth:`end`."""
        return _SpanScope(self, name, attrs)

    def event(self, name: str, cost: float = 0.0, **attrs) -> Optional[Span]:
        """Record an instant child of the innermost open span.

        Dropped (returns ``None``) outside any request or when the request
        is unsampled — traces stay strictly request-scoped.
        """
        if not self._stack or not self._recording:
            return None
        parent = self._stack[-1]
        if parent is None:
            return None
        now = self.clock.now()
        span = Span(len(self._spans), parent.span_id, name, now, cost=cost, attrs=dict(attrs))
        self._spans.append(span)
        return span

    def attach(self, parent: Span, name: str, cost: float = 0.0, **attrs) -> Span:
        """Append a child to an already-closed span.

        Used by the simulator to hang priced latency components
        (``net.origin``, ``resilience.retry``, ...) off a request root after
        the synchronous call has returned.
        """
        span = Span(
            len(self._spans),
            parent.span_id,
            name,
            parent.end,
            end=parent.end,
            cost=cost,
            attrs=dict(attrs),
        )
        self._spans.append(span)
        return span

    def take_last_root(self) -> Optional[Span]:
        """The most recently completed root span, consumed (or ``None``)."""
        root = self._last_root
        self._last_root = None
        return root

    def spans(self) -> Tuple[Span, ...]:
        return tuple(self._spans)

    def span_tuples(self) -> Tuple[tuple, ...]:
        """All spans as plain rows (the export surface)."""
        return tuple(span.to_tuple() for span in self._spans)

    def __len__(self) -> int:
        return len(self._spans)


def spans_from_tuples(rows: Iterable[tuple]) -> List[Span]:
    """Rebuild :class:`Span` objects from :meth:`Span.to_tuple` rows."""
    return [
        Span(span_id, parent_id, name, start, end=end, cost=cost, attrs=dict(attrs))
        for span_id, parent_id, name, start, end, cost, attrs in rows
    ]
