"""Cross-layer span tracing (Dapper-style request tracing).

A :class:`Span` is one timed unit of work — a client operation, a
namenode handler, an NDB transaction attempt, a replica round-trip —
linked to its parent by span id, so a whole request can be reassembled
into a tree: client op -> NN handler -> NDB txn -> TC RPCs -> replica
reads, or kclient -> MDS -> OSD on the CephFS side.

Design constraints (the "overhead contract", see DESIGN.md):

* **Zero cost when off.**  Components reach the tracer through
  ``env.obs`` which is ``None`` by default; every instrumentation site is
  a single ``if env.obs is not None`` guard.  No tracer object exists in
  an untraced run.
* **Schedule neutrality when on.**  The tracer only *records*: it never
  schedules kernel events, consumes sequence numbers, or draws from any
  RNG.  Span ids come from a private monotonic counter and timestamps are
  read straight off ``env.now``, so a traced run replays the exact
  (time, priority, seq) schedule of an untraced one
  (``tests/obs/test_golden_schedule.py`` pins this).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

__all__ = ["Span", "Tracer"]


class Span:
    """One recorded unit of work.  ``end_ms is None`` while still open."""

    __slots__ = ("span_id", "parent_id", "name", "start_ms", "end_ms", "tags")

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        start_ms: float,
        end_ms: Optional[float] = None,
        tags: Optional[Dict[str, Any]] = None,
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_ms = start_ms
        self.end_ms = end_ms
        self.tags = tags if tags is not None else {}

    @property
    def duration_ms(self) -> float:
        if self.end_ms is None:
            return 0.0
        return self.end_ms - self.start_ms

    @property
    def finished(self) -> bool:
        return self.end_ms is not None

    def as_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "tags": self.tags,
        }

    def __repr__(self) -> str:
        state = f"{self.duration_ms:.3f}ms" if self.finished else "open"
        return f"<Span #{self.span_id} {self.name!r} parent={self.parent_id} {state}>"


class Tracer:
    """Collects spans for one simulation run.

    Attach to an environment via :meth:`repro.obs.ObsContext.attach`; the
    simulated clock is read from the attached environment.  Span ids are
    dense positive integers in creation order, which keeps traces
    deterministic and diffable across runs.
    """

    def __init__(self, max_spans: int = 2_000_000):
        self.spans: List[Span] = []
        self.max_spans = max_spans
        self.dropped = 0
        self._next_id = 1
        self._env = None  # set by ObsContext.attach

    # -- recording --------------------------------------------------------
    def start(self, name: str, parent: Optional[object] = None, **tags) -> Span:
        """Open a span at the current simulated time.

        ``parent`` may be a :class:`Span`, a raw span id (as carried in
        message metadata across hosts), or ``None`` for a root span.
        """
        parent_id = parent.span_id if isinstance(parent, Span) else parent
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return Span(0, parent_id, name, self._now(), tags=tags)
        span = Span(self._next_id, parent_id, name, self._now(), tags=tags)
        self._next_id += 1
        self.spans.append(span)
        return span

    def finish(self, span: Span, **tags) -> Span:
        """Close ``span`` at the current simulated time."""
        span.end_ms = self._now()
        if tags:
            span.tags.update(tags)
        return span

    def record(
        self,
        name: str,
        start_ms: float,
        end_ms: float,
        parent: Optional[object] = None,
        **tags,
    ) -> Span:
        """Record a retrospective, already-finished span.

        Used where the start time is only known in hindsight — e.g. the
        lock table records a wait span at grant time, having noted when
        the request queued (a wait that was granted immediately records
        nothing at all).
        """
        parent_id = parent.span_id if isinstance(parent, Span) else parent
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return Span(0, parent_id, name, start_ms, end_ms, tags)
        span = Span(self._next_id, parent_id, name, start_ms, end_ms, tags)
        self._next_id += 1
        self.spans.append(span)
        return span

    def event(self, name: str, parent: Optional[object] = None, **tags) -> Span:
        """Record an instantaneous event (zero-duration span)."""
        now = self._now()
        return self.record(name, now, now, parent=parent, **tags)

    # -- views ------------------------------------------------------------
    def finished_spans(self) -> List[Span]:
        return [s for s in self.spans if s.finished]

    def children_index(self) -> Dict[Optional[int], List[Span]]:
        """Map parent span id -> child spans (roots under ``None``)."""
        index: Dict[Optional[int], List[Span]] = {}
        for span in self.spans:
            index.setdefault(span.parent_id, []).append(span)
        return index

    def _now(self) -> float:
        env = self._env
        return env.now if env is not None else 0.0
