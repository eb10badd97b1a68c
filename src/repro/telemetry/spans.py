"""Nestable trace spans: what the controller spent its period on.

A :class:`Span` is one timed region (a controller period, the mapping
stage inside it, a SMACOF refit inside *that*); the :class:`Tracer`
tracks the innermost open stage so nesting falls out of call order,
keeps a bounded list of finished spans, and renders them as an
indented tree.

Span timestamps come from an injectable monotonic clock (default
``time.perf_counter``), so tests can drive a fake clock and assert
exact durations.

Stage timers enter through :meth:`Tracer.defer` / :meth:`Tracer.settle`:
an open stage is kept as a bare row and its :class:`Span` is only
built when somebody reads the spans — the controller's five stages a
period are inside the 5 % overhead budget, an export is not.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Dict, List, Mapping, Optional

#: Slots of a deferred stage row: :class:`Span`'s seven fields in
#: order, then the enclosing deferred row.
_ID, _START, _END, _DEPTH, _ENCLOSING = 0, 2, 3, 5, 7


@dataclass(slots=True)
class Span:
    """One timed region of the runtime.

    Attributes
    ----------
    span_id:
        Monotonically increasing id, unique per tracer.
    name:
        Region name (e.g. ``controller.map``).
    start:
        Clock reading at entry.
    end:
        Clock reading at exit (``None`` while the span is open).
    parent_id:
        ``span_id`` of the enclosing span (``None`` at the root).
    depth:
        Nesting depth (0 at the root).
    attrs:
        Free-form attributes attached at entry (tick, state counts...).
    """

    span_id: int
    name: str
    start: float
    end: Optional[float] = None
    parent_id: Optional[int] = None
    depth: int = 0
    attrs: Mapping[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> Optional[float]:
        """Seconds between entry and exit (``None`` while open)."""
        if self.end is None:
            return None
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (the JSONL trace record)."""
        return {
            "span_id": self.span_id,
            "name": self.name,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attrs": dict(self.attrs),
        }


class _NullContext:
    """Shared no-op context manager for disabled tracing."""

    __slots__ = ()
    span = None

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NULL_CONTEXT = _NullContext()

#: The attrs of every span opened without any: one shared read-only
#: mapping instead of an empty dict retained per span.
NO_ATTRS: Mapping[str, Any] = MappingProxyType({})


class Tracer:
    """Produces and stores nested spans.

    Parameters
    ----------
    clock:
        Monotonic time source (seconds); default ``time.perf_counter``.
    max_spans:
        Cap on stored finished spans; beyond it spans are still timed
        and nested correctly but not retained (``dropped`` counts them).
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        max_spans: int = 20_000,
    ) -> None:
        if max_spans < 0:
            raise ValueError("max_spans must be non-negative")
        self.clock = clock if clock is not None else time.perf_counter
        self.max_spans = max_spans
        self.dropped = 0
        self._spans: List[Span] = []
        self._next_id = 0
        # Deferred stages: the innermost open row, and the closed rows
        # not yet turned into spans.
        self._open: Optional[list] = None
        self._rows: List[list] = []

    # -- deferred stages ---------------------------------------------------
    def defer(self, name: str, attrs: Mapping[str, Any]) -> list:
        """Open a stage as a bare row; returns it for :meth:`settle`.

        The row takes the next id, the open stage as its parent and
        one clock reading, but no :class:`Span` is built until
        :attr:`spans` is read. ``attrs`` is attached as is, not copied.
        """
        enclosing = self._open
        if enclosing is not None:
            parent_id, depth = enclosing[_ID], enclosing[_DEPTH] + 1
        else:
            parent_id, depth = None, 0
        self._open = row = [
            self._next_id, name, self.clock(), None, parent_id, depth, attrs,
            enclosing,
        ]
        self._next_id += 1
        return row

    def settle(self, row: list) -> float:
        """Close a :meth:`defer` row; returns the stage's duration."""
        row[_END] = end = self.clock()
        self._open = row[_ENCLOSING]
        if len(self._spans) + len(self._rows) < self.max_spans:
            self._rows.append(row)
        else:
            self.dropped += 1
        return end - row[_START]

    @property
    def spans(self) -> List[Span]:
        """Finished spans, in the order they finished."""
        if self._rows:
            self._spans.extend(Span(*row[:_ENCLOSING]) for row in self._rows)
            self._rows.clear()
        return self._spans

    # -- reading back ------------------------------------------------------
    def to_dicts(self) -> List[Dict[str, Any]]:
        """All finished spans as JSON-ready dicts, in start order."""
        return [span.to_dict() for span in sorted(self.spans, key=lambda s: s.span_id)]

    def span_tree(self, last: Optional[int] = None) -> str:
        """Render finished spans as an indented tree.

        Parameters
        ----------
        last:
            Only render the last ``last`` *root* spans (None = all).
        """
        ordered = sorted(self.spans, key=lambda s: s.span_id)
        if last is not None:
            root_ids = [s.span_id for s in ordered if s.depth == 0]
            if len(root_ids) > last:
                cutoff = root_ids[-last]
                kept_roots = set(root_ids[-last:])
                ordered = [
                    s
                    for s in ordered
                    if s.span_id >= cutoff and self._root_of(s) in kept_roots
                ]
        lines = []
        for span in ordered:
            duration = span.duration
            timing = f"{duration * 1e3:.3f}ms" if duration is not None else "open"
            attrs = ""
            if span.attrs:
                inner = ", ".join(f"{k}={v}" for k, v in span.attrs.items())
                attrs = f" ({inner})"
            lines.append(f"{'  ' * span.depth}{span.name}{attrs} {timing}")
        return "\n".join(lines)

    def _root_of(self, span: Span) -> int:
        by_id = {s.span_id: s for s in self.spans}
        current = span
        while current.parent_id is not None and current.parent_id in by_id:
            current = by_id[current.parent_id]
        return current.span_id
