"""The parent's eager span path, kept as a test oracle.

Until PR 24 ``repro.telemetry.spans.Tracer`` produced spans two ways:
``span`` / ``start`` / ``finish`` built a :class:`Span` on entry and
kept the open ones on a stack, and ``defer`` / ``settle`` kept a stage
as a bare row until somebody read the spans. Nothing outside the tests
opened a plain span, so the rows became the only path. The eager half
below is the body the parent commit (22631d2) ran, on a subclass so the
reading side (``spans``, ``to_dicts``, ``span_tree``, ``max_spans`` /
``dropped``) is shared; ``tests/unit/test_telemetry.py`` runs whole
controller periods through both and demands equal ids, parents, depths,
clock readings, retention and rendering.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.telemetry.spans import NO_ATTRS, Span, Tracer


class _SpanContext:
    """Context manager that finishes its span on exit."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "PlainSpanTracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer.finish(self.span)


class PlainSpanTracer(Tracer):
    """A tracer whose spans are built on entry and tracked on a stack."""

    def __init__(self, clock=None, max_spans: int = 20_000) -> None:
        super().__init__(clock=clock, max_spans=max_spans)
        self._stack: List[Span] = []

    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """Open a nested span; use as ``with tracer.span("map"): ...``."""
        return _SpanContext(self, self.start(name, **attrs))

    def start(self, name: str, **attrs: Any) -> Span:
        stack = self._stack
        parent = stack[-1] if stack else None
        span = Span(
            self._next_id,
            name,
            self.clock(),
            None,
            parent.span_id if parent is not None else None,
            parent.depth + 1 if parent is not None else 0,
            attrs or NO_ATTRS,
        )
        self._next_id += 1
        stack.append(span)
        return span

    def finish(self, span: Span) -> float:
        """Close ``span`` (and anything left open beneath it); returns its end."""
        span.end = end = self.clock()
        stack = self._stack
        while stack:
            if stack.pop() is span:
                break
        spans = self.spans
        if len(spans) < self.max_spans:
            spans.append(span)
        else:
            self.dropped += 1
        return end

    @property
    def active(self) -> Optional[Span]:
        """The innermost open span (``None`` outside any)."""
        return self._stack[-1] if self._stack else None
