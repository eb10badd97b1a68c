"""Monotonic stage timers feeding histograms and spans.

:class:`StageTimer` is the instrumentation workhorse: a reusable
context manager that times a region into a
:class:`~repro.telemetry.registry.Histogram` and records a matching
span so the same region shows up in the trace tree.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro.telemetry.registry import Histogram
from repro.telemetry.spans import NO_ATTRS, Tracer


class StageTimer:
    """Times one named stage into a histogram each time it is entered.

    Parameters
    ----------
    histogram:
        Destination for the per-entry durations (seconds).
    tracer / name / attrs:
        Each entry also records a span called ``name`` (see
        :meth:`Tracer.defer`) so stage timings appear in the trace,
        and the span's two readings of the tracer's clock time the
        stage; the span holds ``attrs`` itself, not a copy (assign a
        fresh dict per entry if spans must not share one).

    The timer is reusable (``with timer: ...`` any number of times) but
    not reentrant — it times one region at a time.
    """

    def __init__(
        self,
        histogram: Histogram,
        tracer: Tracer,
        name: Optional[str] = None,
        attrs: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.histogram = histogram
        self.tracer = tracer
        self.name = name if name is not None else histogram.name
        self.attrs: Mapping[str, Any] = attrs or NO_ATTRS
        self.last: float = 0.0
        self._started: Any = None

    def __enter__(self) -> "StageTimer":
        if self._started is not None:
            raise RuntimeError(f"stage timer {self.name!r} is not reentrant")
        self._started = self.tracer.defer(self.name, self.attrs)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        started = self._started
        if started is None:
            raise RuntimeError(f"stage timer {self.name!r} was never entered")
        self._started = None
        self.last = elapsed = self.tracer.settle(started)
        self.histogram.observe(elapsed)
