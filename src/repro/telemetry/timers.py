"""Monotonic stage timers feeding histograms (and optionally spans).

:class:`Stopwatch` is the primitive — start/stop against an injectable
monotonic clock. :class:`StageTimer` is the instrumentation workhorse:
a reusable context manager that times a region into a
:class:`~repro.telemetry.registry.Histogram` and, when given a tracer,
records a matching span so the same region shows up in the trace tree.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Mapping, Optional

from repro.telemetry.registry import Histogram
from repro.telemetry.spans import NO_ATTRS, Tracer


class Stopwatch:
    """Manual start/stop timing against a monotonic clock."""

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self.clock = clock if clock is not None else time.perf_counter
        self._started: Optional[float] = None
        self.elapsed: float = 0.0

    def start(self) -> "Stopwatch":
        """Begin (or restart) timing."""
        self._started = self.clock()
        return self

    def stop(self) -> float:
        """Stop timing; returns and stores the elapsed seconds."""
        if self._started is None:
            raise RuntimeError("stopwatch was never started")
        self.elapsed = self.clock() - self._started
        self._started = None
        return self.elapsed

    @property
    def running(self) -> bool:
        """Whether the stopwatch is currently timing."""
        return self._started is not None


class StageTimer:
    """Times one named stage into a histogram each time it is entered.

    Parameters
    ----------
    histogram:
        Destination for the per-entry durations (seconds).
    clock:
        Monotonic time source; default ``time.perf_counter``.
    tracer / name / attrs:
        When a tracer is given, each entry also records a span called
        ``name`` (a deferred one, see :meth:`Tracer.defer`) so stage
        timings appear in the trace; the span holds ``attrs`` itself,
        not a copy (assign a fresh dict per entry if spans must not
        share one).

    The timer is reusable (``with timer: ...`` any number of times) but
    not reentrant — it times one region at a time.
    """

    def __init__(
        self,
        histogram: Histogram,
        clock: Optional[Callable[[], float]] = None,
        tracer: Optional[Tracer] = None,
        name: Optional[str] = None,
        attrs: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.histogram = histogram
        self.clock = clock if clock is not None else time.perf_counter
        self.tracer = tracer
        self.name = name if name is not None else histogram.name
        self.attrs: Mapping[str, Any] = attrs or NO_ATTRS
        self.last: float = 0.0
        self._started: Any = None

    def __enter__(self) -> "StageTimer":
        if self._started is not None:
            raise RuntimeError(f"stage timer {self.name!r} is not reentrant")
        if self.tracer is not None:
            # The span's own two clock readings time the stage too.
            self._started = self.tracer.defer(self.name, self.attrs)
        else:
            self._started = self.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        started = self._started
        if started is None:
            raise RuntimeError(f"stage timer {self.name!r} was never entered")
        self._started = None
        if self.tracer is not None:
            elapsed = self.tracer.settle(started)
        else:
            elapsed = self.clock() - started
        self.last = elapsed
        self.histogram.observe(elapsed)
