"""The :class:`Telemetry` facade the runtime is instrumented against.

One object bundles the registry (counters/gauges/histograms), a
bounded ring of per-period rows and the shared clock. A stage is two
clock reads: on exit its duration goes into the ``<name>_seconds``
histogram and into the open row; the outermost stage (the controller's
``controller.period``) opens the row and appends it when it closes.
The ``enabled`` switch reduces every stage to one shared no-op context
manager — ``benchmarks/bench_perf_overhead.py`` holds the on/off
difference under 5% of the controller's period cost.

Counters and gauges stay live even when ``enabled`` is ``False``: the
resilience counters (sensor-guard verdicts, reconcile retries) are
load-bearing controller state, not optional observability.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Callable, Deque, Dict, Mapping, Optional, Tuple

from repro.telemetry.exporters import (
    registry_snapshot,
    to_prometheus_text,
    write_json_snapshot,
    write_trace_jsonl,
)
from repro.telemetry.registry import Counter, Gauge, Histogram, MetricRegistry

#: Period rows kept: the newest ``TRACE_ROWS`` (older ones age out).
TRACE_ROWS = 20_000


class _NullStage:
    """Shared no-op context manager for disabled telemetry."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NULL_CONTEXT = _NullStage()


class _Stage:
    """One named stage, timed each time it is entered.

    Reusable (``with stage: ...`` any number of times) but not
    reentrant. ``_opened`` is the row an outermost entry opened; a
    stage that raises still times into its histogram and closes that row.
    """

    __slots__ = ("telemetry", "name", "histogram", "tick", "_started", "_opened")

    def __init__(self, telemetry: "Telemetry", name: str, histogram: Histogram) -> None:
        self.telemetry = telemetry
        self.name = name
        self.histogram = histogram
        self.tick: Optional[int] = None
        self._started: Optional[float] = None
        self._opened: Optional[Dict[str, Any]] = None

    def __enter__(self) -> "_Stage":
        if self._started is not None:
            raise RuntimeError(f"stage {self.name!r} is not reentrant")
        telemetry = self.telemetry
        self._started = start = telemetry.clock()
        if telemetry._open_row is None:
            telemetry._open_row = self._opened = {"tick": self.tick, "start": start}
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        started = self._started
        if started is None:
            raise RuntimeError(f"stage {self.name!r} was never entered")
        telemetry = self.telemetry
        elapsed = telemetry.clock() - started
        self._started = None
        self.histogram.observe(elapsed)
        row = telemetry._open_row
        row[self.name] = row.get(self.name, 0.0) + elapsed
        if self._opened is not None:
            telemetry.rows.append(row)
            telemetry._open_row = self._opened = None


class Telemetry:
    """Registry + period rows + clock behind one instrumentation surface.

    Parameters
    ----------
    enabled:
        Gates the stages (the part that costs clock reads per period).
        Metric get-or-create stays available either way.
    clock:
        Monotonic time source of every stage; default
        ``time.perf_counter``. Tests inject fakes for exact assertions.

    ``rows`` holds the newest :data:`TRACE_ROWS` closed rows, oldest
    first: one per outermost stage, with its ``tick``, its ``start``
    clock reading and the summed seconds of every stage inside it.
    """

    def __init__(self, enabled: bool = True, clock: Optional[Callable[[], float]] = None) -> None:
        self.enabled = enabled
        self.clock = clock if clock is not None else time.perf_counter
        self.registry = MetricRegistry()
        self.rows: Deque[Dict[str, Any]] = deque(maxlen=TRACE_ROWS)
        self._open_row: Optional[Dict[str, Any]] = None
        self._stages: Dict[str, _Stage] = {}

    # -- metric passthrough ------------------------------------------------
    def counter(
        self, name: str, help: str = "", labels: Optional[Mapping[str, str]] = None
    ) -> Counter:
        """Get or create a counter in the shared registry."""
        return self.registry.counter(name, help=help, labels=labels)

    def gauge(
        self, name: str, help: str = "", labels: Optional[Mapping[str, str]] = None
    ) -> Gauge:
        """Get or create a gauge in the shared registry."""
        return self.registry.gauge(name, help=help, labels=labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> Histogram:
        """Get or create a histogram in the shared registry."""
        return self.registry.histogram(name, help=help, labels=labels, buckets=buckets)

    # -- timing ------------------------------------------------------------
    def stage(self, name: str, tick: Optional[int] = None):
        """Time a named stage into ``<name>_seconds`` and the open row.

        Returns a context manager cached per name; disabled, a shared
        no-op object, so a disabled stage costs one attribute check.
        ``tick`` labels the row this entry opens if it is outermost.
        """
        if not self.enabled:
            return NULL_CONTEXT
        stage = self._stages.get(name)
        if stage is None:
            histogram = self.registry.histogram(
                f"{name}_seconds", help=f"wall-clock seconds spent in {name}"
            )
            stage = self._stages[name] = _Stage(self, name, histogram)
        stage.tick = tick
        return stage

    # -- reading back ------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Machine-readable state: metrics + the number of rows kept."""
        return {
            "enabled": self.enabled,
            "metrics": registry_snapshot(self.registry),
            "rows": len(self.rows),
        }

    def stage_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-stage timing summaries: ``{stage: count/sum/mean/...}``.

        Covers every histogram named ``*_seconds`` (the :meth:`stage`
        convention), keyed by the stage name without the suffix.
        """
        stages: Dict[str, Dict[str, float]] = {}
        for metric in self.registry:
            if isinstance(metric, Histogram) and metric.name.endswith("_seconds"):
                stages[metric.name[: -len("_seconds")]] = metric.summary()
        return stages

    # -- exporting ---------------------------------------------------------
    def to_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format."""
        return to_prometheus_text(self.registry)

    def write_json(self, path: str, **extra: Any) -> str:
        """Write the JSON snapshot file (with the row count); returns the path."""
        return write_json_snapshot(self.registry, path, extra={**extra, "rows": len(self.rows)})

    def write_trace(self, path: str) -> int:
        """Write the period rows as JSONL; returns rows written."""
        return write_trace_jsonl(self.rows, path)
