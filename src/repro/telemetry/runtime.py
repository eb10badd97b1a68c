"""The :class:`Telemetry` facade the runtime is instrumented against.

One object bundles the registry (counters/gauges/histograms), the
tracer (nested spans) and the shared clock, with an ``enabled`` switch
that reduces spans and stage timers to shared no-op context managers —
the overhead benchmark (``benchmarks/bench_perf_overhead.py``) measures
exactly the on/off difference and holds it under 5% of the controller's
period cost.

Counters and gauges stay live even when ``enabled`` is ``False``: the
resilience counters (sensor-guard verdicts, reconcile retries) are
load-bearing controller state, not optional observability.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.telemetry.exporters import (
    registry_snapshot,
    to_prometheus_text,
    write_json_snapshot,
    write_trace_jsonl,
)
from repro.telemetry.registry import Counter, Gauge, Histogram, MetricRegistry
from repro.telemetry.spans import NO_ATTRS, NULL_CONTEXT, Tracer
from repro.telemetry.timers import StageTimer


class Telemetry:
    """Registry + tracer + clock behind one instrumentation surface.

    Parameters
    ----------
    enabled:
        Gates spans and stage timers (the parts that cost clock reads
        per period). Metric get-or-create stays available either way.
    clock:
        Monotonic time source shared by timers and spans; default
        ``time.perf_counter``. Tests inject fakes for exact assertions.
    max_spans:
        Retention cap for finished spans (see
        :class:`~repro.telemetry.spans.Tracer`).
    """

    def __init__(
        self,
        enabled: bool = True,
        clock: Optional[Callable[[], float]] = None,
        max_spans: int = 20_000,
    ) -> None:
        self.enabled = enabled
        self.clock = clock if clock is not None else time.perf_counter
        self.registry = MetricRegistry()
        self.tracer = Tracer(clock=self.clock, max_spans=max_spans)
        self._stage_timers: Dict[str, StageTimer] = {}

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
    def stage(self, name: str, **attrs: Any):
        """Time a named stage: histogram ``<name>_seconds`` + span.

        Returns a context manager; when telemetry is disabled it is a
        shared no-op object, so a disabled stage costs one attribute
        check and nothing else. ``attrs`` are attached to this entry's
        span (the timer itself is cached per name).
        """
        if not self.enabled:
            return NULL_CONTEXT
        timer = self._stage_timers.get(name)
        if timer is None:
            timer = StageTimer(
                self.registry.histogram(
                    f"{name}_seconds", help=f"wall-clock seconds spent in {name}"
                ),
                tracer=self.tracer,
                name=name,
            )
            self._stage_timers[name] = timer
        timer.attrs = attrs or NO_ATTRS
        return timer

    # -- reading back ------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Machine-readable state: metrics + span accounting."""
        return {
            "enabled": self.enabled,
            "metrics": registry_snapshot(self.registry),
            "spans": {
                "recorded": len(self.tracer.spans),
                "dropped": self.tracer.dropped,
            },
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

    def span_tree(self, last: Optional[int] = None) -> str:
        """Finished spans rendered as an indented tree."""
        return self.tracer.span_tree(last=last)

    # -- exporting ---------------------------------------------------------
    def to_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format."""
        return to_prometheus_text(self.registry)

    def write_json(self, path: str, **extra: Any) -> str:
        """Write the JSON snapshot file; returns the path."""
        return write_json_snapshot(self.registry, path, tracer=self.tracer, extra=extra)

    def write_trace(self, path: str) -> int:
        """Write the per-run JSONL trace; returns spans written."""
        return write_trace_jsonl(self.tracer, path)
