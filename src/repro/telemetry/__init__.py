"""Controller self-telemetry: metrics, stage timers, period rows.

The paper claims Stay-Away's runtime overhead is negligible (§4); this
package is how the reproduction measures that about itself. One
:class:`Telemetry` object per controller bundles:

* a :class:`MetricRegistry` of :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` metrics (get-or-create, label support);
* stages (:meth:`Telemetry.stage`): two clock reads each, into a
  ``<name>_seconds`` histogram and into the period's row — every
  period closes one ``{"tick", "start", "controller.period",
  "controller.map", "controller.predict", ...}`` row in the bounded
  ring :attr:`Telemetry.rows`;
* exporters: :func:`registry_snapshot` (dict),
  :func:`write_json_snapshot` (run summary file),
  :func:`to_prometheus_text` (scrapeable text),
  :func:`write_trace_jsonl` (one period row per line).

Quick tour::

    from repro import Scenario, StayAwayConfig, run_stayaway

    run = run_stayaway(Scenario(sensitive="vlc-streaming",
                                batches=("cpubomb",), ticks=400))
    tel = run.controller.telemetry
    print(tel.stage_summary()["controller.period"]["mean"])  # seconds
    print(list(tel.rows)[-2:])  # the last two periods, seconds per stage
    tel.write_json("run_metrics.json")
    tel.write_trace("run_trace.jsonl")

See ``docs/API.md`` §12 for the full surface and the metric-name
catalog, and ``benchmarks/bench_perf_overhead.py`` for the on/off
overhead budget this package is held to.
"""

from repro.telemetry.exporters import (
    prometheus_name,
    registry_snapshot,
    to_prometheus_text,
    write_json_snapshot,
    write_trace_jsonl,
)
from repro.telemetry.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Metric,
    MetricRegistry,
    render_key,
)
from repro.telemetry.runtime import Telemetry

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricRegistry",
    "Telemetry",
    "prometheus_name",
    "registry_snapshot",
    "render_key",
    "to_prometheus_text",
    "write_json_snapshot",
    "write_trace_jsonl",
]
