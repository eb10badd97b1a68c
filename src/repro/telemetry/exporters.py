"""Exporters: registry and period rows out to JSON, Prometheus text, JSONL.

Three formats, three audiences:

* :func:`registry_snapshot` / :func:`write_json_snapshot` — one nested
  dict per run, the machine-readable run summary benches diff;
* :func:`to_prometheus_text` — the text exposition format, so a real
  deployment can point a scraper at the controller;
* :func:`write_trace_jsonl` — one period row per line, the per-run
  trace file (loadable with ``json.loads`` per line).
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, Iterable, List, Mapping, Optional

from repro.telemetry.registry import Counter, Gauge, Histogram, MetricRegistry

_PROM_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def prometheus_name(name: str) -> str:
    """Sanitize a metric name for the Prometheus exposition format."""
    sanitized = _PROM_NAME_BAD.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def registry_snapshot(registry: MetricRegistry) -> Dict[str, Any]:
    """The registry as a nested dict: ``{counters, gauges, histograms}``.

    Keys are rendered ``name{label="v"}`` strings; histogram values are
    their ``count/sum/mean/min/max/last`` summaries.
    """
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, Dict[str, float]] = {}
    for metric in registry:
        if isinstance(metric, Counter):
            counters[metric.key] = metric.value
        elif isinstance(metric, Gauge):
            gauges[metric.key] = metric.value
        elif isinstance(metric, Histogram):
            histograms[metric.key] = metric.summary()
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


def _prom_value(value: float) -> str:
    """A sample value as text that parses back to the identical float.

    ``repr`` of a Python float is the shortest string that round-trips
    exactly — the property the scrape-source parser
    (:func:`repro.service.stream.parse_prometheus_text`) relies on.
    The previous ``%g`` rendering kept only 6 significant digits,
    which silently perturbed replayed measurements.
    """
    return repr(float(value))


def _prom_label_value(value: str) -> str:
    """Escape a label value per the exposition format (`\\`, `"`, LF).

    The scrape parser (:func:`repro.service.stream.parse_prometheus_text`)
    applies the inverse unescape, so label values round-trip exactly.
    """
    return (
        value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r"\"")
    )


def _prom_labels(metric, extra: Optional[Dict[str, str]] = None) -> str:
    pairs = list(metric.labels)
    if extra:
        pairs.extend(sorted(extra.items()))
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_prom_label_value(str(v))}"' for k, v in pairs)
    return f"{{{inner}}}"


def to_prometheus_text(registry: MetricRegistry) -> str:
    """Render the registry in the Prometheus text exposition format.

    Counters get a ``_total`` suffix; histograms expand into
    ``_bucket{le=...}`` (cumulative), ``_sum`` and ``_count`` series.
    ``# HELP`` / ``# TYPE`` headers are emitted once per metric name.
    """
    lines: List[str] = []
    seen_headers = set()

    def header(name: str, kind: str, help_text: str) -> None:
        if name in seen_headers:
            return
        seen_headers.add(name)
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")

    for metric in registry:
        name = prometheus_name(metric.name)
        if isinstance(metric, Counter):
            header(f"{name}_total", "counter", metric.help)
            lines.append(
                f"{name}_total{_prom_labels(metric)} {_prom_value(metric.value)}"
            )
        elif isinstance(metric, Gauge):
            header(name, "gauge", metric.help)
            lines.append(f"{name}{_prom_labels(metric)} {_prom_value(metric.value)}")
        elif isinstance(metric, Histogram):
            header(name, "histogram", metric.help)
            for bound, cumulative in metric.cumulative_buckets():
                le = "+Inf" if bound == float("inf") else f"{bound:g}"
                lines.append(
                    f"{name}_bucket{_prom_labels(metric, {'le': le})} {cumulative}"
                )
            lines.append(f"{name}_sum{_prom_labels(metric)} {_prom_value(metric.sum)}")
            lines.append(f"{name}_count{_prom_labels(metric)} {metric.count}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_json_snapshot(
    registry: MetricRegistry, path: str, extra: Optional[Dict[str, Any]] = None
) -> str:
    """Write :func:`registry_snapshot` as a JSON file.

    Returns the path written. ``extra`` entries are merged at top level
    (run metadata: scenario, seed, ticks...).
    """
    payload: Dict[str, Any] = dict(extra or {})
    payload["metrics"] = registry_snapshot(registry)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def write_trace_jsonl(rows: Iterable[Mapping[str, Any]], path: str) -> int:
    """Write each row as one JSON object per line.

    Returns the number of rows written.
    """
    rows = list(rows)
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    return len(rows)
