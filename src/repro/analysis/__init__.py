"""Analysis: utilization, prediction accuracy, summary statistics, reports.

These are the measurement tools the evaluation (§7) is built from:
machine-utilization series and gained-utilization bands (Figs. 10-12),
QoS figures (Figs. 8-9, 14-16),
prediction-accuracy summaries (§3.2.3's >90% claim) and plain-text
table/series rendering for the benchmark harness output.
"""

from repro.analysis.accuracy import AccuracySummary, summarize_accuracy
from repro.analysis.reports import (
    ascii_table,
    render_scatter,
    render_series,
    render_timeline_bands,
)
from repro.analysis.figures import (
    gained_utilization_figure,
    qos_figure,
    state_space_figure,
    timeline_figure,
)
from repro.analysis.stats import (
    SummaryStats,
    bootstrap_mean_ci,
    mann_whitney_u,
    summarize,
)
from repro.analysis.svg import Plot, SvgCanvas
from repro.analysis.utilization import (
    UtilizationComparison,
    compare_utilization,
    gained_utilization_series,
    utilization_series,
)

__all__ = [
    "AccuracySummary",
    "Plot",
    "SummaryStats",
    "SvgCanvas",
    "UtilizationComparison",
    "ascii_table",
    "bootstrap_mean_ci",
    "mann_whitney_u",
    "render_scatter",
    "summarize",
    "compare_utilization",
    "gained_utilization_figure",
    "qos_figure",
    "state_space_figure",
    "timeline_figure",
    "gained_utilization_series",
    "render_series",
    "render_timeline_bands",
    "summarize_accuracy",
    "utilization_series",
]
