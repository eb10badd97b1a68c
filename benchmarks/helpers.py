"""Shared infrastructure for the figure/table benchmarks.

Every bench regenerates one table or figure of the paper's evaluation
(§7): it runs the corresponding co-location scenario under the relevant
policies, prints the series/rows the paper reports (plus the paper's
reference values for comparison) and asserts the qualitative *shape* —
who wins, by roughly what factor — rather than absolute numbers, since
the substrate is a simulator rather than the authors' testbed.

Runs are cached per (policy, scenario) so benches that share a scenario
(e.g. Fig. 8 QoS and Fig. 10 utilization both need VLC+CPUBomb) do not
recompute it.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from repro.analysis.utilization import UtilizationComparison, compare_utilization
from repro.core.config import StayAwayConfig
from repro.core.template import MapTemplate
from repro.experiments.runner import RunResult, TrioResult, run_scenario
from repro.experiments.scenarios import Scenario

#: Default experiment length: one compressed diurnal day.
STANDARD_TICKS = 1200

_RUN_CACHE: Dict[Tuple, RunResult] = {}


def _config_key(config: Optional[StayAwayConfig]) -> str:
    if config is None:
        return "default"
    return repr(dataclasses.astuple(config))


def get_run(
    policy: str,
    sensitive: str,
    batches: Tuple[str, ...],
    ticks: int = STANDARD_TICKS,
    seed: int = 0,
    config: Optional[StayAwayConfig] = None,
    template: Optional[MapTemplate] = None,
    batch_start: int = 60,
    cooldown: int = 20,
) -> RunResult:
    """A (cached) run of one scenario under one policy."""
    key = (
        policy,
        sensitive,
        tuple(batches),
        ticks,
        seed,
        batch_start,
        cooldown,
        _config_key(config),
        id(template) if template is not None else None,
    )
    if key not in _RUN_CACHE:
        scenario = Scenario(
            sensitive=sensitive,
            batches=tuple(batches),
            ticks=ticks,
            seed=seed,
            batch_start=batch_start,
        )
        _RUN_CACHE[key] = run_scenario(
            scenario,
            policy=policy,
            config=config,
            template=template,
            cooldown=cooldown,
        )
    return _RUN_CACHE[key]


def get_trio(
    sensitive: str,
    batches: Tuple[str, ...],
    ticks: int = STANDARD_TICKS,
    seed: int = 0,
    config: Optional[StayAwayConfig] = None,
) -> TrioResult:
    """Isolated + unmanaged + Stay-Away comparison, from cached runs."""
    isolated = get_run("isolated", sensitive, batches, ticks, seed)
    unmanaged = get_run("unmanaged", sensitive, batches, ticks, seed)
    stayaway = get_run("stayaway", sensitive, batches, ticks, seed, config=config)
    comparison = compare_utilization(
        isolated.snapshots,
        unmanaged.snapshots,
        stayaway.snapshots,
        capacity=isolated.built.host.capacity,
    )
    return TrioResult(
        isolated=isolated,
        unmanaged=unmanaged,
        stayaway=stayaway,
        utilization=comparison,
    )


def write_report(report: dict, out) -> str:
    """Write a gate's report as JSON (sorted keys, two-space indent, final
    newline, the shape of the committed ``BENCH_*.json`` records); returns
    the path written.

    The gates' ``test_*`` functions pass pytest's ``tmp_path``; only a
    script's ``main()`` defaults to its committed record.
    """
    path = Path(out)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return str(path)


def banner(title: str) -> str:
    """A section banner for bench output."""
    rule = "=" * max(len(title), 8)
    return f"\n{rule}\n{title}\n{rule}"


def paper_vs_measured(rows) -> str:
    """Render (metric, paper, measured) rows."""
    from repro.analysis.reports import ascii_table

    return ascii_table(["metric", "paper", "measured"], rows)


def summarize_qos(run: RunResult) -> str:
    """One line of QoS summary for a run."""
    values = run.qos_values()
    if values.size == 0:
        return f"{run.policy}: no QoS reports"
    return (
        f"{run.policy:10s} mean QoS {values.mean():.3f}  min {values.min():.3f}  "
        f"violations {run.qos.violation_count:4d} ({run.violation_ratio():.1%} of ticks)"
    )


def qos_strip(run: RunResult, width: int = 72) -> str:
    """A text strip of the normalized QoS series (dark = low QoS)."""
    from repro.analysis.reports import render_series

    values = run.qos_values()
    return render_series(1.0 - values, width=width, low=0.0, high=1.0)


def gain_strip(series: np.ndarray, width: int = 72) -> str:
    """A text strip of a gained-utilization series."""
    from repro.analysis.reports import render_series

    return render_series(series, width=width, low=0.0, high=100.0)
