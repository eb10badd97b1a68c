"""Metric names, units, directions and bounds — the benchmark's vocabulary.

``GATED`` is the ``end_to_end`` list of ``BENCHMARK.json``: metrics
defined on every workload, each with the share of the parent's median it
may worsen by. Every time among them is wall clock rescaled to the speed
gauge's reference core (``gauge.py``). ``WORKLOAD_E2E`` are end-to-end
metrics the driver cannot gate: most exist only on some workloads (a
coordinator round, ack latency, ground truth QoS) while the driver's
schema wants every gated metric on every workload, and the p99 period
follows the seed more than the code. They ride in ``per_layer``
under the layer that produces them and are printed as end-to-end
metrics by ``python -m benchmarks.e2e``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from benchmarks.e2e.tracer import LAYERS, TIMINGS

#: Workload name -> why it exists (the ``workloads`` list of ``BENCHMARK.json``).
WORKLOADS: Dict[str, str] = {
    "host_steady": (
        "long-lived controller: dedup absorbs most samples, so trajectory sampling "
        "and the watchdog dominate; mapping layer in read mode"
    ),
    "host_coldstart": (
        "six fresh controllers per episode: the learning phase, mapping layer in "
        "write mode (place_point and SMACOF refits dominate)"
    ),
    "fleet_chaos": (
        "coordinator arm of the fleet drill under host crashes and blackouts: the "
        "only workload running repro.fleet and cluster stepping"
    ),
    "stream_replay": (
        "fault-free replay through ControllerService: host_steady's controller work "
        "plus the seam; decisions must equal the in-process reference"
    ),
    "stream_chaos": (
        "live host behind drop, reorder, duplicate and lost-ack faults: imputation, "
        "retries, dead letters and a growing command log"
    ),
}

#: name -> (unit, better, bound)
GATED: Dict[str, Tuple[str, str, float]] = {
    "host_ticks_per_s": ("1/s", "higher", 0.25),
    "period_p50_us": ("us", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.10),
    "setup_s": ("s", "lower", 0.25),
}

#: name -> (unit, better, per-layer alias, workloads it is defined on)
WORKLOAD_E2E: Dict[str, Tuple[str, str, str, Tuple[str, ...]]] = {
    # On every workload, but not gated: how many new states a seed's
    # episodes open, and what placing them costs, sets it more than the
    # code does.
    "period_p99_us": ("us", "lower", "core.period_p99_us", tuple(WORKLOADS)),
    "round_p50_ms": ("ms", "lower", "fleet.round_p50_ms", ("fleet_chaos",)),
    "round_p95_ms": ("ms", "lower", "fleet.round_p95_ms", ("fleet_chaos",)),
    "sample_to_ack_p50_ticks": (
        "ticks", "lower", "service.sample_to_ack_p50_ticks",
        ("stream_replay", "stream_chaos"),
    ),
    "sample_to_ack_p99_ticks": (
        "ticks", "lower", "service.sample_to_ack_p99_ticks",
        ("stream_replay", "stream_chaos"),
    ),
    "violation_ratio": (
        "ratio", "lower", "sim.violation_ratio",
        ("host_steady", "host_coldstart", "fleet_chaos", "stream_chaos"),
    ),
    "batch_work": (
        "work", "higher", "sim.batch_work",
        ("host_steady", "host_coldstart", "fleet_chaos", "stream_chaos"),
    ),
}

#: Count metrics, per episode (mean over the run's episodes): name -> better.
COUNTS: Dict[str, str] = {
    "sim.host_ticks": "higher",
    "monitoring.guard_rejects": "lower",
    "monitoring.guard_imputed": "lower",
    "mds.place_calls": "lower",
    "mds.refits": "lower",
    "mds.states": "lower",
    "trajectory.candidates": "lower",
    "core.periods": "higher",
    "core.alarms": "lower",
    "core.throttles": "lower",
    "core.resumes": "lower",
    "core.firewall_catches": "lower",
    "core.geometry_rebuilds": "lower",
    "fleet.migrations_committed": "higher",
    "fleet.migrations_retried": "lower",
    "fleet.migrations_lost": "lower",
    "fleet.fallback_ticks": "lower",
    "fleet.cell_crashes": "lower",
    "service.records_in": "higher",
    "service.records_dropped": "lower",
    "service.records_duplicated": "lower",
    "service.records_late": "lower",
    "service.cells_imputed": "lower",
    "service.ticks_closed_partial": "lower",
    "service.commands_submitted": "lower",
    "service.acks": "higher",
    "service.retries": "lower",
    "service.dead_letters": "lower",
}

#: Ratios derived from the counts: name -> (numerator, denominator).
RATIOS: Dict[str, Tuple[str, str]] = {
    "mds.dedup_hit_ratio": ("mds.dedup_hits", "mds.samples"),
    "service.ack_ratio": ("service.acks", "service.commands_submitted"),
}

#: Median reading of the speed gauge over the pass (``gauge.py``): how
#: slow the core was, and what turns a gated time back into wall clock.
GAUGE = "bench.gauge_us"

SHARES = tuple(f"{layer}.self_share_pct" for layer in LAYERS)


def per_layer_spec() -> List[Dict[str, str]]:
    """The ``per_layer`` list of ``BENCHMARK.json``, in report order."""
    spec = [{"name": name, "unit": "us", "better": "lower"} for name in TIMINGS]
    spec += [{"name": name, "unit": "count", "better": better} for name, better in COUNTS.items()]
    spec += [{"name": name, "unit": "ratio", "better": "higher"} for name in RATIOS]
    spec += [
        {"name": alias, "unit": unit, "better": better}
        for unit, better, alias, _ in WORKLOAD_E2E.values()
    ]
    spec.append({"name": GAUGE, "unit": "us", "better": "lower"})
    return spec


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (an observed value, never interpolated)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def spread(first: Optional[float], second: Optional[float]) -> float:
    """Relative distance of two readings of one metric."""
    if first is None or second is None:
        return 0.0
    middle = (abs(first) + abs(second)) / 2.0
    return abs(first - second) / middle if middle else 0.0
