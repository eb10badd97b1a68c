"""Perf trajectory — controller self-overhead with telemetry on vs off.

The paper claims Stay-Away itself is cheap (§4, "an average 2% CPU
usage"); PR 2 added the telemetry layer that lets the controller
measure that about itself. This bench closes the loop: the same
VLC + CPUBomb co-location is run twice — telemetry enabled (spans +
stage timers) and disabled — timing every ``on_tick`` call, and the
added overhead must stay under 5% of the controller's period cost.

It writes ``BENCH_perf_overhead.json`` at the repo root (override with
``--out``): the first entry of the perf trajectory later scaling PRs
regress against.

Run standalone (used by the CI smoke step)::

    PYTHONPATH=src python -m benchmarks.bench_perf_overhead --ticks 150

or through pytest with the other benches::

    PYTHONPATH=src python -m pytest benchmarks/bench_perf_overhead.py -q

``--runs N`` repeats the whole measurement and gates on the median of
the ``N`` readings; the committed record is a ``--runs 10`` one.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import time
from pathlib import Path
from typing import Dict, List

from benchmarks.helpers import write_report
from repro.core.config import StayAwayConfig
from repro.core.controller import StayAway
from repro.experiments.scenarios import Scenario
from repro.sim.engine import SimulationEngine

DEFAULT_TICKS = 450
#: Interleaved runs per configuration. The budget is 5 % of a ~0.4 ms
#: period, about 20 us; with 4 repeats the per-period minima still
#: carried enough host noise to put 3 of 8 runs of one build above it
#: (3.8-5.3 %). With 8, thirteen runs stayed within 3.9-4.9 %.
DEFAULT_REPEATS = 8
THRESHOLD_PERCENT = 5.0
DEFAULT_OUT = Path(__file__).resolve().parents[1] / "BENCH_perf_overhead.json"


def timed_run(telemetry_enabled: bool, ticks: int) -> Dict[str, object]:
    """One scenario run; returns per-period controller timings (seconds)."""
    built = Scenario(
        sensitive="vlc-streaming", batches=("cpubomb",), ticks=ticks, seed=3
    ).build(include_batch=True)
    config = StayAwayConfig(telemetry=telemetry_enabled, seed=3)
    controller = StayAway(built.sensitive_app, config=config)

    period_times: List[float] = []
    original = controller.on_tick

    def timed_on_tick(snapshot, host):
        start = time.perf_counter()
        original(snapshot, host)
        period_times.append(time.perf_counter() - start)

    controller.on_tick = timed_on_tick
    # Collect outside the timed region, then freeze the collector: cycle
    # collection cost scales with every live object in the process (large
    # under pytest), which would otherwise amplify the cost of the span
    # allocations into the on-side timings.
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        SimulationEngine(built.host, [controller]).run(ticks=ticks)
    finally:
        if was_enabled:
            gc.enable()
    return {"controller": controller, "times": period_times}


def _best_per_period(runs: List[List[float]]) -> List[float]:
    """Element-wise minimum across repeated runs of the same scenario.

    The simulation is deterministic per seed, so period ``i`` performs
    identical work in every repeat; the minimum over repeats is the
    noise-free cost of that period.
    """
    return [min(samples) for samples in zip(*runs)]


def measure(ticks: int, repeats: int) -> Dict[str, object]:
    """One on/off measurement: the report fields of a single run.

    ``repeats`` runs per configuration are interleaved; per period the
    best (minimum) sample across repeats is kept on each side, then the
    totals are compared — a paired estimator, since the deterministic
    scenario makes period ``i`` identical work in both configurations.
    Background hiccups on the host therefore cannot masquerade as
    telemetry overhead.
    """
    on_runs: List[List[float]] = []
    off_runs: List[List[float]] = []
    last_on = None
    for _ in range(repeats):
        off = timed_run(telemetry_enabled=False, ticks=ticks)
        on = timed_run(telemetry_enabled=True, ticks=ticks)
        off_runs.append(off["times"])
        on_runs.append(on["times"])
        last_on = on

    best_off = _best_per_period(off_runs)
    best_on = _best_per_period(on_runs)
    total_off = sum(best_off)
    total_on = sum(best_on)
    overhead_percent = (total_on - total_off) / total_off * 100.0

    telemetry = last_on["controller"].telemetry
    stages_us = {
        stage: round(s["mean"] * 1e6, 3)
        for stage, s in sorted(telemetry.stage_summary().items())
    }
    return {
        "bench": "perf_overhead",
        "ticks": ticks,
        "repeats": repeats,
        "telemetry_off_total_us": round(total_off * 1e6, 3),
        "telemetry_on_total_us": round(total_on * 1e6, 3),
        "telemetry_off_median_us": round(statistics.median(best_off) * 1e6, 3),
        "telemetry_on_median_us": round(statistics.median(best_on) * 1e6, 3),
        "overhead_percent": round(overhead_percent, 3),
        "threshold_percent": THRESHOLD_PERCENT,
        "stage_mean_us": stages_us,
        "spans_recorded": len(telemetry.tracer.spans),
        "periods": int(telemetry.counter("controller.periods").value),
    }


def run_experiment(
    out,
    ticks: int = DEFAULT_TICKS,
    repeats: int = DEFAULT_REPEATS,
    runs: int = 1,
) -> Dict[str, object]:
    """Measure on/off overhead and write the BENCH json; returns the report.

    ``runs`` whole measurements (:func:`measure`) are made back to back.
    One run of unchanged code reads anywhere from -5 to +15 % on a box
    that switches between two speeds, so the gated ``overhead_percent``
    is the *median* of the runs, every run's own reading is kept in
    ``overhead_percent_runs``, and the remaining fields are those of
    the run nearest the median.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    # Warmup: first-touch costs (allocator pools, numpy internals) must
    # not land on whichever configuration happens to run first.
    timed_run(telemetry_enabled=True, ticks=min(ticks, 120))

    measured = [measure(ticks, repeats) for _ in range(runs)]
    readings = [float(run["overhead_percent"]) for run in measured]
    median = statistics.median(readings)
    report = dict(min(measured, key=lambda run: abs(run["overhead_percent"] - median)))
    report.update(
        runs=runs,
        overhead_percent_runs=readings,
        overhead_percent=round(median, 3),
        passed=median < THRESHOLD_PERCENT,
    )
    report["out"] = write_report(report, out)
    return report


def _print_report(report: Dict[str, object]) -> None:
    print("Perf - controller overhead, telemetry on vs off")
    print(f"  periods timed             : {report['periods']} x {report['repeats']} runs")
    print(f"  median period cost (off)  : {report['telemetry_off_median_us']:9.1f} us")
    print(f"  median period cost (on)   : {report['telemetry_on_median_us']:9.1f} us")
    print(f"  telemetry overhead        : {report['overhead_percent']:+.2f}% "
          f"(budget {report['threshold_percent']}%)")
    if report["runs"] > 1:
        readings = " ".join(f"{value:+.2f}" for value in report["overhead_percent_runs"])
        print(f"    median of {report['runs']} runs        : {readings}")
    print(f"  spans recorded            : {report['spans_recorded']}")
    for stage, mean_us in report["stage_mean_us"].items():
        print(f"    {stage:24s} mean {mean_us:9.1f} us")
    print(f"  report written to {report['out']}")


def test_perf_overhead(benchmark, capsys, tmp_path):
    report = benchmark.pedantic(
        run_experiment, args=(tmp_path / "BENCH_perf_overhead.json",), rounds=1, iterations=1
    )
    with capsys.disabled():
        print()
        _print_report(report)
    assert Path(report["out"]).exists()
    # Telemetry on vs off must stay within the 5% period-cost budget.
    assert report["overhead_percent"] < THRESHOLD_PERCENT, (
        f"telemetry overhead {report['overhead_percent']:.2f}% "
        f"exceeds the {THRESHOLD_PERCENT}% budget"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure controller self-overhead with telemetry on vs off"
    )
    parser.add_argument("--ticks", type=int, default=DEFAULT_TICKS,
                        help="run length in ticks per measurement")
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                        help="interleaved runs per configuration (best kept)")
    parser.add_argument("--runs", type=int, default=1,
                        help="whole on/off measurements; the gate reads their median")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    parser.add_argument("--threshold", type=float, default=THRESHOLD_PERCENT,
                        help="fail above this overhead percentage")
    args = parser.parse_args(argv)
    report = run_experiment(
        args.out, ticks=args.ticks, repeats=args.repeats, runs=args.runs
    )
    _print_report(report)
    if report["overhead_percent"] >= args.threshold:
        print(f"FAIL: overhead above {args.threshold}%")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
