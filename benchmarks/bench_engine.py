"""Struct-of-arrays engine throughput vs the scalar reference.

Not a paper figure: this bench certifies the simulation substrate
itself. It sweeps fleet sizes on the standard scenario suite (four
workload archetypes, pause/resume/migration/fault events) and, for
each size, runs the scalar object-graph engine and the batched
:class:`~repro.sim.batch.BatchEngine` over the *same* scenario:

* **equivalence first** — the per-tick ``(T, C)`` progress trajectory
  of the batched run must be bit-identical (``np.array_equal``, no
  tolerance) to the scalar run before its timing counts for anything;
* **then speed** — ticks/second for each engine, and the speedup at
  the largest size must clear ``MIN_SPEEDUP`` (x10).

Timing lives here because SA101 bans wall-clock reads inside
``src/repro``. Results land in ``BENCH_engine.json``.

``python -m benchmarks.bench_engine`` runs it standalone; CI uses
``--ticks 120 --quick``.
"""

import argparse
import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from benchmarks.helpers import banner
from repro.sim.batch import run_scenario, standard_scenario

DEFAULT_OUT = Path(__file__).resolve().parents[1] / "BENCH_engine.json"
DEFAULT_TICKS = 240
MIN_SPEEDUP = 10.0

# (hosts, containers_per_host) — 24 to 384 containers.
SWEEP: List[Tuple[int, int]] = [(2, 12), (4, 12), (8, 12), (16, 24)]
QUICK_SWEEP: List[Tuple[int, int]] = [(2, 12), (8, 12)]


def _time_engine(scenario, ticks: int, engine: str) -> Tuple[float, object]:
    t0 = time.perf_counter()
    result = run_scenario(scenario, ticks, engine)
    elapsed = time.perf_counter() - t0
    return ticks / elapsed if elapsed > 0 else 0.0, result


def run_engine_sweep(
    ticks: int = DEFAULT_TICKS,
    sweep: Optional[List[Tuple[int, int]]] = None,
    out: Optional[str] = None,
) -> Dict[str, object]:
    """Sweep fleet sizes, assert scalar/batch equivalence, time both."""
    sweep = sweep if sweep is not None else SWEEP
    rows: List[Dict[str, object]] = []
    for hosts, per_host in sweep:
        scenario = standard_scenario(
            hosts=hosts, containers_per_host=per_host, seed=7
        )
        containers = len(scenario.containers)

        scalar_tps, scalar_result = _time_engine(scenario, ticks, "scalar")
        batch_tps, batch_result = _time_engine(scenario, ticks, "batch")

        # The equivalence contract gates the speedup claim: a fast
        # engine that diverges from the reference measures nothing.
        equivalent = (
            np.array_equal(batch_result.trajectory, scalar_result.trajectory)
            and np.array_equal(batch_result.work_done, scalar_result.work_done)
            and batch_result.states == scalar_result.states
        )
        assert equivalent, (
            f"engine divergence at {containers} containers: batched trajectories "
            "are not bit-identical to the scalar reference"
        )

        rows.append(
            {
                "hosts": hosts,
                "containers": containers,
                "scalar_ticks_per_second": scalar_tps,
                "batch_ticks_per_second": batch_tps,
                "speedup_batch_vs_scalar": batch_tps / scalar_tps,
                "equivalent": True,
            }
        )

    top = rows[-1]
    report: Dict[str, object] = {
        "bench": "engine",
        "ticks": ticks,
        "min_speedup_required": MIN_SPEEDUP,
        "sweep": rows,
        "peak_speedup": max(r["speedup_batch_vs_scalar"] for r in rows),
        "passed": (
            all(r["equivalent"] for r in rows)
            and top["speedup_batch_vs_scalar"] >= MIN_SPEEDUP
        ),
    }
    out_path = Path(out) if out is not None else DEFAULT_OUT
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    report["out"] = str(out_path)
    return report


def _print_engine_report(report: Dict[str, object]) -> None:
    print(banner("Batched SoA engine vs scalar reference"))
    print(
        f"standard scenario suite, {report['ticks']} ticks per run, "
        "bit-identical trajectories required"
    )
    header = (
        f"  {'containers':>10s} {'scalar t/s':>11s} "
        f"{'batch t/s':>11s} {'speedup':>8s}"
    )
    print(header)
    for row in report["sweep"]:
        print(
            f"  {row['containers']:>10d} {row['scalar_ticks_per_second']:>11.1f} "
            f"{row['batch_ticks_per_second']:>11.1f} "
            f"{row['speedup_batch_vs_scalar']:>7.1f}x"
        )
    print(
        f"  peak speedup {report['peak_speedup']:.1f}x "
        f"(gate: >= {report['min_speedup_required']:.0f}x at the largest size)"
    )
    print(f"  report written to {report.get('out', DEFAULT_OUT)}")


def test_engine_speedup(benchmark, capsys):
    report = benchmark.pedantic(
        lambda: run_engine_sweep(ticks=160), rounds=1, iterations=1
    )
    with capsys.disabled():
        print()
        _print_engine_report(report)

    # Every size stayed bit-identical to the scalar reference.
    assert all(row["equivalent"] for row in report["sweep"])
    # The batched engine clears the x10 bar at the largest size.
    assert report["sweep"][-1]["speedup_batch_vs_scalar"] >= MIN_SPEEDUP
    assert report["passed"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="SoA engine speedup sweep with in-bench equivalence gate"
    )
    parser.add_argument("--ticks", type=int, default=DEFAULT_TICKS,
                        help=f"ticks per timed run (default {DEFAULT_TICKS})")
    parser.add_argument("--quick", action="store_true",
                        help="smaller sweep for CI smoke runs")
    parser.add_argument("--out", default=None,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    args = parser.parse_args(argv)
    report = run_engine_sweep(
        ticks=args.ticks,
        sweep=QUICK_SWEEP if args.quick else SWEEP,
        out=args.out,
    )
    _print_engine_report(report)
    if not report["passed"]:
        print(f"FAIL: batched engine did not clear {MIN_SPEEDUP:.0f}x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
