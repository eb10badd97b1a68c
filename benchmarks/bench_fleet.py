"""Fleet control plane under host-failure chaos, three arms compared.

Not a paper figure: the paper stops at one controller on one host
(§2.1 positions Stay-Away as complementary to cluster schedulers).
This bench drives the fleet coordinator at N ≥ 100 hosts through a
seeded host-crash + telemetry-blackout script and compares three arms
under the identical fault sequence:

* **coordinator** — per-host controllers in isolation cells, plus
  interference-scored supervised migration of batch work to spare
  hosts;
* **per-host** — the identical controllers, migration disabled (the
  paper's world, replicated N times);
* **none** — no prevention at all.

The gates, named in :func:`run_fleet_experiment`: the host-crash
script fired identically in every arm; the coordinator stays
crash-free end to end and commits migrations; its fleet-wide QoS
violation ratio is strictly better than the per-host-only arm's, which
is strictly better than no prevention; and no injected host crash
leaves a migration stuck ``in-flight`` in any arm (every record
terminates ``landed`` / ``bounced`` / ``lost``). Throughput (hosts ×
ticks / second, wall clock) rides along — timing lives here because
SA101 bans wall-clock reads inside ``src/repro``. Results land in
``BENCH_fleet.json``.

``python -m benchmarks.bench_fleet`` runs it standalone; the CI step
uses ``--hosts 24 --ticks 200``.
"""

import time
from pathlib import Path
from typing import Dict

from benchmarks.helpers import banner, enforce_gates, gate_main, write_report
from repro.core.config import StayAwayConfig
from repro.experiments.chaos import FleetMix, run_fleet_comparison

DEFAULT_OUT = Path(__file__).resolve().parents[1] / "BENCH_fleet.json"
DEFAULT_HOSTS = 120
DEFAULT_TICKS = 240


def run_fleet_experiment(
    out, hosts: int = DEFAULT_HOSTS, ticks: int = DEFAULT_TICKS
) -> Dict[str, object]:
    """Run the three-arm fleet drill, gate it and write the BENCH json."""
    mix = FleetMix(
        hosts=hosts,
        ticks=ticks,
        drain_ticks=max(40, ticks // 3),
        seed=3,
        host_crash=0.0025,
        recovery_ticks=30,
        max_down_fraction=0.3,
        blackout=0.01,
    )
    config = StayAwayConfig(telemetry=False)
    t0 = time.perf_counter()
    comparison = run_fleet_comparison(mix, config=config)
    elapsed = time.perf_counter() - t0
    total_ticks = 3 * (mix.ticks + mix.drain_ticks)
    host_ticks_per_s = hosts * total_ticks / elapsed if elapsed > 0 else 0.0

    arms = comparison.arms
    coordinator = arms["coordinator"]
    crash_counts = {arm.crash_injector.summary()["crashes"] for arm in arms.values()}
    gates = {
        "coordinator_crash_free": coordinator.crashed_at is None,
        "chaos_fired_identically": len(crash_counts) == 1 and min(crash_counts) > 0,
        "coordinator_beats_per_host": (
            coordinator.violation_ratio() < arms["per_host"].violation_ratio()
        ),
        "per_host_beats_none": (
            arms["per_host"].violation_ratio() < arms["none"].violation_ratio()
        ),
        "no_orphaned_migrations": all(
            not arm.orphaned_migrations() for arm in arms.values()
        ),
        "migrations_committed": (
            coordinator.coordinator.supervisor.summary()["committed"] > 0
        ),
    }
    report: Dict[str, object] = {
        "bench": "fleet",
        "hosts": hosts,
        "ticks": mix.ticks,
        "drain_ticks": mix.drain_ticks,
        "mix": {
            "seed": mix.seed,
            "host_crash": mix.host_crash,
            "recovery_ticks": mix.recovery_ticks,
            "max_down_fraction": mix.max_down_fraction,
            "blackout": mix.blackout,
        },
        "arms": {name: result.summary() for name, result in arms.items()},
        "improvement": comparison.improvement,
        "throughput": {
            "elapsed_seconds": elapsed,
            "host_ticks_per_second": host_ticks_per_s,
        },
    }
    return write_report(report, gates, out)


def _print_fleet_report(report: Dict[str, object]) -> None:
    arms = report["arms"]
    print(banner("Fleet control plane - host-failure chaos, three arms"))
    crashes = arms["coordinator"]["crashes"]
    print(
        f"fleet: {report['hosts']} hosts, {report['ticks']}+{report['drain_ticks']} "
        f"ticks, {crashes['crashes']} host crashes / {crashes['recoveries']} "
        "recoveries per arm (identical script)"
    )
    for name in ("coordinator", "per_host", "none"):
        arm = arms[name]
        crashed = (
            "crash-free"
            if arm["crashed_at"] is None
            else f"COORDINATOR CRASHED at tick {arm['crashed_at']}"
        )
        line = (
            f"  {name:12s} violation ratio {arm['violation_ratio']:.4f}  "
            f"batch work {arm['batch_work']:7.1f}  "
            f"{crashed}  orphaned migrations {arm['orphaned_migrations']}"
        )
        if "fleet" in arm:
            migs = arm["fleet"]["migrations"]
            line += (
                f"  [migrations: {migs.get('committed', 0)} committed, "
                f"{migs.get('rolled_back', 0)} rolled back, "
                f"{migs.get('lost', 0)} lost, {migs.get('retries', 0)} retries]"
            )
        print(line)
    coord = arms["coordinator"]["fleet"]
    print(
        f"  controllers: {coord['controllers']['cells']} cells, "
        f"{len(coord['controllers']['degraded'])} degraded, "
        f"{coord['controllers']['crashes']} contained crashes"
    )
    throughput = report["throughput"]
    print(
        f"  throughput: {throughput['host_ticks_per_second']:,.0f} host-ticks/s "
        f"({throughput['elapsed_seconds']:.1f}s wall for all three arms)"
    )
    print(f"  improvement: {report['improvement']:+.4f} violation ratio vs per-host")
    print(f"  gates: {report['gates']}")
    print(f"  report written to {report['out']}")


def test_fleet_chaos(capsys, tmp_path):
    report = run_fleet_experiment(tmp_path / "BENCH_fleet.json", hosts=24, ticks=200)
    with capsys.disabled():
        print()
        _print_fleet_report(report)
    enforce_gates(report)


def main(argv=None) -> int:
    return gate_main(
        argv, run_fleet_experiment, _print_fleet_report, DEFAULT_OUT,
        hosts=dict(type=int, default=DEFAULT_HOSTS,
                   help=f"fleet size (default {DEFAULT_HOSTS})"),
        ticks=dict(type=int, default=DEFAULT_TICKS,
                   help=f"chaos-phase ticks per arm (default {DEFAULT_TICKS})"),
    )


if __name__ == "__main__":
    raise SystemExit(main())
