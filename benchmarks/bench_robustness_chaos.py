"""Robustness — chaos mixes: protection layers on vs off, identical faults.

Not a paper figure: this bench guards the robustness layers. Two
campaigns, each replaying an identical seeded fault script against two
otherwise-identical Stay-Away controllers:

* **Environment chaos** (PR-1 resilience layer): sensor corruption,
  QoS-report dropout, flapping batch containers, lossy actuators,
  demand spikes — resilience (sensor guard + degraded modes +
  reconciliation) on vs off. The unguarded controller typically dies on
  the first NaN measurement.
* **Recovery drill** (fault containment): controller-internal faults —
  stages raising on schedule (:class:`StageExceptionInjector`) and
  silent model poisoning (:class:`ModelPoisoner`) — containment
  (exception firewall + model-health watchdog) on vs off, plus a
  ``no-watchdog`` arm (the firewall alone) that shows what the watchdog
  buys. The uncontained controller crashes on the first stage
  exception; the contained one must survive the whole run, catch every
  injected stage fault, heal every histogram poison with a mode reset,
  keep its bookkeeping consistent and sustain a strictly lower
  sensitive-app QoS violation ratio. Results land in
  ``BENCH_fault_containment.json``.

``python -m benchmarks.bench_robustness_chaos`` runs the recovery drill
standalone (the CI chaos-smoke step uses a fast profile).
"""

import argparse
from pathlib import Path
from typing import Dict

from benchmarks.helpers import STANDARD_TICKS, banner, write_report
from repro.experiments.chaos import (
    ChaosMix,
    ContainmentMix,
    run_chaos_comparison,
    run_recovery_comparison,
)
from repro.experiments.scenarios import Scenario

DEFAULT_OUT = Path(__file__).resolve().parents[1] / "BENCH_fault_containment.json"


def run_experiment():
    scenario = Scenario(
        sensitive="vlc-streaming",
        batches=("cpubomb",),
        ticks=STANDARD_TICKS,
        seed=1,
    )
    mix = ChaosMix(seed=5, spike_windows=((500, 560), (900, 960)))
    return run_chaos_comparison(scenario, mix=mix)


def test_robustness_chaos(benchmark, capsys):
    comparison = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    resilient = comparison.arms["resilient"]
    unguarded = comparison.arms["unguarded"]
    faults = {name: arm.summary()["faults"] for name, arm in comparison.arms.items()}

    with capsys.disabled():
        print(banner("Robustness - chaos mix, resilience on vs off"))
        print(
            f"faults injected: {faults['resilient']['total']} (resilient run), "
            f"{faults['unguarded']['total']} (unguarded run)"
        )
        for label, result in (("resilient", resilient), ("unguarded", unguarded)):
            crashed = (
                "survived"
                if result.crashed_at is None
                else f"CRASHED at tick {result.crashed_at}"
            )
            print(
                f"  {label:9s} violation ratio {result.violation_ratio():.3f}  "
                f"{crashed}  invariant breaches {len(result.checker.breaches)}"
            )
        guard = resilient.controller.guard
        if guard is not None:
            print(f"  sensor guard: {guard.summary()}")
        print(
            f"  reconciliation: {resilient.controller.throttle.reconcile_repauses} "
            f"re-pauses, {resilient.controller.throttle.failed_actions} failed "
            f"actions, {resilient.controller.throttle.escalations} escalations"
        )

    # The acceptance bar: the resilient controller must strictly beat
    # the unguarded one under the identical seeded fault script.
    assert resilient.violation_ratio() < unguarded.violation_ratio()
    # And survive the whole run with consistent bookkeeping.
    assert resilient.crashed_at is None
    assert resilient.checker.ok, resilient.checker.summary()
    # The faults actually fired (the comparison is not vacuous).
    assert faults["resilient"]["total"] > 50
    assert faults["resilient"]["sensor_corruptions"] > 0
    assert faults["resilient"]["qos_reports_dropped"] > 0
    assert faults["resilient"]["actuator_drops"] > 0
    # The guard did real work: rejections were detected and imputed.
    guard_summary = resilient.controller.guard.summary()
    assert guard_summary["rejected"] > 0
    assert guard_summary["imputed"] > 0


# ---------------------------------------------------------------------------
# Recovery drill: fault containment on vs off
# ---------------------------------------------------------------------------

def run_recovery_experiment(out, ticks: int = STANDARD_TICKS) -> Dict[str, object]:
    """Run the containment recovery drill and write the BENCH json.

    The fault script mixes a scripted 60-period mapping-stage outage
    with probabilistic stage exceptions and model poisonings, all pure
    functions of (seed, tick) so both policy variants face identical
    faults.
    """
    scenario = Scenario(
        sensitive="vlc-streaming",
        batches=("cpubomb",),
        ticks=ticks,
        seed=1,
    )
    outage = (ticks // 4, ticks // 4 + 60, "map")
    mix = ContainmentMix(
        seed=7,
        stage_fault=0.03,
        stages=("map", "predict"),
        fault_windows=(outage,),
        poison=0.03,
    )
    comparison = run_recovery_comparison(scenario, mix=mix)
    contained = comparison.arms["contained"].summary()
    blind = comparison.arms["no-watchdog"].summary()
    uncontained = comparison.arms["uncontained"].summary()
    report = {
        "bench": "fault_containment",
        "ticks": ticks,
        "mix": {
            "seed": mix.seed,
            "stage_fault": mix.stage_fault,
            "stages": list(mix.stages),
            "fault_windows": [list(window) for window in mix.fault_windows],
            "poison": mix.poison,
        },
        "contained": {
            "violation_ratio": contained["violation_ratio"],
            "batch_work": contained["batch_work"],
            "crashed_at": contained["crashed_at"],
            "faults": contained["faults"],
            "containment": contained["containment"],
            "invariants": contained["invariants"],
        },
        "no-watchdog": {
            "violation_ratio": blind["violation_ratio"],
            "batch_work": blind["batch_work"],
            "crashed_at": blind["crashed_at"],
            "invariants": blind["invariants"],
        },
        "uncontained": {
            "violation_ratio": uncontained["violation_ratio"],
            "batch_work": uncontained["batch_work"],
            "crashed_at": uncontained["crashed_at"],
            "crash": uncontained["crash"],
            "faults": uncontained["faults"],
        },
        "improvement": comparison.improvement,
        "passed": (
            contained["crashed_at"] is None
            and contained["invariants"]["breaches"] == 0
            and comparison.improvement > 0
        ),
    }
    report["out"] = write_report(report, out)
    report["comparison"] = comparison
    return report


def _print_recovery_report(report: Dict[str, object]) -> None:
    contained = report["contained"]
    uncontained = report["uncontained"]
    print(banner("Robustness - recovery drill, fault containment on vs off"))
    print(
        f"faults injected: {contained['faults']['total']} (contained run), "
        f"{uncontained['faults']['total']} (uncontained run)"
    )
    for label in ("contained", "no-watchdog", "uncontained"):
        side = report[label]
        crashed = (
            "survived"
            if side["crashed_at"] is None
            else f"CRASHED at tick {side['crashed_at']}"
        )
        breaches = side.get("invariants", {}).get("breaches")
        print(
            f"  {label:11s} violation ratio {side['violation_ratio']:.3f}  "
            f"batch work {side['batch_work']:7.1f}  {crashed}"
            + ("" if breaches is None else f"  invariant breaches {breaches}")
        )
    crash = uncontained.get("crash")
    if crash is not None:
        print(f"  uncontained crash: {crash['error_type']} ({crash['fault']}) at {crash['trace']}")
    containment = contained["containment"]
    print(
        f"  firewall catches: {containment['firewall_catches']} of "
        f"{contained['faults']['stage_faults']} injected stage faults"
    )
    print(f"  watchdog: {containment['watchdog']}")
    print(f"  invariant breaches: {contained['invariants']['breaches']}")
    print(f"  improvement: {report['improvement']:+.3f} violation ratio")
    print(f"  report written to {report['out']}")


def test_recovery_drill(benchmark, capsys, tmp_path):
    report = benchmark.pedantic(
        run_recovery_experiment,
        args=(tmp_path / "BENCH_fault_containment.json",),
        rounds=1,
        iterations=1,
    )
    contained = report["comparison"].arms["contained"]
    uncontained = report["comparison"].arms["uncontained"]

    with capsys.disabled():
        print()
        _print_recovery_report(report)

    # A mid-run stage crash must never terminate the contained run...
    assert contained.crashed_at is None
    # ...while the identical script kills the uncontained controller.
    assert uncontained.crashed_at is not None
    assert uncontained.crash.fault is not None
    # Containment sustains a strictly lower QoS violation ratio.
    assert contained.violation_ratio() < uncontained.violation_ratio()
    # The faults actually fired (the comparison is not vacuous) and the
    # firewall caught every injected stage fault.
    assert len(contained.injector.fired) > 10
    assert len(contained.poisoner.fired) > 0
    summary = contained.summary()
    assert summary["containment"]["firewall_catches"] == len(contained.injector.fired)
    # The watchdog found and healed real poisonings: every NaN written
    # into a step histogram was cleared by one mode reset.
    watchdog = contained.controller.watchdog.summary()
    assert watchdog["violations"] > 0
    assert watchdog["quarantines"] + watchdog["mode_resets"] > 0
    histogram_poisons = [
        event for event in contained.poisoner.fired
        if event.kind == "poison-nan-histogram"
    ]
    assert watchdog["mode_resets"] == len(histogram_poisons)
    # Contained bookkeeping stayed consistent throughout.
    assert contained.checker.ok, contained.checker.summary()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Recovery drill: fault containment on vs off, identical faults"
    )
    parser.add_argument("--ticks", type=int, default=STANDARD_TICKS,
                        help="run length in ticks per policy variant")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    args = parser.parse_args(argv)
    report = run_recovery_experiment(args.out, ticks=args.ticks)
    _print_recovery_report(report)
    if not report["passed"]:
        print(
            "FAIL: the contained run crashed, breached an invariant or did "
            "not beat the uncontained baseline"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
