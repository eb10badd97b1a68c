"""Robustness — chaos mixes: protection layers on vs off, identical faults.

Not a paper figure: this bench guards the robustness layers. Two
campaigns, each replaying an identical seeded fault script against
otherwise-identical Stay-Away controllers:

* **Environment chaos** (resilience layer): sensor corruption,
  QoS-report dropout, flapping batch containers, lossy actuators,
  demand spikes — resilience (sensor guard + degraded modes +
  reconciliation) on vs off. The unguarded controller typically dies on
  the first NaN measurement; the resilient one must survive with
  consistent bookkeeping, a strictly lower violation ratio and a guard
  that rejected and imputed real samples.
* **Recovery drill** (fault containment): controller-internal faults —
  stages raising on schedule (:class:`StageExceptionInjector`) and
  silent model poisoning (:class:`ModelPoisoner`) — containment
  (exception firewall + model-health watchdog) on vs off, plus a
  ``no-watchdog`` arm (the firewall alone) that shows what the watchdog
  buys. The uncontained controller crashes on the first stage
  exception; the contained one must survive the whole run, catch every
  injected stage fault, heal every histogram poison with a mode reset,
  keep its bookkeeping consistent and sustain a strictly lower
  sensitive-app QoS violation ratio.

Every check is one named gate of :func:`run_experiment`; both
campaigns land in ``BENCH_fault_containment.json``.
``python -m benchmarks.bench_robustness_chaos`` runs them standalone.
"""

from pathlib import Path
from typing import Dict

from benchmarks.helpers import (
    STANDARD_TICKS,
    banner,
    enforce_gates,
    gate_main,
    write_report,
)
from repro.experiments.chaos import (
    ChaosMix,
    ContainmentMix,
    run_chaos_comparison,
    run_recovery_comparison,
)
from repro.experiments.scenarios import Scenario

DEFAULT_OUT = Path(__file__).resolve().parents[1] / "BENCH_fault_containment.json"


def run_experiment(out, ticks: int = STANDARD_TICKS) -> Dict[str, object]:
    """Run both campaigns, gate them and write the BENCH json.

    Each fault script is a pure function of (seed, tick), so every arm
    of a campaign faces identical faults. The recovery script mixes a
    scripted 60-period mapping-stage outage with probabilistic stage
    exceptions and model poisonings.
    """
    scenario = Scenario(
        sensitive="vlc-streaming", batches=("cpubomb",), ticks=ticks, seed=1
    )
    chaos_mix = ChaosMix(seed=5, spike_windows=((500, 560), (900, 960)))
    chaos = run_chaos_comparison(scenario, mix=chaos_mix)
    resilient = chaos.arms["resilient"]
    unguarded = chaos.arms["unguarded"]
    env_faults = resilient.summary()["faults"]
    guard_summary = resilient.controller.guard.summary()
    throttle = resilient.controller.throttle

    outage = (ticks // 4, ticks // 4 + 60, "map")
    mix = ContainmentMix(
        seed=7,
        stage_fault=0.03,
        stages=("map", "predict"),
        fault_windows=(outage,),
        poison=0.03,
    )
    comparison = run_recovery_comparison(scenario, mix=mix)
    contained_arm = comparison.arms["contained"]
    uncontained_arm = comparison.arms["uncontained"]
    contained = contained_arm.summary()
    blind = comparison.arms["no-watchdog"].summary()
    uncontained = uncontained_arm.summary()
    watchdog = contained_arm.controller.watchdog.summary()
    histogram_poisons = [
        event for event in contained_arm.poisoner.fired
        if event.kind == "poison-nan-histogram"
    ]

    gates = {
        "env_resilient_beats_unguarded": (
            resilient.violation_ratio() < unguarded.violation_ratio()
        ),
        "env_resilient_survived": resilient.crashed_at is None,
        "env_invariants_held": resilient.checker.ok,
        "env_faults_fired": env_faults["total"] > 50,
        "env_sensors_corrupted": env_faults["sensor_corruptions"] > 0,
        "env_qos_reports_dropped": env_faults["qos_reports_dropped"] > 0,
        "env_actuator_signals_lost": env_faults["actuator_drops"] > 0,
        "env_guard_rejected": guard_summary["rejected"] > 0,
        "env_guard_imputed": guard_summary["imputed"] > 0,
        "recovery_contained_survived": contained_arm.crashed_at is None,
        "recovery_uncontained_crashed_on_a_fault": (
            uncontained_arm.crashed_at is not None
            and uncontained_arm.crash.fault is not None
        ),
        "recovery_contained_beats_uncontained": (
            contained_arm.violation_ratio() < uncontained_arm.violation_ratio()
        ),
        "recovery_stage_faults_fired": len(contained_arm.injector.fired) > 10,
        "recovery_models_poisoned": len(contained_arm.poisoner.fired) > 0,
        "recovery_firewall_caught_every_stage_fault": (
            contained["containment"]["firewall_catches"]
            == len(contained_arm.injector.fired)
        ),
        "recovery_watchdog_found_violations": watchdog["violations"] > 0,
        "recovery_watchdog_healed": (
            watchdog["quarantines"] + watchdog["mode_resets"] > 0
        ),
        "recovery_every_histogram_poison_reset": (
            watchdog["mode_resets"] == len(histogram_poisons)
        ),
        "recovery_invariants_held": contained_arm.checker.ok,
    }
    report = {
        "bench": "fault_containment",
        "ticks": ticks,
        "environment_chaos": {
            "mix": {
                "seed": chaos_mix.seed,
                "spike_windows": [list(window) for window in chaos_mix.spike_windows],
            },
            "resilient": {
                "violation_ratio": resilient.violation_ratio(),
                "crashed_at": resilient.crashed_at,
                "faults": env_faults,
                "invariants": resilient.checker.summary(),
                "guard": guard_summary,
                "reconciliation": {
                    "repauses": throttle.reconcile_repauses,
                    "failed_actions": throttle.failed_actions,
                    "escalations": throttle.escalations,
                },
            },
            "unguarded": {
                "violation_ratio": unguarded.violation_ratio(),
                "crashed_at": unguarded.crashed_at,
                "faults": unguarded.summary()["faults"],
                "invariants": unguarded.checker.summary(),
            },
            "improvement": chaos.improvement,
        },
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
    }
    return write_report(report, gates, out)


def _crash_note(crashed_at) -> str:
    return "survived" if crashed_at is None else f"CRASHED at tick {crashed_at}"


def _print_report(report: Dict[str, object]) -> None:
    env = report["environment_chaos"]
    print(banner("Robustness - chaos mix, resilience on vs off"))
    print(
        f"faults injected: {env['resilient']['faults']['total']} (resilient run), "
        f"{env['unguarded']['faults']['total']} (unguarded run)"
    )
    for label in ("resilient", "unguarded"):
        side = env[label]
        print(
            f"  {label:9s} violation ratio {side['violation_ratio']:.3f}  "
            f"{_crash_note(side['crashed_at'])}  "
            f"invariant breaches {side['invariants']['breaches']}"
        )
    print(f"  sensor guard: {env['resilient']['guard']}")
    reconciliation = env["resilient"]["reconciliation"]
    print(
        f"  reconciliation: {reconciliation['repauses']} re-pauses, "
        f"{reconciliation['failed_actions']} failed actions, "
        f"{reconciliation['escalations']} escalations"
    )

    contained = report["contained"]
    uncontained = report["uncontained"]
    print(banner("Robustness - recovery drill, fault containment on vs off"))
    print(
        f"faults injected: {contained['faults']['total']} (contained run), "
        f"{uncontained['faults']['total']} (uncontained run)"
    )
    for label in ("contained", "no-watchdog", "uncontained"):
        side = report[label]
        breaches = side.get("invariants", {}).get("breaches")
        print(
            f"  {label:11s} violation ratio {side['violation_ratio']:.3f}  "
            f"batch work {side['batch_work']:7.1f}  {_crash_note(side['crashed_at'])}"
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
    print(f"  gates: {report['gates']}")
    print(f"  report written to {report['out']}")


def test_fault_containment(capsys, tmp_path):
    report = run_experiment(tmp_path / "BENCH_fault_containment.json")
    with capsys.disabled():
        print()
        _print_report(report)
    enforce_gates(report)


def main(argv=None) -> int:
    return gate_main(
        argv, run_experiment, _print_report, DEFAULT_OUT,
        ticks=dict(type=int, default=STANDARD_TICKS,
                   help="run length in ticks per arm of both campaigns"),
    )


if __name__ == "__main__":
    raise SystemExit(main())
