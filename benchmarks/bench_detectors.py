"""Detector head-to-head: geometry vs GMM thresholds vs hybrid vote.

Not a paper figure: this bench guards the detector comparison the
head-to-head study (:mod:`repro.experiments.headtohead`) was built for.
For every scenario in the standard suite it runs each detector arm in
shadow mode (alarms recorded, no actuation) and scores the alarm
stream against the violation episodes that actually unfolded —
precision, recall, false-positive rate, lead-time in ticks — then runs
the same arm actuated and records its QoS-violation ratio.

Acceptance gates, written into ``BENCH_detectors.json``:

* the hybrid vote's violation ratio is no worse than geometry-only's
  on **every** scenario (the GMM vote may only add protection, never
  cost it under the default OR rule);
* the GMM detector is bit-reproducible: two identical-seed shadow runs
  produce identical alarm ticks and identical fitted thresholds.

``python -m benchmarks.bench_detectors`` runs the full suite;
``--quick`` is the CI smoke profile (two scenarios, short runs).
"""

import argparse
import math
from pathlib import Path
from typing import Dict, List, Optional

from benchmarks.helpers import STANDARD_TICKS, banner, write_report
from repro.experiments.headtohead import (
    DETECTOR_ARMS,
    quick_suite,
    run_study,
    standard_suite,
    study_table,
)
from repro.experiments.runner import run_gmm
from repro.experiments.scenarios import Scenario
from repro.core.config import StayAwayConfig

DEFAULT_OUT = Path(__file__).resolve().parents[1] / "BENCH_detectors.json"


def _clean(value: float) -> Optional[float]:
    """JSON-safe float (None for NaN, which json would emit as bare NaN)."""
    if value != value:
        return None
    return float(value)


def check_gmm_reproducibility(ticks: int = 400, seed: int = 3) -> Dict[str, object]:
    """Two identical-seed shadow runs must match bit for bit."""
    def one_run():
        scenario = Scenario(
            sensitive="vlc-streaming", batches=("twitter-analysis",),
            ticks=ticks, seed=seed,
        )
        config = StayAwayConfig(enabled=False)
        return run_gmm(scenario, config=config).gmm

    first, second = one_run(), one_run()
    alarms_match = first.alarm_ticks == second.alarm_ticks
    thresholds_match = first.model.thresholds() == second.model.thresholds()
    return {
        "ticks": ticks,
        "seed": seed,
        "alarms": len(first.alarm_ticks),
        "fitted_thresholds": len(first.model.thresholds()),
        "alarms_match": alarms_match,
        "thresholds_match": thresholds_match,
        "passed": alarms_match and thresholds_match,
    }


def run_experiment(
    out, ticks: int = STANDARD_TICKS, quick: bool = False
) -> Dict[str, object]:
    """Run the study, check the gates, write the BENCH json."""
    suite = quick_suite(ticks=ticks) if quick else standard_suite(ticks=ticks)
    results = run_study(suite=suite)

    rows: List[Dict[str, object]] = []
    gate_failures: List[str] = []
    for result in results:
        for arm in DETECTOR_ARMS:
            arm_result = result.arms[arm]
            card = arm_result.scorecard
            rows.append({
                "scenario": result.label,
                "detector": arm,
                "alarms": card.alarms,
                "episodes": card.episodes,
                "true_positives": card.true_positives,
                "false_positives": card.false_positives,
                "detected_episodes": card.detected_episodes,
                "precision": _clean(card.precision),
                "recall": _clean(card.recall),
                "false_positive_rate": _clean(card.false_positive_rate),
                "mean_lead_time": _clean(card.mean_lead_time),
                "violation_ratio": arm_result.violation_ratio,
                "throttles": arm_result.throttles,
            })
        if not result.hybrid_no_worse():
            gate_failures.append(result.label)

    reproducibility = check_gmm_reproducibility(ticks=min(ticks, 400))
    report = {
        "bench": "detectors",
        "ticks": ticks,
        "quick": quick,
        "scenarios": [result.label for result in results],
        "arms": list(DETECTOR_ARMS),
        "rows": rows,
        "hybrid_no_worse_failures": gate_failures,
        "gmm_reproducibility": reproducibility,
        "passed": not gate_failures and reproducibility["passed"],
    }
    report["out"] = write_report(report, out)
    report["results"] = results
    return report


def _print_report(report: Dict[str, object]) -> None:
    print(banner("Detector head-to-head - geometry vs GMM thresholds vs hybrid"))
    print(study_table(report["results"]))
    repro_check = report["gmm_reproducibility"]
    print(
        f"\nGMM reproducibility ({repro_check['ticks']} ticks, "
        f"seed {repro_check['seed']}): {repro_check['alarms']} alarms, "
        f"{repro_check['fitted_thresholds']} fitted thresholds -> "
        f"{'identical' if repro_check['passed'] else 'MISMATCH'}"
    )
    failures = report["hybrid_no_worse_failures"]
    if failures:
        print(f"hybrid worse than geometry on: {', '.join(failures)}")
    else:
        print("hybrid violation ratio no worse than geometry on every scenario")
    print(f"report written to {report['out']}")


def test_detector_headtohead(benchmark, capsys, tmp_path):
    report = benchmark.pedantic(
        lambda: run_experiment(tmp_path / "BENCH_detectors.json", ticks=400, quick=True),
        rounds=1,
        iterations=1,
    )

    with capsys.disabled():
        print()
        _print_report(report)

    # The hybrid vote never costs QoS relative to geometry-only.
    assert not report["hybrid_no_worse_failures"]
    # The GMM detector is deterministic given a seed.
    assert report["gmm_reproducibility"]["passed"]
    # Every arm produced a scorecard on every scenario.
    assert len(report["rows"]) == len(report["scenarios"]) * len(DETECTOR_ARMS)
    # Scores are well-formed: rates in [0, 1] wherever they are defined.
    for row in report["rows"]:
        for key in ("precision", "recall"):
            if row[key] is not None:
                assert 0.0 <= row[key] <= 1.0, (row["scenario"], row["detector"], key)
        assert row["false_positive_rate"] is None or row["false_positive_rate"] >= 0.0
        assert not math.isnan(row["violation_ratio"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Detector head-to-head: geometry vs GMM thresholds vs hybrid"
    )
    parser.add_argument("--ticks", type=int, default=None,
                        help="run length in ticks per arm (default 1200, quick 400)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke profile: two scenarios, short runs")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    args = parser.parse_args(argv)
    ticks = args.ticks if args.ticks is not None else (400 if args.quick else STANDARD_TICKS)
    report = run_experiment(args.out, ticks=ticks, quick=args.quick)
    _print_report(report)
    if not report["passed"]:
        print("FAIL: detector gates did not hold")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
