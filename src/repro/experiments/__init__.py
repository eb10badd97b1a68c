"""Experiment harness: scenario builders and standard runners.

Every evaluation figure/table boils down to "co-locate sensitive app X
with batch app(s) Y under trace Z and compare policies". This package
centralizes that recipe so the benchmarks, the examples and the
integration tests all drive the exact same machinery:

* :class:`~repro.experiments.scenarios.Scenario` — a declarative
  description of one co-location experiment;
* :mod:`repro.experiments.runner` — run a scenario isolated / unmanaged
  / under Stay-Away / under the ablation baselines, returning aligned
  QoS and utilization series;
* :mod:`repro.experiments.headtohead` — the detector head-to-head
  study: geometry vs GMM thresholds vs hybrid, scored for precision,
  recall, false-positive rate and violation lead-time.
"""

from repro.experiments.chaos import (
    ChaosMix,
    ChaosResult,
    DrillComparison,
    run_chaos,
    run_chaos_comparison,
    unguarded_config,
)
from repro.experiments.headtohead import (
    DETECTOR_ARMS,
    ArmResult,
    HeadToHead,
    quick_suite,
    run_arm,
    run_headtohead,
    run_study,
    standard_suite,
    study_table,
)
from repro.experiments.runner import (
    RunResult,
    TrioResult,
    run_gmm,
    run_isolated,
    run_scenario,
    run_stayaway,
    run_trio,
    run_unmanaged,
)
from repro.experiments.scenarios import BuiltScenario, Scenario

__all__ = [
    "ArmResult",
    "BuiltScenario",
    "ChaosMix",
    "ChaosResult",
    "DETECTOR_ARMS",
    "DrillComparison",
    "HeadToHead",
    "RunResult",
    "Scenario",
    "TrioResult",
    "quick_suite",
    "run_arm",
    "run_headtohead",
    "run_study",
    "standard_suite",
    "study_table",
    "run_chaos",
    "run_chaos_comparison",
    "run_gmm",
    "run_isolated",
    "run_scenario",
    "run_stayaway",
    "run_trio",
    "run_unmanaged",
    "unguarded_config",
]
