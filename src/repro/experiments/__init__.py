"""Experiment harness: scenario builders and standard runners.

Every evaluation figure/table boils down to "co-locate sensitive app X
with batch app(s) Y under trace Z and compare policies". This package
centralizes that recipe so the benchmarks, the examples and the
integration tests all drive the exact same machinery:

* :class:`~repro.experiments.scenarios.Scenario` — a declarative
  description of one co-location experiment;
* :mod:`repro.experiments.runner` — run a scenario isolated / unmanaged
  / under Stay-Away / under the ablation baselines, returning aligned
  QoS and utilization series.
"""

from repro.experiments.chaos import (
    ChaosMix,
    ChaosResult,
    DrillComparison,
    run_chaos,
    run_chaos_comparison,
    unguarded_config,
)
from repro.experiments.runner import (
    RunResult,
    TrioResult,
    run_isolated,
    run_scenario,
    run_stayaway,
    run_trio,
    run_unmanaged,
)
from repro.experiments.scenarios import BuiltScenario, Scenario

__all__ = [
    "BuiltScenario",
    "ChaosMix",
    "ChaosResult",
    "DrillComparison",
    "RunResult",
    "Scenario",
    "TrioResult",
    "run_chaos",
    "run_chaos_comparison",
    "run_isolated",
    "run_scenario",
    "run_stayaway",
    "run_trio",
    "run_unmanaged",
    "unguarded_config",
]
