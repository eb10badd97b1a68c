"""repro: a full reproduction of *Stay-Away* (Middleware 2014).

Stay-Away is a generic, adaptive host middleware that protects
latency-sensitive applications from performance interference when
co-located with best-effort batch applications: it maps per-VM resource
usage into a 2-D MDS state space, learns which states correspond to QoS
violations, predicts transitions toward them from per-execution-mode
trajectory models, and proactively throttles batch containers
(SIGSTOP/SIGCONT) before the violation happens.

Quick start::

    from repro import Scenario, run_trio

    scenario = Scenario(sensitive="vlc-streaming", batches=("twitter-analysis",))
    trio = run_trio(scenario)
    print(trio.stayaway.violation_ratio(), trio.utilization.stayaway_gain_mean)

Package layout:

* :mod:`repro.core` — the Stay-Away mechanism (the paper's contribution);
* :mod:`repro.sim` — the simulated host/container substrate;
* :mod:`repro.workloads` — VLC, Webservice, Soplex, Twitter-Analysis, bombs;
* :mod:`repro.monitoring` — metric collection, normalization, QoS tracking;
* :mod:`repro.mds` — SMACOF multidimensional scaling from scratch;
* :mod:`repro.trajectory` — per-mode movement models and sampling;
* :mod:`repro.baselines` — no-prevention / reactive / static-profiling;
* :mod:`repro.experiments` — scenario builders and standard runners;
* :mod:`repro.analysis` — utilization, QoS and accuracy summaries;
* :mod:`repro.telemetry` — controller self-telemetry: metric registry,
  stage timers, per-period rows and JSON/Prometheus/JSONL exporters.
"""

from repro.core.config import StayAwayConfig
from repro.core.controller import StayAway
from repro.core.state_space import StateLabel, StateSpace, violation_range_radius
from repro.core.template import MapTemplate
from repro.experiments.runner import (
    RunResult,
    TrioResult,
    run_isolated,
    run_scenario,
    run_stayaway,
    run_trio,
    run_unmanaged,
)
from repro.experiments.scenarios import Scenario
from repro.sim.container import Container
from repro.sim.engine import SimulationEngine
from repro.sim.host import Host
from repro.sim.resources import Resource, ResourceVector
from repro.telemetry import Telemetry
from repro.workloads.registry import available_workloads, make_workload

__version__ = "1.0.0"

__all__ = [
    "Container",
    "Host",
    "MapTemplate",
    "Resource",
    "ResourceVector",
    "RunResult",
    "Scenario",
    "SimulationEngine",
    "StateLabel",
    "StateSpace",
    "StayAway",
    "StayAwayConfig",
    "Telemetry",
    "TrioResult",
    "available_workloads",
    "make_workload",
    "run_isolated",
    "run_scenario",
    "run_stayaway",
    "run_trio",
    "run_unmanaged",
    "violation_range_radius",
    "__version__",
]
