"""Standard scenario runners.

Each runner instantiates the scenario fresh, wires the appropriate
controller (none / Stay-Away / reactive), runs the engine and returns a
:class:`RunResult` with the aligned QoS and utilization series the
evaluation figures are made of.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.analysis.utilization import UtilizationComparison, compare_utilization
from repro.baselines.no_prevention import NoPrevention
from repro.baselines.qclouds import QCloudsLike
from repro.baselines.reactive import ReactiveThrottler
from repro.core.config import StayAwayConfig
from repro.core.controller import StayAway
from repro.core.template import MapTemplate
from repro.experiments.scenarios import BuiltScenario, Scenario, batch_work
from repro.monitoring.qos import QosTracker
from repro.sim.engine import SimulationEngine
from repro.sim.host import HostSnapshot


@dataclass
class RunResult:
    """Outcome of one scenario run under one policy.

    Attributes
    ----------
    scenario:
        The scenario description that was run.
    policy:
        "isolated" / "unmanaged" / "stayaway" / "reactive".
    built:
        The instantiated host and applications.
    snapshots:
        Per-tick host snapshots.
    qos:
        The sensitive application's QoS tracker.
    controller:
        The Stay-Away controller when ``policy == "stayaway"``.
    reactive:
        The reactive baseline when ``policy == "reactive"``.
    qclouds:
        The Q-Clouds-style baseline when ``policy == "qclouds"``.
    """

    scenario: Scenario
    policy: str
    built: BuiltScenario
    snapshots: List[HostSnapshot]
    qos: QosTracker
    controller: Optional[StayAway] = None
    reactive: Optional[ReactiveThrottler] = None
    qclouds: Optional[QCloudsLike] = None

    def utilization(self) -> np.ndarray:
        """Machine CPU utilization series in [0, 1]."""
        capacity = self.built.host.capacity
        return np.asarray(
            [snapshot.cpu_utilization(capacity) for snapshot in self.snapshots]
        )

    def qos_values(self) -> np.ndarray:
        """Normalized QoS series of the sensitive application."""
        return self.qos.qos_series.values

    def violation_ratio(self) -> float:
        """Fraction of reported ticks in QoS violation."""
        return self.qos.violation_ratio()

    def batch_work_done(self) -> float:
        """Total work completed by all batch applications."""
        return batch_work(self.built.batch_apps)

    @property
    def telemetry(self):
        """The controller's :class:`~repro.telemetry.Telemetry` (None
        for policies without a Stay-Away controller)."""
        return self.controller.telemetry if self.controller is not None else None


def run_scenario(
    scenario: Scenario,
    policy: str = "stayaway",
    config: Optional[StayAwayConfig] = None,
    template: Optional[MapTemplate] = None,
    cooldown: int = 20,
    pre_middlewares=(),
) -> RunResult:
    """Run a scenario under a named policy.

    Parameters
    ----------
    policy:
        One of ``"isolated"``, ``"unmanaged"``, ``"stayaway"``,
        ``"reactive"``, ``"qclouds"``.
    config / template:
        Stay-Away configuration and optional map template. The
        controller keeps its own telemetry (``result.telemetry``), and
        every count its summary reports is read from that registry, so
        no two runs share one.
    cooldown:
        Resume cooldown for the reactive baseline.
    pre_middlewares:
        Middlewares registered *before* the policy's own (observers
        like :class:`~repro.service.recording.StreamRecorder` that
        must see each snapshot pre-actuation).
    """
    if policy == "isolated":
        built = scenario.build(include_batch=False)
    else:
        built = scenario.build(include_batch=True)
    config = config if config is not None else StayAwayConfig()

    engine = SimulationEngine(built.host)
    for middleware in pre_middlewares:
        engine.add_middleware(middleware)
    controller: Optional[StayAway] = None
    reactive: Optional[ReactiveThrottler] = None
    qclouds: Optional[QCloudsLike] = None

    if policy == "stayaway":
        controller = StayAway(built.sensitive_app, config=config, template=template)
        engine.add_middleware(controller)
        qos = controller.qos
    elif policy == "reactive":
        reactive = ReactiveThrottler(built.sensitive_app, cooldown=cooldown)
        engine.add_middleware(reactive)
        qos = reactive.qos
    elif policy == "qclouds":
        # Q-Clouds needs a shares-aware scheduler to boost against.
        from repro.sim.contention import WeightedWaterFillModel

        built.host.contention = WeightedWaterFillModel()
        qclouds = QCloudsLike(built.sensitive_app)
        engine.add_middleware(qclouds)
        qos = qclouds.qos
    elif policy in ("unmanaged", "isolated"):
        engine.add_middleware(NoPrevention())
        qos = QosTracker(built.sensitive_app)
        engine.add_middleware(qos)
    else:
        raise ValueError(f"unknown policy {policy!r}")

    result = engine.run(ticks=scenario.ticks)
    return RunResult(
        scenario=scenario,
        policy=policy,
        built=built,
        snapshots=result.snapshots,
        qos=qos,
        controller=controller,
        reactive=reactive,
        qclouds=qclouds,
    )


def run_isolated(scenario: Scenario) -> RunResult:
    """Sensitive application alone (utilization baseline)."""
    return run_scenario(scenario, policy="isolated")


def run_unmanaged(scenario: Scenario) -> RunResult:
    """Co-location with no mitigation (the paper's 'without Stay-Away')."""
    return run_scenario(scenario, policy="unmanaged")


def run_stayaway(
    scenario: Scenario,
    config: Optional[StayAwayConfig] = None,
    template: Optional[MapTemplate] = None,
) -> RunResult:
    """Co-location managed by Stay-Away."""
    return run_scenario(scenario, policy="stayaway", config=config, template=template)


@dataclass
class TrioResult:
    """The standard three-way comparison behind Figs. 8-12.

    Attributes
    ----------
    isolated / unmanaged / stayaway:
        The three runs.
    utilization:
        Gained-utilization comparison (upper band = unmanaged, lower
        band = Stay-Away).
    """

    isolated: RunResult
    unmanaged: RunResult
    stayaway: RunResult
    utilization: UtilizationComparison


def run_trio(
    scenario: Scenario, config: Optional[StayAwayConfig] = None
) -> TrioResult:
    """Run isolated + unmanaged + Stay-Away and compare utilization."""
    isolated = run_isolated(scenario)
    unmanaged = run_unmanaged(scenario)
    stayaway = run_stayaway(scenario, config=config)
    comparison = compare_utilization(
        isolated.snapshots,
        unmanaged.snapshots,
        stayaway.snapshots,
        capacity=isolated.built.host.capacity,
    )
    return TrioResult(
        isolated=isolated,
        unmanaged=unmanaged,
        stayaway=stayaway,
        utilization=comparison,
    )
