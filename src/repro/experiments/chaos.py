"""Chaos experiments: run Stay-Away on a deliberately hostile host.

The resilience layer (sensor guard, degraded modes, reconciliation) is
only worth its complexity if it measurably protects the sensitive
application when everything misbehaves at once. This module wires the
full seeded fault mix from :mod:`repro.sim.faults` around a scenario —
sensor corruption between host and controller, QoS-report dropout,
flapping batch containers, lossy actuators, demand spikes — runs it,
and reports the QoS damage plus the resilience layer's own telemetry.

Every drill (environment chaos and the recovery and fleet drills here,
the stream drill in :mod:`repro.experiments.stream_chaos`) runs one
seeded fault script down two or three arms: each arm is a
:class:`DrillResult`, the arms one :class:`DrillComparison` by name.

The headline comparison (:func:`run_chaos_comparison`, used by
``benchmarks/bench_robustness_chaos.py``) runs the identical fault
script twice: once with the resilience layer on (default config) and
once with it off (``resilience=False``). Same seeds, same faults — any
difference in violation ratio is attributable to the resilience layer.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import asdict, dataclass, replace
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.config import StayAwayConfig
from repro.core.controller import StayAway
from repro.experiments.scenarios import BuiltScenario, Scenario, batch_work
from repro.fleet import FleetCoordinator
from repro.sim.cluster import MIGRATION_IN_FLIGHT, Cluster
from repro.sim.container import Container
from repro.sim.engine import SimulationEngine
from repro.sim.faults import (
    ContainerFlapper,
    DemandSpiker,
    FaultyPort,
    HostCrashInjector,
    ModelPoisoner,
    QosDropout,
    StageExceptionInjector,
    TelemetryBlackout,
)
from repro.sim.host import Host, HostSnapshot
from repro.workloads.base import Application
from repro.workloads.registry import make_workload


@dataclass(frozen=True)
class ChaosMix:
    """Knobs of the seeded fault cocktail.

    The fault rates are fixed in :func:`run_chaos`: each tick, a 5 %
    chance the controller's observation is corrupted, and a 1 % chance
    each that a batch container is flapped or supervisor-restarted;
    5 % of QoS reports are swallowed and 20 % of pause/resume signals
    are lost.

    Parameters
    ----------
    seed:
        The seed every injector draws with; each decision has its own
        key and salt, so the fault script is identical across policies
        under comparison.
    spike_windows:
        Windows in which the sensitive application's demand doubles.
    """

    seed: int = 0
    spike_windows: Tuple[Tuple[int, int], ...] = ()


@dataclass(frozen=True)
class ControllerCrash:
    """Forensics of an uncaught controller exception.

    Attributes
    ----------
    tick:
        Tick the runtime died at.
    error_type / message:
        Exception class name and message.
    fault:
        The injected fault's name (``InjectedStageError.fault_name``)
        when the crash was caused by a known injector, else None.
    trace:
        The deepest frame of the traceback (``file:line in func``, the
        file's base name so a record does not depend on the checkout).
    """

    tick: int
    error_type: str
    message: str
    fault: Optional[str] = None
    trace: Optional[str] = None


class _Guard:
    """Catch-and-record shared by the host and cluster crash guards.

    The first exception escaping the guarded policy is kept as
    :class:`ControllerCrash` forensics and the policy is never driven
    again: a dead runtime, frozen at its moment of death, in a drill
    that still finishes and reports.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.crash: Optional[ControllerCrash] = None

    @property
    def crashed_at(self) -> Optional[int]:
        """Tick of the fatal exception (None = still alive)."""
        return None if self.crash is None else self.crash.tick

    @property
    def error(self) -> Optional[str]:
        """``ErrorType: message`` of the fatal exception, if any."""
        if self.crash is None:
            return None
        return f"{self.crash.error_type}: {self.crash.message}"

    def _drive(self, tick: int, call, *args) -> None:
        try:
            call(*args)
        except Exception as exc:  # sacheck: disable=SA108 -- models the dead runtime: any uncaught policy exception is recorded and ends the policy for the rest of the run
            deepest = traceback.extract_tb(exc.__traceback__)[-1]
            self.crash = ControllerCrash(
                tick=tick,
                error_type=type(exc).__name__,
                message=str(exc),
                fault=getattr(exc, "fault_name", None),
                trace=(
                    f"{os.path.basename(deepest.filename)}:{deepest.lineno} "
                    f"in {deepest.name}"
                ),
            )


class CrashGuard(_Guard):
    """Middleware wrapper isolating a host controller's crashes.

    An unguarded controller fed NaN measurements can die outright. On a
    real host that means the runtime process is gone: nothing resumes
    the containers it paused and nothing protects the sensitive
    application anymore. After the crash only the controller's QoS
    tracker keeps observing, so the violation accounting stays
    comparable.
    """

    def on_tick(self, snapshot, host) -> None:
        if self.crash is None:
            self._drive(snapshot.tick, self.inner.on_tick, snapshot, host)
        else:
            self.inner.qos.on_tick(snapshot, host)


class ClusterCrashGuard(_Guard):
    """The fleet analogue of :class:`CrashGuard`, around a cluster middleware."""

    def on_cluster_tick(self, snapshots, cluster) -> None:
        if self.crash is None:
            # The tick the snapshots describe.
            self._drive(
                cluster.clock.tick - 1, self.inner.on_cluster_tick, snapshots, cluster
            )


@dataclass
class DrillResult:
    """One arm of a drill: ``audit`` scores its sensitive QoS (anything
    with ``violation_ratio()``), ``guard`` is the crash guard around the
    policy under test (None when the arm has none)."""

    audit: Any
    guard: Optional[_Guard]

    def violation_ratio(self) -> float:
        """Fraction of reported ticks in QoS violation."""
        return self.audit.violation_ratio()

    @property
    def crash(self) -> Optional[ControllerCrash]:
        """Full crash forensics, if the guarded policy died."""
        return None if self.guard is None else self.guard.crash

    @property
    def crashed_at(self) -> Optional[int]:
        """Tick the guarded policy died at (None = survived or no guard)."""
        return None if self.guard is None else self.guard.crashed_at


@dataclass
class DrillComparison:
    """Every arm of one drill under the identical fault script, by name.

    ``summary()`` is each arm's summary under its name plus the drill's
    ``verdict``: by default ``improvement``, the ``control`` arm's
    violation ratio minus the ``treated`` arm's.
    """

    arms: Dict[str, DrillResult]
    control: str
    treated: str
    verdict: Optional[Callable[["DrillComparison"], dict]] = None

    @property
    def improvement(self) -> float:
        """Absolute violation-ratio reduction of the treated arm."""
        return (
            self.arms[self.control].violation_ratio()
            - self.arms[self.treated].violation_ratio()
        )

    def summary(self) -> dict:
        out = {name: arm.summary() for name, arm in self.arms.items()}
        out.update(self.verdict(self) if self.verdict else {"improvement": self.improvement})
        return out


# ---------------------------------------------------------------------------
# The auditor: controller bookkeeping against host truth
# ---------------------------------------------------------------------------

class InvariantBreach(NamedTuple):
    """One recorded consistency violation."""

    tick: int
    check: str
    detail: str


class InvariantChecker:
    """Assert per-tick controller/host consistency; record breaches.

    Registered *after* the controller, it verifies every period that:

    * throttle bookkeeping matches container states — every container
      the manager believes paused is actually not running (or has a
      reconciliation retry in flight), and a non-throttling manager
      holds no pause-set;
    * no non-finite mapped coordinates entered the trajectory;
    * the learned beta stays finite and positive;
    * headline counters never decrease.

    Breaches are recorded, not raised — under chaos the run must keep
    going so the full breach census is available at the end.
    """

    def __init__(self, controller) -> None:
        self.controller = controller
        self.breaches: List[InvariantBreach] = []
        self._last_counters: Dict[str, float] = {}

    def _breach(self, tick: int, check: str, detail: str) -> None:
        self.breaches.append(InvariantBreach(tick=tick, check=check, detail=detail))

    def on_tick(self, snapshot: HostSnapshot, host: Host) -> None:
        controller = self.controller
        tick = snapshot.tick
        throttle = controller.throttle

        # 1. Throttle bookkeeping vs container states.
        pending = set(getattr(throttle, "pending_retries", {}))
        for name in throttle.desired_paused:
            container = host.containers.get(name)
            if container is None:
                self._breach(
                    tick, "pause-set", f"{name!r} in pause-set but not on host"
                )
            elif container.is_running and name not in pending:
                self._breach(
                    tick,
                    "pause-set",
                    f"{name!r} running while believed paused (no retry pending)",
                )
        if not throttle.throttling and throttle.desired_paused:
            self._breach(
                tick, "pause-set", "pause-set nonempty while not throttling"
            )

        # 2. Mapped coordinates stay finite.
        if controller.trajectory:
            coords = controller.trajectory[-1].coords
            if not np.all(np.isfinite(coords)):
                self._breach(tick, "coords", f"non-finite mapped coords {coords}")

        # 3. Beta sane.
        beta = throttle.beta
        if not np.isfinite(beta) or beta <= 0:
            self._breach(tick, "beta", f"beta degenerated to {beta}")

        # 4. Monotone counters.
        counters = {
            "throttles": throttle.throttle_count,
            "resumes": throttle.resume_count,
            "violations": controller.qos.violation_count,
        }
        for key, value in counters.items():
            previous = self._last_counters.get(key)
            if previous is not None and value < previous:
                self._breach(tick, "counters", f"{key} decreased {previous}->{value}")
        self._last_counters = counters

    @property
    def ok(self) -> bool:
        """True when no breach was recorded."""
        return not self.breaches

    def summary(self) -> dict:
        """Breach counts per check."""
        counts: Dict[str, int] = {}
        for breach in self.breaches:
            counts[breach.check] = counts.get(breach.check, 0) + 1
        return {"breaches": len(self.breaches), "by_check": counts}


class _HostRig:
    """The single-host drills' wiring: the scenario, a guarded controller
    scored by its own QoS tracker, and the invariant checker."""

    def __init__(self, scenario: Scenario, config: Optional[StayAwayConfig]) -> None:
        self.scenario = scenario
        self.built = scenario.build(include_batch=True)
        self.controller = StayAway(self.built.sensitive_app, config=config)
        self.audit = self.controller.qos
        self.guard = CrashGuard(self.controller)
        self.checker = InvariantChecker(self.controller)

    def run(self, middlewares: list, installed: list) -> dict:
        """Run with the drill's middleware order, uninstall its injectors
        whatever happens; returns the rig's result fields."""
        engine = SimulationEngine(self.built.host, middlewares)
        try:
            engine.run(ticks=self.scenario.ticks)
        finally:
            for fault in installed:
                if fault is not None:
                    fault.remove()
        return dict(vars(self))


@dataclass
class ChaosResult(DrillResult):
    """Outcome of one chaos run.

    Attributes
    ----------
    scenario / mix:
        What was run and under which fault cocktail.
    built:
        The instantiated host and applications.
    controller:
        The Stay-Away controller that survived (or didn't).
    checker:
        The invariant checker that rode along.
    port / flapper / qos_dropout / spiker:
        The injectors, for fault-census assertions.
    """

    scenario: Scenario
    mix: ChaosMix
    built: BuiltScenario
    controller: StayAway
    checker: InvariantChecker
    port: FaultyPort
    flapper: ContainerFlapper
    qos_dropout: QosDropout
    spiker: Optional[DemandSpiker] = None

    def summary(self) -> dict:
        """Controller summary + fault census + invariant verdict."""
        faults = {
            "sensor_corruptions": len(self.port.corruptions),
            "qos_reports_dropped": self.qos_dropout.dropped_reports,
            "container_flaps": len(self.flapper.fired),
            "actuator_drops": len(self.port.lost_signals),
        }
        return {
            "controller": self.controller.summary(),
            "violation_ratio": self.violation_ratio(),
            "crashed_at": self.crashed_at,
            "faults": {**faults, "total": sum(faults.values())},
            "invariants": self.checker.summary(),
        }


def unguarded_config(config: Optional[StayAwayConfig] = None) -> StayAwayConfig:
    """The same controller with the entire resilience layer disabled."""
    base = config if config is not None else StayAwayConfig()
    return replace(base, resilience=False)


def run_chaos(
    scenario: Scenario,
    mix: Optional[ChaosMix] = None,
    config: Optional[StayAwayConfig] = None,
) -> ChaosResult:
    """Run a scenario under the chaos mix with a Stay-Away controller.

    Middleware order matters and encodes the threat model:

    1. the **flapper** fires first, so the controller's reconciliation
       sees external drift the same period it happens;
    2. the **controller** reaches the host through one
       :class:`FaultyPort`: its view is corrupted and its signals get
       lost, while the host truth stays intact;
    3. the **invariant checker** runs last, auditing the controller's
       bookkeeping against the host truth after every period.
    """
    mix = mix if mix is not None else ChaosMix()
    rig = _HostRig(scenario, config)
    host = rig.built.host
    app = rig.built.sensitive_app

    port = FaultyPort(rig.guard, seed=mix.seed, sensor_corruption=0.05, signal_loss=0.2)
    qos_dropout = QosDropout(app, probability=0.05, seed=mix.seed)
    flapper = ContainerFlapper(
        [container.name for container in host.batch_containers()],
        seed=mix.seed,
        flap_probability=0.01,
        restart_probability=0.01,
    )
    spiker = DemandSpiker(app, windows=list(mix.spike_windows)) if mix.spike_windows else None
    shared = rig.run([flapper, port, rig.checker], [qos_dropout, spiker])
    return ChaosResult(
        mix=mix,
        port=port,
        flapper=flapper,
        qos_dropout=qos_dropout,
        spiker=spiker,
        **shared,
    )


def run_chaos_comparison(
    scenario: Scenario,
    mix: Optional[ChaosMix] = None,
    config: Optional[StayAwayConfig] = None,
) -> DrillComparison:
    """Run the same seeded chaos twice: ``resilient`` vs ``unguarded``."""
    return DrillComparison(
        arms={
            "resilient": run_chaos(scenario, mix=mix, config=config),
            "unguarded": run_chaos(scenario, mix=mix, config=unguarded_config(config)),
        },
        control="unguarded",
        treated="resilient",
    )


# ---------------------------------------------------------------------------
# Recovery drills: controller-internal faults, containment on vs off
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContainmentMix:
    """Knobs of the seeded controller-internal fault cocktail.

    Parameters
    ----------
    seed:
        Base seed; both injectors derive per-tick decisions from it so
        the fault script is identical across policy variants.
    stage_fault:
        Per-period probability that a targeted stage raises.
    stages:
        Stages the probabilistic injector targets.
    fault_windows:
        Scripted ``(start, end, stage)`` windows during which the stage
        fails every period — a deterministic outage the firewall must
        ride out, period by period.
    poison:
        Per-period probability of one model-poisoning mutation.
    poison_kinds:
        Poison kinds to draw from (None = all).
    """

    seed: int = 0
    stage_fault: float = 0.02
    stages: Tuple[str, ...] = ("map", "predict")
    fault_windows: Tuple[Tuple[int, int, str], ...] = ()
    poison: float = 0.02
    poison_kinds: Optional[Tuple[str, ...]] = None


def uncontained_config(config: Optional[StayAwayConfig] = None) -> StayAwayConfig:
    """The same controller with fault containment disabled.

    No exception firewall, no model-health watchdog — a stage
    exception propagates and (under :class:`CrashGuard`) kills the
    runtime, exactly like the naive implementation.
    """
    base = config if config is not None else StayAwayConfig()
    return replace(base, containment=False)


@dataclass
class RecoveryDrillResult(DrillResult):
    """Outcome of one recovery drill.

    Attributes
    ----------
    scenario / mix:
        What was run and under which internal-fault cocktail.
    built / controller / checker:
        The instantiated scenario, the controller and the riding
        invariant checker.
    injector / poisoner:
        The fault injectors, for fault-census assertions.
    """

    scenario: Scenario
    mix: ContainmentMix
    built: BuiltScenario
    controller: StayAway
    checker: InvariantChecker
    injector: StageExceptionInjector
    poisoner: ModelPoisoner

    def summary(self) -> dict:
        """Controller summary + fault census + containment verdict."""
        controller = self.controller.summary()
        return {
            "controller": controller,
            "violation_ratio": self.violation_ratio(),
            "batch_work": batch_work(self.built.batch_apps),
            "crashed_at": self.crashed_at,
            "crash": None if self.crash is None else asdict(self.crash),
            "faults": {
                "stage_faults": len(self.injector.fired),
                "poisons": len(self.poisoner.fired),
                "total": len(self.injector.fired) + len(self.poisoner.fired),
            },
            "containment": controller["telemetry"]["containment"],
            "invariants": self.checker.summary(),
        }


def run_recovery_drill(
    scenario: Scenario,
    mix: Optional[ContainmentMix] = None,
    config: Optional[StayAwayConfig] = None,
) -> RecoveryDrillResult:
    """Run a scenario under controller-internal faults.

    Unlike :func:`run_chaos` the environment is healthy — the faults
    live *inside* the controller: stages raise on schedule and the
    learned model is silently poisoned. What is being drilled is the
    containment machinery (firewall and watchdog), or — with
    :func:`uncontained_config` — its absence.
    """
    return _run_recovery(_HostRig(scenario, config), mix)


def _run_recovery(rig: _HostRig, mix: Optional[ContainmentMix]) -> RecoveryDrillResult:
    """:func:`run_recovery_drill` on an already built rig."""
    mix = mix if mix is not None else ContainmentMix()
    injector = StageExceptionInjector(
        rig.controller,
        seed=mix.seed,
        probability=mix.stage_fault,
        stages=mix.stages,
    )
    for start, end, stage in mix.fault_windows:
        injector.during(start, end, stage)
    injector.install()
    poisoner = ModelPoisoner(
        rig.controller,
        seed=mix.seed,
        probability=mix.poison,
        kinds=mix.poison_kinds,
    )
    # The checker audits the controller's own bookkeeping, so it runs
    # before the poisoner: damage injected this tick is the watchdog's
    # to find next period, not an instant invariant breach.
    shared = rig.run([rig.guard, rig.checker, poisoner], [injector])
    return RecoveryDrillResult(
        mix=mix, injector=injector, poisoner=poisoner, **shared
    )


def run_recovery_comparison(
    scenario: Scenario,
    mix: Optional[ContainmentMix] = None,
    config: Optional[StayAwayConfig] = None,
) -> DrillComparison:
    """Run the same seeded internal-fault script three times:
    ``contained``, ``no-watchdog`` (the firewall without the model-health
    watchdog, so poisoned models are never healed) and ``uncontained``."""
    contained = run_recovery_drill(scenario, mix=mix, config=config)
    blind = _HostRig(scenario, config)
    blind.controller.watchdog = None
    return DrillComparison(
        arms={
            "contained": contained,
            "no-watchdog": _run_recovery(blind, mix),
            "uncontained": run_recovery_drill(
                scenario, mix=mix, config=uncontained_config(config)
            ),
        },
        control="uncontained",
        treated="contained",
    )


# ---------------------------------------------------------------------------
# Fleet drills: host-failure chaos against the fleet coordinator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FleetMix:
    """Knobs of one seeded fleet chaos drill.

    Parameters
    ----------
    hosts:
        Fleet size. Hosts cycle through four flavours (``i % 4``):
        heavily bombed, lightly bombed, sensitive-only, and an empty
        spare — the spare capacity is what gives a migrating
        coordinator something a per-host controller does not have.
    ticks:
        Chaos phase length.
    drain_ticks:
        Quiet ticks appended after the chaos phase (no new crashes) so
        in-flight migrations reach a terminal state before the
        no-orphan invariant is checked.
    seed:
        Base seed; crash and blackout decisions derive from it per
        ``(tick, host)`` so the fault script is identical across arms.
    host_crash:
        Per-host per-tick crash probability during the chaos phase.
    recovery_ticks:
        Ticks a crashed host stays down before auto-recovery.
    max_down_fraction:
        Cap on simultaneously down hosts.
    blackout:
        Per-host per-tick probability that the coordinator's telemetry
        for that host goes dark (host itself stays up).
    """

    hosts: int = 12
    ticks: int = 240
    drain_ticks: int = 80
    seed: int = 0
    host_crash: float = 0.002
    recovery_ticks: int = 30
    max_down_fraction: float = 0.3
    blackout: float = 0.01

    def __post_init__(self) -> None:
        if self.hosts < 2:
            raise ValueError("a fleet needs at least 2 hosts")
        if self.ticks < 1 or self.drain_ticks < 0:
            raise ValueError("ticks must be >= 1 and drain_ticks >= 0")


def build_fleet(mix: FleetMix) -> Tuple[Cluster, dict]:
    """A heterogeneous fleet: bombed, clean and spare hosts.

    Returns the cluster and the ``{host: sensitive app}`` mapping the
    coordinator (or the per-host arm) needs. Each host gets fresh,
    independently seeded application instances.
    """
    hosts = {}
    sensitive = {}
    for i in range(mix.hosts):
        name = f"host-{i:03d}"
        host = Host()
        flavour = i % 4
        if flavour != 3:
            app = make_workload("webservice-mix", seed=mix.seed + 1000 + i)
            app.name = f"svc-{i:03d}"
            host.add_container(Container(name=app.name, app=app, sensitive=True))
            sensitive[name] = app
        if flavour == 0:
            for j, bomb_kind in enumerate(("cpubomb", "memorybomb")):
                bomb = make_workload(bomb_kind, seed=mix.seed + 2000 + 10 * i + j)
                bomb.name = f"{bomb_kind}-{i:03d}"
                host.add_container(Container(name=bomb.name, app=bomb))
        elif flavour == 1:
            bomb = make_workload("cpubomb", seed=mix.seed + 3000 + i)
            bomb.name = f"cpubomb-{i:03d}"
            host.add_container(Container(name=bomb.name, app=bomb))
        hosts[name] = host
    return Cluster(hosts=hosts), sensitive


class FleetQosAudit:
    """Arm-independent fleet QoS bookkeeping.

    Polls every sensitive app's (idempotent) QoS report each tick,
    outside any blackout wrapper, so all policy arms are measured by
    the same instrument: blacking out the *coordinator's* view must not
    black out the experiment's.
    """

    def __init__(self, sensitive: dict) -> None:
        self.sensitive = dict(sensitive)
        self.reports = 0
        self.violations = 0

    def on_cluster_tick(self, snapshots, cluster) -> None:
        for host_name, app in self.sensitive.items():
            if host_name not in snapshots:
                continue  # host down: no service, but also no report
            report = app.qos_report()
            if report is None:
                continue
            self.reports += 1
            if report.violated:
                self.violations += 1

    def violation_ratio(self) -> float:
        """Fraction of polled reports in violation."""
        if self.reports == 0:
            return 0.0
        return self.violations / self.reports


@dataclass
class FleetDrillResult(DrillResult):
    """Outcome of one fleet chaos drill arm, scored by a
    :class:`FleetQosAudit`; the guard is around the coordinator.

    Attributes
    ----------
    mix / arm:
        What was run; arm is ``coordinator`` / ``per-host`` / ``none``.
    cluster / coordinator / crash_injector:
        The run's machinery, for assertions and summaries. The
        coordinator is None in the ``none`` arm.
    batch_apps:
        Every non-sensitive app :func:`build_fleet` created, collected
        before the run so a migrated container still counts.
    """

    mix: FleetMix
    arm: str
    cluster: Cluster
    coordinator: Optional[FleetCoordinator]
    crash_injector: HostCrashInjector
    batch_apps: Tuple[Application, ...]

    def orphaned_migrations(self) -> list:
        """Cluster migration records stuck ``in-flight`` after the run."""
        return [
            record
            for record in self.cluster.migrations
            if record.outcome == MIGRATION_IN_FLIGHT
        ]

    def summary(self) -> dict:
        out = {
            "arm": self.arm,
            "hosts": len(self.cluster.hosts),
            "violation_ratio": self.violation_ratio(),
            "batch_work": batch_work(self.batch_apps),
            "crashed_at": self.crashed_at,
            "crashes": self.crash_injector.summary(),
            "migration_records": len(self.cluster.migrations),
            "orphaned_migrations": len(self.orphaned_migrations()),
        }
        if self.coordinator is not None:
            out.update(self.coordinator.summary())
        return out


def run_fleet_drill(
    mix: Optional[FleetMix] = None,
    arm: str = "coordinator",
    config: Optional[StayAwayConfig] = None,
) -> FleetDrillResult:
    """Run one fleet arm under the seeded host-failure script.

    Arms: ``coordinator`` (per-host controllers + scoring + supervised
    migration), ``per-host`` (identical controllers, migration
    disabled) and ``none`` (no prevention at all). The crash/blackout
    script depends only on ``(seed, tick, host)``, so all three arms
    see the same outages.
    """
    mix = mix if mix is not None else FleetMix()
    if arm not in ("coordinator", "per-host", "none"):
        raise ValueError(f"unknown arm {arm!r}")
    config = config if config is not None else StayAwayConfig(telemetry=False)
    cluster, sensitive = build_fleet(mix)
    batch_apps = tuple(
        container.app
        for host in cluster.hosts.values()
        for container in host.containers.values()
        if not container.sensitive
    )

    audit = FleetQosAudit(sensitive)
    cluster.add_middleware(audit)

    coordinator: Optional[FleetCoordinator] = None
    guard: Optional[ClusterCrashGuard] = None
    if arm != "none":
        coordinator = FleetCoordinator(
            sensitive, config=config, migrate=(arm == "coordinator")
        )
        target = coordinator
        if mix.blackout > 0:
            target = TelemetryBlackout(
                coordinator, seed=mix.seed + 11, probability=mix.blackout
            )
        guard = ClusterCrashGuard(target)
        cluster.add_middleware(guard)

    crash_injector = HostCrashInjector(
        seed=mix.seed + 23,
        probability=mix.host_crash,
        recovery_ticks=mix.recovery_ticks,
        max_down_fraction=mix.max_down_fraction,
    )
    cluster.add_middleware(crash_injector)

    cluster.run(mix.ticks)
    # Drain: stop injecting, let recoveries land and migrations settle.
    crash_injector.probability = 0.0
    cluster.run(mix.drain_ticks)

    return FleetDrillResult(
        audit=audit,
        guard=guard,
        mix=mix,
        arm=arm,
        cluster=cluster,
        coordinator=coordinator,
        crash_injector=crash_injector,
        batch_apps=batch_apps,
    )


def run_fleet_comparison(
    mix: Optional[FleetMix] = None,
    config: Optional[StayAwayConfig] = None,
) -> DrillComparison:
    """Run the same seeded host-failure script across all three arms:
    ``coordinator``, ``per_host`` and ``none``; ``improvement`` is the
    coordinator's over per-host-only."""
    return DrillComparison(
        arms={
            "coordinator": run_fleet_drill(mix, arm="coordinator", config=config),
            "per_host": run_fleet_drill(mix, arm="per-host", config=config),
            "none": run_fleet_drill(mix, arm="none", config=config),
        },
        control="per_host",
        treated="coordinator",
    )


__all__ = [
    "ChaosMix",
    "ChaosResult",
    "ClusterCrashGuard",
    "ContainmentMix",
    "ControllerCrash",
    "CrashGuard",
    "DrillComparison",
    "DrillResult",
    "FleetDrillResult",
    "FleetMix",
    "FleetQosAudit",
    "InvariantBreach",
    "InvariantChecker",
    "RecoveryDrillResult",
    "build_fleet",
    "run_chaos",
    "run_chaos_comparison",
    "run_fleet_comparison",
    "run_fleet_drill",
    "run_recovery_drill",
    "run_recovery_comparison",
    "uncontained_config",
    "unguarded_config",
]
