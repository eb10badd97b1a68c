"""Chaos experiments: run Stay-Away on a deliberately hostile host.

The resilience layer (sensor guard, degraded modes, reconciliation) is
only worth its complexity if it measurably protects the sensitive
application when everything misbehaves at once. This module wires the
full seeded fault mix from :mod:`repro.sim.faults` around a scenario —
sensor corruption between host and controller, QoS-report dropout,
flapping batch containers, lossy actuators, demand spikes — runs it,
and reports the QoS damage plus the resilience layer's own telemetry.

The headline comparison (:func:`run_chaos_comparison`, used by
``benchmarks/bench_robustness_chaos.py``) runs the identical fault
script twice: once with the resilience layer on (default config) and
once with it off (``sensor_guard=False``, ``degraded_mode=False``,
``reconcile_actions=False``). Same seeds, same faults — any difference
in violation ratio is attributable to the resilience layer.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.core.config import StayAwayConfig
from repro.core.controller import StayAway
from repro.experiments.scenarios import BuiltScenario, Scenario
from repro.fleet import FleetCoordinator
from repro.sim.cluster import MIGRATION_IN_FLIGHT, Cluster
from repro.sim.container import Container
from repro.sim.engine import SimulationEngine
from repro.sim.faults import (
    ActuatorFaultInjector,
    ContainerFlapper,
    DemandSpiker,
    HostCrashInjector,
    InvariantChecker,
    ModelPoisoner,
    QosDropout,
    SensorCorruptor,
    StageExceptionInjector,
    TelemetryBlackout,
)
from repro.sim.host import Host
from repro.workloads.registry import make_workload


@dataclass(frozen=True)
class ChaosMix:
    """Knobs of the seeded fault cocktail.

    Parameters
    ----------
    seed:
        Base seed; each injector derives its own offset so the fault
        script is identical across policies under comparison.
    sensor_corruption:
        Per-tick probability of a corrupted observation (NaN/Inf,
        negative, spike or frozen replay).
    qos_dropout:
        Per-report probability of a swallowed QoS report.
    flap / kill / restart:
        Per-tick probabilities of external pause-toggle, kill and
        supervisor-restart on each batch container.
    actuator_loss:
        Probability a pause/resume signal is silently dropped.
    spike_windows / spike_factor:
        Demand-spike windows for the sensitive application.
    """

    seed: int = 0
    sensor_corruption: float = 0.05
    qos_dropout: float = 0.05
    flap: float = 0.01
    kill: float = 0.0
    restart: float = 0.01
    actuator_loss: float = 0.2
    spike_windows: Tuple[Tuple[int, int], ...] = ()
    spike_factor: float = 2.0


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
        The deepest frame of the traceback (``file:line in func``).
    """

    tick: int
    error_type: str
    message: str
    fault: Optional[str] = None
    trace: Optional[str] = None


class CrashGuard:
    """Middleware wrapper isolating controller crashes.

    An unguarded controller fed NaN measurements can die outright (the
    MDS placement asserts on non-finite distances). On a real host that
    means the runtime process is gone: nothing resumes the containers
    it paused and nothing protects the sensitive application anymore.
    This wrapper reproduces that: after the first uncaught exception
    the controller is never invoked again — only its QoS tracker keeps
    observing so the violation accounting stays comparable. The crash's
    full context (tick, exception, injected-fault name, deepest frame)
    is retained in :attr:`crash` for the experiment report.
    """

    def __init__(self, controller: StayAway) -> None:
        self.controller = controller
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

    def on_tick(self, snapshot, host) -> None:
        if self.crash is not None:
            self.controller.qos.on_tick(snapshot, host)
            return
        try:
            self.controller.on_tick(snapshot, host)
        except Exception as exc:  # sacheck: disable=SA108 -- models the dead runtime: any uncaught controller exception kills the process for the rest of the run
            frames = traceback.extract_tb(exc.__traceback__)
            deepest = frames[-1] if frames else None
            self.crash = ControllerCrash(
                tick=snapshot.tick,
                error_type=type(exc).__name__,
                message=str(exc),
                fault=getattr(exc, "fault_name", None),
                trace=(
                    f"{deepest.filename}:{deepest.lineno} in {deepest.name}"
                    if deepest is not None
                    else None
                ),
            )


@dataclass
class ChaosResult:
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
    corruptor / flapper / qos_dropout / actuators / spiker:
        The injectors, for fault-census assertions.
    """

    scenario: Scenario
    mix: ChaosMix
    built: BuiltScenario
    controller: StayAway
    checker: InvariantChecker
    corruptor: SensorCorruptor
    flapper: ContainerFlapper
    qos_dropout: QosDropout
    actuators: ActuatorFaultInjector
    crash_guard: Optional[CrashGuard] = None
    spiker: Optional[DemandSpiker] = None
    faults_injected: int = 0

    @property
    def crashed_at(self) -> Optional[int]:
        """Tick the controller died at (None = survived the run)."""
        return None if self.crash_guard is None else self.crash_guard.crashed_at

    def violation_ratio(self) -> float:
        """Fraction of reported ticks in QoS violation."""
        return self.controller.qos.violation_ratio()

    def summary(self) -> dict:
        """Controller summary + fault census + invariant verdict."""
        return {
            "controller": self.controller.summary(),
            "violation_ratio": self.violation_ratio(),
            "crashed_at": self.crashed_at,
            "faults": {
                "sensor_corruptions": len(self.corruptor.corrupted_ticks),
                "qos_reports_dropped": self.qos_dropout.dropped_reports,
                "container_flaps": len(self.flapper.fired),
                "actuator_drops": len(self.actuators.dropped_signals),
                "total": self.faults_injected,
            },
            "invariants": self.checker.summary(),
        }


def unguarded_config(config: Optional[StayAwayConfig] = None) -> StayAwayConfig:
    """The same controller with the entire resilience layer disabled."""
    base = config if config is not None else StayAwayConfig()
    return replace(
        base, sensor_guard=False, degraded_mode=False, reconcile_actions=False
    )


def run_chaos(
    scenario: Scenario,
    mix: Optional[ChaosMix] = None,
    config: Optional[StayAwayConfig] = None,
) -> ChaosResult:
    """Run a scenario under the chaos mix with a Stay-Away controller.

    Middleware order matters and encodes the threat model:

    1. the **flapper** fires first, so the controller's reconciliation
       sees external drift the same period it happens;
    2. the **controller** observes through the **corruptor** (only its
       view is corrupted — the host truth is intact);
    3. the **invariant checker** runs last, auditing the controller's
       bookkeeping against the host truth after every period.
    """
    mix = mix if mix is not None else ChaosMix()
    built = scenario.build(include_batch=True)
    host = built.host

    controller = StayAway(built.sensitive_app, config=config)
    crash_guard = CrashGuard(controller)
    corruptor = SensorCorruptor(
        crash_guard, seed=mix.seed + 11, probability=mix.sensor_corruption
    )
    qos_dropout = QosDropout(
        built.sensitive_app, probability=mix.qos_dropout, seed=mix.seed + 23
    )
    batch_names = [container.name for container in host.batch_containers()]
    flapper = ContainerFlapper(
        batch_names,
        seed=mix.seed + 37,
        flap_probability=mix.flap,
        kill_probability=mix.kill,
        restart_probability=mix.restart,
    )
    actuators = ActuatorFaultInjector(
        host, seed=mix.seed + 41, probability=mix.actuator_loss
    ).install()
    spiker = (
        DemandSpiker(
            built.sensitive_app,
            windows=list(mix.spike_windows),
            factor=mix.spike_factor,
        )
        if mix.spike_windows
        else None
    )
    checker = InvariantChecker(controller)

    engine = SimulationEngine(host)
    engine.add_middleware(flapper)
    engine.add_middleware(corruptor)  # wraps the controller
    engine.add_middleware(checker)
    try:
        engine.run(ticks=scenario.ticks)
    finally:
        actuators.remove()
        qos_dropout.remove()
        if spiker is not None:
            spiker.remove()

    faults = (
        len(corruptor.corrupted_ticks)
        + qos_dropout.dropped_reports
        + len(flapper.fired)
        + len(actuators.dropped_signals)
    )
    return ChaosResult(
        scenario=scenario,
        mix=mix,
        built=built,
        controller=controller,
        checker=checker,
        corruptor=corruptor,
        flapper=flapper,
        qos_dropout=qos_dropout,
        actuators=actuators,
        crash_guard=crash_guard,
        spiker=spiker,
        faults_injected=faults,
    )


@dataclass
class ChaosComparison:
    """Resilient vs unguarded controller under the identical fault script."""

    resilient: ChaosResult
    unguarded: ChaosResult

    @property
    def improvement(self) -> float:
        """Absolute violation-ratio reduction from the resilience layer."""
        return self.unguarded.violation_ratio() - self.resilient.violation_ratio()

    def summary(self) -> dict:
        return {
            "resilient": self.resilient.summary(),
            "unguarded": self.unguarded.summary(),
            "improvement": self.improvement,
        }


def run_chaos_comparison(
    scenario: Scenario,
    mix: Optional[ChaosMix] = None,
    config: Optional[StayAwayConfig] = None,
) -> ChaosComparison:
    """Run the same seeded chaos twice: resilience on vs off."""
    resilient = run_chaos(scenario, mix=mix, config=config)
    unguarded = run_chaos(scenario, mix=mix, config=unguarded_config(config))
    return ChaosComparison(resilient=resilient, unguarded=unguarded)


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
        fails every period — the deterministic outage that drives a
        breaker through trip, cooldown and recovery.
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

    No exception firewall, no circuit breakers, no model-health
    watchdog — a stage exception propagates and (under
    :class:`CrashGuard`) kills the runtime, exactly like the naive
    implementation.
    """
    base = config if config is not None else StayAwayConfig()
    return replace(base, fault_containment=False, model_watchdog=False)


@dataclass
class RecoveryDrillResult:
    """Outcome of one recovery drill.

    Attributes
    ----------
    scenario / mix:
        What was run and under which internal-fault cocktail.
    built / controller / checker:
        The instantiated scenario, the controller and the riding
        invariant checker.
    crash_guard:
        Crash forensics (an uncontained run usually dies here).
    injector / poisoner:
        The fault injectors, for fault-census assertions.
    """

    scenario: Scenario
    mix: ContainmentMix
    built: BuiltScenario
    controller: StayAway
    checker: InvariantChecker
    crash_guard: CrashGuard
    injector: StageExceptionInjector
    poisoner: ModelPoisoner

    @property
    def crashed_at(self) -> Optional[int]:
        """Tick the controller died at (None = survived the run)."""
        return self.crash_guard.crashed_at

    @property
    def crash(self) -> Optional[ControllerCrash]:
        """Full crash forensics, if the run died."""
        return self.crash_guard.crash

    def violation_ratio(self) -> float:
        """Fraction of reported ticks in QoS violation."""
        return self.controller.qos.violation_ratio()

    def recovery_times(self) -> list:
        """Trip-to-reset durations (ticks) across all stage breakers."""
        if self.controller.breakers is None:
            return []
        times: list = []
        for breaker in self.controller.breakers.breakers.values():
            times.extend(breaker.recovery_times())
        return times

    def summary(self) -> dict:
        """Controller summary + fault census + containment verdict."""
        times = self.recovery_times()
        containment = self.controller.summary()["telemetry"]["containment"]
        return {
            "controller": self.controller.summary(),
            "violation_ratio": self.violation_ratio(),
            "crashed_at": self.crashed_at,
            "crash": (
                None
                if self.crash is None
                else {
                    "tick": self.crash.tick,
                    "error_type": self.crash.error_type,
                    "message": self.crash.message,
                    "fault": self.crash.fault,
                    "trace": self.crash.trace,
                }
            ),
            "faults": {
                "stage_faults": len(self.injector.fired),
                "poisons": len(self.poisoner.fired),
                "total": len(self.injector.fired) + len(self.poisoner.fired),
            },
            "containment": containment,
            "recovery": {
                "recoveries": len(times),
                "mean_recovery_ticks": (sum(times) / len(times)) if times else 0.0,
                "max_recovery_ticks": max(times) if times else 0,
            },
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
    containment machinery (firewall, breakers, watchdog), or — with
    :func:`uncontained_config` — its absence.
    """
    mix = mix if mix is not None else ContainmentMix()
    built = scenario.build(include_batch=True)
    host = built.host

    controller = StayAway(built.sensitive_app, config=config)
    crash_guard = CrashGuard(controller)
    injector = StageExceptionInjector(
        controller,
        seed=mix.seed + 53,
        probability=mix.stage_fault,
        stages=mix.stages,
    )
    for start, end, stage in mix.fault_windows:
        injector.during(start, end, stage)
    injector.install()
    poisoner = ModelPoisoner(
        controller,
        seed=mix.seed + 67,
        probability=mix.poison,
        kinds=mix.poison_kinds,
    )
    checker = InvariantChecker(controller)

    engine = SimulationEngine(host)
    engine.add_middleware(crash_guard)
    # The checker audits the controller's own bookkeeping, so it runs
    # before the poisoner: damage injected this tick is the watchdog's
    # to find next period, not an instant invariant breach.
    engine.add_middleware(checker)
    engine.add_middleware(poisoner)
    try:
        engine.run(ticks=scenario.ticks)
    finally:
        injector.remove()

    return RecoveryDrillResult(
        scenario=scenario,
        mix=mix,
        built=built,
        controller=controller,
        checker=checker,
        crash_guard=crash_guard,
        injector=injector,
        poisoner=poisoner,
    )


@dataclass
class RecoveryComparison:
    """Contained vs uncontained controller under identical internal faults."""

    contained: RecoveryDrillResult
    uncontained: RecoveryDrillResult

    @property
    def improvement(self) -> float:
        """Absolute violation-ratio reduction from fault containment."""
        return self.uncontained.violation_ratio() - self.contained.violation_ratio()

    def summary(self) -> dict:
        return {
            "contained": self.contained.summary(),
            "uncontained": self.uncontained.summary(),
            "improvement": self.improvement,
        }


def run_recovery_comparison(
    scenario: Scenario,
    mix: Optional[ContainmentMix] = None,
    config: Optional[StayAwayConfig] = None,
) -> RecoveryComparison:
    """Run the same seeded internal-fault script twice: containment on vs off."""
    contained = run_recovery_drill(scenario, mix=mix, config=config)
    uncontained = run_recovery_drill(
        scenario, mix=mix, config=uncontained_config(config)
    )
    return RecoveryComparison(contained=contained, uncontained=uncontained)


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


class ClusterCrashGuard:
    """Catch the first exception escaping a cluster middleware.

    The fleet analogue of :class:`CrashGuard`: the drill must finish
    and report even when the coordinator dies, because "the coordinator
    stayed crash-free end to end" is an assertion the benchmark makes,
    not an assumption it is allowed to bake in. After the first
    exception the inner middleware is never driven again — a dead
    control plane, frozen at its moment of death.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.crashed_at: Optional[int] = None
        self.error: Optional[BaseException] = None

    def on_cluster_tick(self, snapshots, cluster) -> None:
        if self.crashed_at is not None:
            return
        try:
            self.inner.on_cluster_tick(snapshots, cluster)
        except Exception as exc:  # sacheck: disable=SA108 -- crash forensics: the drill must record any coordinator death and keep the cluster running to the end
            self.crashed_at = cluster.clock.tick - 1
            self.error = exc


@dataclass
class FleetDrillResult:
    """Outcome of one fleet chaos drill arm.

    Attributes
    ----------
    mix / arm:
        What was run; arm is ``coordinator`` / ``per-host`` / ``none``.
    cluster / coordinator / audit / crash_injector:
        The run's machinery, for assertions and summaries. The
        coordinator is None in the ``none`` arm.
    guard:
        The :class:`ClusterCrashGuard` around the coordinator (None in
        the ``none`` arm); ``guard.crashed_at`` is the crash-free
        assertion's evidence.
    """

    mix: FleetMix
    arm: str
    cluster: Cluster
    coordinator: Optional[FleetCoordinator]
    audit: FleetQosAudit
    crash_injector: HostCrashInjector
    guard: Optional[ClusterCrashGuard] = None

    @property
    def crashed_at(self) -> Optional[int]:
        """Tick the coordinator died at (None = survived or no arm)."""
        return self.guard.crashed_at if self.guard is not None else None

    def violation_ratio(self) -> float:
        """Fleet-wide sensitive QoS violation ratio (audit instrument)."""
        return self.audit.violation_ratio()

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
        mix=mix,
        arm=arm,
        cluster=cluster,
        coordinator=coordinator,
        audit=audit,
        crash_injector=crash_injector,
        guard=guard,
    )


@dataclass
class FleetComparison:
    """All three fleet arms under the identical fault script."""

    coordinator: FleetDrillResult
    per_host: FleetDrillResult
    none: FleetDrillResult

    @property
    def improvement(self) -> float:
        """Violation-ratio reduction of coordinator over per-host-only."""
        return (
            self.per_host.violation_ratio() - self.coordinator.violation_ratio()
        )

    def summary(self) -> dict:
        return {
            "coordinator": self.coordinator.summary(),
            "per_host": self.per_host.summary(),
            "none": self.none.summary(),
            "improvement": self.improvement,
        }


def run_fleet_comparison(
    mix: Optional[FleetMix] = None,
    config: Optional[StayAwayConfig] = None,
) -> FleetComparison:
    """Run the same seeded host-failure script across all three arms."""
    return FleetComparison(
        coordinator=run_fleet_drill(mix, arm="coordinator", config=config),
        per_host=run_fleet_drill(mix, arm="per-host", config=config),
        none=run_fleet_drill(mix, arm="none", config=config),
    )


__all__ = [
    "ChaosComparison",
    "ChaosMix",
    "ChaosResult",
    "ClusterCrashGuard",
    "ContainmentMix",
    "ControllerCrash",
    "CrashGuard",
    "FleetComparison",
    "FleetDrillResult",
    "FleetMix",
    "FleetQosAudit",
    "RecoveryComparison",
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
