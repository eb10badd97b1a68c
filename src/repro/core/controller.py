"""The Stay-Away controller: Mapping -> Prediction -> Action each period.

:class:`StayAway` is a simulation middleware (see
:class:`~repro.sim.engine.Middleware`): register it on a
:class:`~repro.sim.engine.SimulationEngine` alongside the host and it
will monitor, map, predict and throttle exactly as the paper's runtime
does on a physical host.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.core.action import ThrottleManager
from repro.core.config import StayAwayConfig
from repro.core.events import EventKind, EventLog
from repro.core.mapping import MappingPipeline
from repro.core.model_health import ModelHealthWatchdog
from repro.core.prediction import Prediction, Predictor
from repro.core.resilience import DegradedModeMachine
from repro.core.state_space import StateLabel, StateSpace
from repro.core.template import MapTemplate
from repro.monitoring.collector import MetricsCollector
from repro.monitoring.guard import SensorGuard
from repro.monitoring.normalize import CapacityNormalizer
from repro.monitoring.qos import QosTracker
from repro.observation import RUNNING, Observation
from repro.telemetry import Telemetry
from repro.trajectory.modes import ExecutionMode, classify_mode

if TYPE_CHECKING:
    from repro.sim.host import Host, HostSnapshot
    from repro.workloads.base import Application


class _StageOutcome:
    """Sentinel for a stage that produced no result this period."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<stage {self.name}>"


#: The stage raised and the firewall contained it.
STAGE_FAILED = _StageOutcome("failed")

#: Readings above this many times the host capacity for their metric are
#: rejected by the sensor guard as corruption rather than load.
PLAUSIBILITY_FACTOR = 4.0


@dataclass(frozen=True)
class TrajectoryPoint:
    """One controller period in the mapped space (for figures/analysis).

    Attributes
    ----------
    tick:
        Tick of the period.
    coords:
        Mapped 2-D coordinates.
    mode:
        Execution mode during the period.
    label:
        Safe/violation label of the underlying state.
    throttling:
        Whether batch containers were paused during this period
        (the "Action status" annotation of Figs. 6-7).
    """

    tick: int
    coords: np.ndarray
    mode: ExecutionMode
    label: StateLabel
    throttling: bool


class StayAway:
    """The paper's adaptive interference-mitigation runtime.

    Parameters
    ----------
    sensitive_app:
        The latency-sensitive application whose QoS reports label
        violation states. (Multiple sensitive apps can be protected by
        running one controller per app in the paper's priority scheme;
        the reproduction follows the paper's evaluated configuration of
        one sensitive app per host.)
    config:
        Tunables; defaults follow the paper.
    template:
        Optional map template from a previous execution of the same
        sensitive application (§6).
    throttle_target_selector:
        Optional override for which containers a throttle pauses (the
        §2.1 priority scheme uses this to demote lower-priority
        sensitive tenants; see :mod:`repro.core.priorities`).
    violation_detector:
        Optional replacement for the application-reported QoS channel —
        a :class:`~repro.monitoring.qos.QosChannel`, e.g.
        :class:`~repro.monitoring.ipc.IpcViolationDetector` for the
        §3.1 counter-based alternative that needs no application
        cooperation.
    telemetry:
        Optional pre-built :class:`~repro.telemetry.Telemetry`; by
        default one is created per controller, enabled according to
        ``config.telemetry``. All stage timers and period rows, and
        every count the controller and its parts report, live in its
        registry: one registry per controller.
    """

    def __init__(
        self,
        sensitive_app: Application,
        config: Optional[StayAwayConfig] = None,
        template: Optional[MapTemplate] = None,
        throttle_target_selector=None,
        violation_detector=None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.config = config if config is not None else StayAwayConfig()
        self.sensitive_app = sensitive_app
        self.events = EventLog()
        if telemetry is not None:
            self.telemetry = telemetry
        else:
            self.telemetry = Telemetry(enabled=self.config.telemetry)
        if template is not None:
            self.state_space = template.build_state_space(
                radius_law=self.config.radius_law,
                fixed_radius=self.config.fixed_radius,
                telemetry=self.telemetry,
            )
        else:
            self.state_space = StateSpace(
                epsilon=self.config.dedup_epsilon,
                radius_law=self.config.radius_law,
                fixed_radius=self.config.fixed_radius,
                telemetry=self.telemetry,
            )
        self.collector = MetricsCollector()
        if violation_detector is not None:
            self.qos = violation_detector
        else:
            self.qos = QosTracker(sensitive_app)
        self.predictor = Predictor(self.config, telemetry=self.telemetry)
        self.throttle = ThrottleManager(
            self.config,
            self.events,
            target_selector=throttle_target_selector,
            registry=self.telemetry.registry,
        )
        self.mapping: Optional[MappingPipeline] = None
        self.trajectory: List[TrajectoryPoint] = []
        if template is not None:
            self.throttle.beta = template.beta
        self.guard: Optional[SensorGuard] = None
        self.health: Optional[DegradedModeMachine] = None
        if self.config.resilience:
            self.health = DegradedModeMachine(
                self.events, registry=self.telemetry.registry
            )
        self.watchdog: Optional[ModelHealthWatchdog] = None
        if self.config.containment:
            self.watchdog = ModelHealthWatchdog(
                self.config, self.events, telemetry=self.telemetry
            )
        #: Periods where the acted-on impending-violation signal fired.
        self.alarm_ticks: List[int] = []
        self._qos_reports_seen = 0
        self._prev_coords: Optional[np.ndarray] = None
        self._prev_mode: Optional[ExecutionMode] = None
        self.last_prediction: Optional[Prediction] = None
        #: Tick of the last period run, mapped or not (None before any).
        self.last_period_tick: Optional[int] = None
        self._c_firewall = self.telemetry.counter(
            "containment.firewall_catches",
            help="stage exceptions contained by the firewall",
        )
        self._c_periods = self.telemetry.counter(
            "controller.periods", help="controller periods executed"
        )
        self._c_gaps = self.telemetry.counter(
            "controller.monitoring_gaps", help="periods with no usable measurement"
        )
        self._g_beta = self.telemetry.gauge(
            "action.beta", help="current learned resume threshold"
        )
        self._g_beta.set(self.throttle.beta)

    # -- middleware interface -------------------------------------------------
    def on_tick(self, snapshot: HostSnapshot, host: Host) -> None:
        """One monitoring tick, which is one period of the full mechanism.

        ``host`` is the whole port: the one ``observe(snapshot)`` here is
        all a period reads, ``pause`` / ``resume`` are all it writes.
        """
        observation = host.observe(snapshot)
        self.collector.on_tick(observation)
        self.qos.on_tick(snapshot, host)
        with self.telemetry.stage("controller.period", tick=observation.tick):
            self._period(observation, host)
        self._c_periods.inc()
        self.last_period_tick = observation.tick
        self._g_beta.set(self.throttle.beta)

    def _period(self, observation: Observation, actuator) -> None:
        tick = observation.tick
        if self.mapping is None:
            normalizer = CapacityNormalizer(
                observation.capacity, vm_count=len(self.collector.vm_names)
            )
            self.mapping = MappingPipeline(
                normalizer, self.state_space, telemetry=self.telemetry
            )
            if self.config.resilience and self.guard is None:
                self.guard = SensorGuard(
                    plausible_max=normalizer.scale * PLAUSIBILITY_FACTOR,
                    registry=self.telemetry.registry,
                )
            self.throttle.adopt(tick, observation)

        # 0. Reconcile the desired pause-set against reality before
        #    deciding anything on top of stale bookkeeping (what it
        #    re-pauses reads paused for the rest of the period).
        observation = self.throttle.reconcile(tick, observation, actuator)

        violated = self.qos.violation_now
        if violated:
            self.events.record(tick, EventKind.VIOLATION)

        mode = self._classify_mode(observation)

        # 0b. Sensor guard: validate/impute the raw measurement. A
        #     guard failure blinds this period (treated as a gap), it
        #     does not crash the run.
        guarded = self._call_stage("guard", tick, self._stage_guard, tick)
        if guarded is STAGE_FAILED:
            measurement, monitoring_ok = None, False
        else:
            measurement, monitoring_ok = guarded

        # 0c. Health state machine: degrade on silent channels,
        #     resynchronize before trusting predictions again.
        if self.health is not None:
            self.health.update(
                tick, monitoring_ok=monitoring_ok, qos_fresh=self._qos_channel_fresh()
            )
        predictive_allowed = self.health is None or self.health.predictive

        # 0d. Model-health watchdog: heal a poisoned learned state
        #     *before* this period maps or predicts over it.
        if self.watchdog is not None:
            self.watchdog.check_and_heal(tick, self)

        # 1. Mapping. A contained mapping failure degrades this period
        #    to the monitoring-gap path.
        mapped = None
        if measurement is not None:
            result = self._call_stage(
                "map", tick, self._stage_map, tick, measurement, violated
            )
            if result is not STAGE_FAILED:
                mapped = result
                if mapped.is_new_state:
                    self.events.record(
                        tick, EventKind.NEW_STATE, index=mapped.state_index
                    )
                if mapped.refitted:
                    self.events.record(
                        tick, EventKind.REFIT, states=len(self.state_space)
                    )

        if mapped is None:
            # Monitoring gap or contained mapping failure: nothing to
            # map. Stay conservative — keep reacting to observed
            # violations so the sensitive app is not left unprotected
            # while blind.
            self._c_gaps.inc()
            self._act(
                tick,
                observation,
                actuator,
                impending=False,
                observed=violated and mode is ExecutionMode.COLOCATED,
                distance=None,
            )
            self._prev_coords = None
            self._prev_mode = mode
            return

        # 2. Prediction. A contained predictor failure means no
        #    prediction this period.
        prediction = self._call_stage(
            "predict", tick, self._stage_predict, tick, mode, mapped.coords, violated
        )
        if prediction is STAGE_FAILED:
            prediction = None
        self.last_prediction = prediction
        impending = (
            prediction is not None
            and prediction.impending_violation
            and mode is ExecutionMode.COLOCATED
            and predictive_allowed
        )
        if impending:
            self.alarm_ticks.append(tick)
            self.events.record(
                tick, EventKind.PREDICTED_VIOLATION, votes=prediction.votes
            )

        # 3. Action.
        sensitive_distance = self._sensitive_step_distance(mode, mapped.coords)
        self._act(
            tick,
            observation,
            actuator,
            impending=impending,
            observed=violated and mode is ExecutionMode.COLOCATED,
            distance=sensitive_distance,
        )

        self.trajectory.append(
            TrajectoryPoint(
                tick=tick,
                coords=mapped.coords,
                mode=mode,
                label=mapped.label,
                throttling=self.throttle.throttling,
            )
        )
        self._prev_coords = mapped.coords
        self._prev_mode = mode

    # -- stages (patchable seams; each runs inside the firewall) ----------------
    def _stage_guard(self, tick: int):
        """Collect stage: validate/impute the raw measurement."""
        raw = self.collector.latest.values
        if self.guard is None:
            return raw, True
        verdict = self.guard.inspect(tick, raw)
        if not verdict.accepted:
            self.events.record(
                tick,
                EventKind.SENSOR_REJECT,
                reasons=[reason.value for reason in verdict.reasons],
                imputed=verdict.imputed,
            )
        return verdict.values, verdict.usable

    def _stage_map(self, tick: int, measurement: np.ndarray, violated: bool):
        """Mapping stage: measurement -> state -> 2-D coordinates."""
        with self.telemetry.stage("controller.map"):
            return self.mapping.map_measurement(tick, measurement, violated)

    def _stage_predict(
        self, tick: int, mode: ExecutionMode, coords: np.ndarray, violated: bool
    ) -> Optional[Prediction]:
        """Prediction stage: learn the step, vote over candidates."""
        with self.telemetry.stage("controller.predict"):
            self.predictor.observe(tick, mode, coords, self.state_space, violated)
            return self.predictor.predict(tick, mode, coords, self.state_space)

    def _stage_act(
        self,
        tick: int,
        observation: Observation,
        actuator,
        impending: bool,
        observed: bool,
        distance: Optional[float],
    ) -> bool:
        """Action stage: throttle/resume decision."""
        return self.throttle.step(
            tick,
            observation,
            actuator,
            impending_violation=impending,
            observed_violation=observed,
            sensitive_step_distance=distance,
        )

    # -- the exception firewall -------------------------------------------------
    def _call_stage(self, stage: str, tick: int, fn, *args, **kwargs):
        """Run one stage behind the exception firewall.

        With fault containment disabled this is a plain call — stage
        exceptions propagate and crash the run exactly as the naive
        runtime would. With containment on, an exception is counted and
        degrades this period only (``STAGE_FAILED``); the stage runs
        again next period.
        """
        if not self.config.containment:
            return fn(*args, **kwargs)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # sacheck: disable=SA108 -- stage firewall: contain any stage fault, degrade the period instead of crashing the run
            self._c_firewall.inc()
            self.events.record(
                tick,
                EventKind.FIREWALL_CATCH,
                stage=stage,
                error_type=type(exc).__name__,
                error=str(exc),
            )
            return STAGE_FAILED

    def _act(
        self,
        tick: int,
        observation: Observation,
        actuator,
        impending: bool,
        observed: bool,
        distance: Optional[float],
    ) -> bool:
        """Firewalled action stage with the pause-and-hold fail-safe.

        When the act stage raises the controller cannot trust its
        throttle/resume decision logic, so for this period it falls back
        to the safest action available: pause the batch containers (a
        no-op if already paused) and resume nothing.
        """
        result = self._call_stage(
            "act", tick, self._stage_act, tick, observation, actuator, impending, observed, distance
        )
        if result is STAGE_FAILED:
            throttled_now = self.throttle.preemptive_pause(tick, observation, actuator)
        else:
            throttled_now = result
        if throttled_now:
            # The predicted co-located state will never materialize.
            self.predictor.invalidate_pending()
        return throttled_now

    # -- helpers -----------------------------------------------------------------
    def _qos_channel_fresh(self) -> bool:
        """Whether the QoS channel produced a report since last period.

        A channel that has *never* reported is "still learning" rather
        than silent (the application may not have started yet); actual
        silence only begins after the first report.
        """
        count = len(self.qos.qos_series)
        fresh = count > self._qos_reports_seen
        self._qos_reports_seen = count
        return fresh

    def _classify_mode(self, observation: Observation) -> ExecutionMode:
        """Execution mode from this controller's perspective.

        "Sensitive" means the protected application itself; "batch"
        means anything this controller is allowed to throttle — by
        default the batch containers, but under the §2.1 priority
        scheme also lower-priority sensitive tenants.
        """
        sensitive_active = any(
            row.app is self.sensitive_app
            and row.state == RUNNING
            and not row.finished
            for row in observation.rows
        )
        batch_active = bool(self.throttle.throttle_targets(observation))
        return classify_mode(sensitive_active, batch_active)

    def _sensitive_step_distance(
        self, mode: ExecutionMode, coords: np.ndarray
    ) -> Optional[float]:
        """Distance between consecutive sensitive-only mapped states.

        Only defined while the system stays in SENSITIVE_ONLY mode for
        at least two consecutive periods (§3.3's resume criterion).
        """
        if (
            mode is ExecutionMode.SENSITIVE_ONLY
            and self._prev_mode is ExecutionMode.SENSITIVE_ONLY
            and self._prev_coords is not None
        ):
            return float(np.linalg.norm(coords - self._prev_coords))
        return None

    # -- results ------------------------------------------------------------------
    def export_template(self, **metadata) -> MapTemplate:
        """Snapshot the learned map for reuse in future executions (§6)."""
        return MapTemplate.from_state_space(
            self.state_space, beta=self.throttle.beta, metadata=metadata
        )

    def summary(self) -> dict:
        """Headline counters for reports and tests."""
        return {
            "periods": int(self._c_periods.value),
            "alarms": len(self.alarm_ticks),
            "states": len(self.state_space),
            "violation_states": int(self.state_space.violation_indices.size),
            "violations_observed": self.qos.violation_count,
            "violation_ratio": self.qos.violation_ratio(),
            "throttles": self.throttle.throttle_count,
            "resumes": self.throttle.resume_count,
            "probe_resumes": self.throttle.probe_resume_count,
            "beta": self.throttle.beta,
            "refits": self.state_space.refit_count,
            "outcome_accuracy": self.predictor.outcome_accuracy(),
            "resilience": {
                "guard": self.guard.summary() if self.guard is not None else None,
                "health": self.health.summary() if self.health is not None else None,
                "reconcile_repauses": self.throttle.reconcile_repauses,
                "reconcile_drops": self.throttle.reconcile_drops,
                "failed_actions": self.throttle.failed_actions,
                "escalations": self.throttle.escalations,
            },
            "telemetry": {
                "enabled": self.telemetry.enabled,
                "monitoring_gaps": int(self._c_gaps.value),
                "containment": {
                    "enabled": self.config.containment,
                    "firewall_catches": int(self._c_firewall.value),
                    "watchdog": (
                        self.watchdog.summary() if self.watchdog is not None else None
                    ),
                },
                "dedup_hit_rate": (
                    self.mapping.dedup_hit_rate() if self.mapping is not None else 0.0
                ),
                "geometry": self.state_space.geometry_stats(),
                "stages": self.telemetry.stage_summary(),
            },
        }
