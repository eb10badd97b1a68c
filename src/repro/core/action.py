"""The Action step: throttle and resume batch containers.

§3.3 of the paper:

* **Throttle**: send SIGSTOP to the batch application(s) when a
  transition toward a violation is predicted (or a violation is
  observed while learning).
* **Resume**: while throttled only the sensitive application runs; the
  consecutive mapped states of that isolated execution stay close while
  the sensitive app remains in the same phase. When the distance
  between consecutive states exceeds the learning parameter ``beta``
  (initially 0.01), a phase/workload change happened and the batch
  application is resumed (SIGCONT).
* **beta learning**: if a resume is immediately followed by a new
  throttle, the phase change was too small — ``beta`` is incremented.
* **Anti-starvation**: if the sensitive app never changes phase, a
  random probe resume gives the batch app a chance; if it degrades QoS
  again it is simply paused again.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import StayAwayConfig
from repro.core.events import EventKind, EventLog
from repro.observation import PAUSED, RUNNING, STOPPED, Observation
from repro.telemetry.registry import MetricRegistry

#: Periods after a phase-change resume within which a new throttle
#: counts as premature and raises beta.
RESUME_GRACE = 5
#: Cap on a failed repair's retry backoff, in periods (``2**failures``
#: below it).
RETRY_BACKOFF_CAP = 8
#: Consecutive failed repairs of one container that raise an
#: ``ACTION_ESCALATION`` event.
ESCALATION_THRESHOLD = 3


class ResumeReason(enum.Enum):
    """Why the batch applications were last resumed."""

    PHASE_CHANGE = "phase-change"
    PROBE = "probe"


class ThrottleManager:
    """Owns the throttle state machine and the beta threshold.

    It reads the period's :class:`~repro.observation.Observation` and
    writes through an ``actuator``: ``pause(name)`` / ``resume(name)``
    answering "the container is in that state now".
    """

    def __init__(
        self,
        config: StayAwayConfig,
        events: EventLog,
        target_selector: Optional[Callable[[Observation], List[str]]] = None,
        registry: Optional[MetricRegistry] = None,
    ) -> None:
        self.config = config
        self.events = events
        self.rng = np.random.default_rng(config.seed + 1)
        self._target_selector = target_selector
        self.beta = config.beta_initial
        self.throttling = False
        self.metrics = registry if registry is not None else MetricRegistry()
        self._c_throttles = self.metrics.counter(
            "action.throttles", help="throttle rounds fired (SIGSTOP batch)"
        )
        self._c_resumes = self.metrics.counter(
            "action.resumes", help="resume rounds (SIGCONT batch)"
        )
        self._c_probe_resumes = self.metrics.counter(
            "action.probe_resumes", help="anti-starvation probe resumes"
        )
        self._c_repauses = self.metrics.counter(
            "action.reconcile_repauses",
            help="externally-resumed containers re-paused by reconciliation",
        )
        self._c_drops = self.metrics.counter(
            "action.reconcile_drops",
            help="vanished containers dropped from the pause-set",
        )
        self._c_failed = self.metrics.counter(
            "action.failed", help="repairs (re-pause or resume) that did not take effect"
        )
        self._c_escalations = self.metrics.counter(
            "action.escalations", help="repair retry budgets exhausted"
        )
        self._paused_names: List[str] = []
        self._last_resume_tick: Optional[int] = None
        self._last_resume_reason: Optional[ResumeReason] = None
        self._stagnant_periods = 0
        # Reconciliation bookkeeping: per-container (failures, next retry
        # tick) for repairs that did not take effect yet — pause-set
        # members found running, and resumes whose SIGCONT was lost.
        self._retry: Dict[str, Tuple[int, int]] = {}
        self._unresumed: Dict[str, Tuple[int, int]] = {}

    # -- counters (registry-backed) ---------------------------------------
    @property
    def throttle_count(self) -> int:
        """Throttle rounds fired so far."""
        return int(self._c_throttles.value)

    @property
    def resume_count(self) -> int:
        """Resume rounds so far (probe resumes included)."""
        return int(self._c_resumes.value)

    @property
    def probe_resume_count(self) -> int:
        """Anti-starvation probe resumes so far."""
        return int(self._c_probe_resumes.value)

    @property
    def reconcile_repauses(self) -> int:
        """Externally-resumed containers re-paused by reconciliation."""
        return int(self._c_repauses.value)

    @property
    def reconcile_drops(self) -> int:
        """Vanished containers dropped from the desired pause-set."""
        return int(self._c_drops.value)

    @property
    def failed_actions(self) -> int:
        """Repairs (re-pause or resume) that did not take effect."""
        return int(self._c_failed.value)

    @property
    def escalations(self) -> int:
        """Repair retry budgets exhausted (operator attention needed)."""
        return int(self._c_escalations.value)

    # -- target selection -------------------------------------------------
    def throttle_targets(self, observation: Observation) -> List[str]:
        """Containers to pause when a throttle fires.

        By default: every running batch container. The paper
        collectively throttles "the batch applications consuming a
        majority share of resources" (§5); with the logical-VM
        aggregation every running batch container is part of that
        collective. A custom ``target_selector`` can widen the set —
        e.g. the §2.1 priority scheme also targets lower-priority
        sensitive containers (see :mod:`repro.core.priorities`).
        """
        if self._target_selector is not None:
            return self._target_selector(observation)
        return [
            row.name
            for row in observation.rows
            if not row.sensitive and row.state == RUNNING and not row.finished
        ]

    @property
    def desired_paused(self) -> List[str]:
        """Containers the manager believes it is currently pausing."""
        return list(self._paused_names)

    @property
    def pending_retries(self) -> Dict[str, int]:
        """Unresolved repair attempts: container name -> failure count."""
        return {name: failures for name, (failures, _) in self._retry.items()}

    # -- reconciliation ----------------------------------------------------
    def adopt(self, tick: int, observation: Observation) -> None:
        """Take over the batch containers a starting controller finds paused.

        Stay-Away is the only agent on its host that pauses batch
        containers, so a paused one was left paused by a controller
        that came before this one (a restarted process, a crashed fleet
        cell). Adding them to the pause-set makes them this
        controller's to hand back: the phase-change and probe resume
        rules apply to them as to its own.
        """
        if not self.config.enabled:
            return
        found = [
            row.name
            for row in observation.rows
            if not row.sensitive and row.state == PAUSED and not row.finished
        ]
        if not found:
            return
        self._paused_names.extend(found)
        self.throttling = True
        self.events.record(tick, EventKind.RECONCILE, targets=found, action="adopt")

    def reconcile(self, tick: int, observation: Observation, actuator) -> Observation:
        """Repair drift between the desired pause-set and reality.

        External agents race the controller: an operator SIGCONTs a
        container we paused, a supervisor restarts a crash-looping job,
        an OOM-kill removes a paused container, an actuator fault
        swallows a signal. Each period the desired pause-set is diffed
        against actual container states; externally-resumed containers
        are re-paused with capped exponential backoff, vanished ones
        are dropped from the bookkeeping, and repeated failures raise
        an escalation event. A resume whose signal was lost is resent
        the same way until the container reads running or leaves —
        unless a throttle is active by then, which takes the
        still-paused container into its pause-set instead.

        Returns the observation with the re-paused (resumed) containers
        reading paused (running): what the rest of the period must
        decide on.
        """
        if not self.config.resilience:
            return observation
        if self._unresumed:
            observation = self._repair_resumes(tick, observation, actuator)
        if not self.throttling:
            return observation
        states = observation.states()
        repaused: List[str] = []
        for name in list(self._paused_names):
            state = states.get(name)
            if state is None or state == STOPPED:
                self._paused_names.remove(name)
                self._retry.pop(name, None)
                self._c_drops.inc()
                self.events.record(
                    tick, EventKind.RECONCILE, target=name, action="drop"
                )
                continue
            if state != RUNNING:
                self._retry.pop(name, None)
                continue
            # Externally resumed (or a pause that never landed).
            failures, next_tick = self._retry.get(name, (0, tick))
            if tick < next_tick:
                continue
            if actuator.pause(name):
                repaused.append(name)
                self._retry.pop(name, None)
                self._c_repauses.inc()
                self.events.record(
                    tick,
                    EventKind.RECONCILE,
                    target=name,
                    action="repause",
                    retries=failures,
                )
            else:
                self._repair_failed(tick, self._retry, name, failures + 1)
        if not self._paused_names:
            self.throttling = False
        return observation.with_state(repaused, PAUSED)

    def _repair_resumes(self, tick: int, observation: Observation, actuator) -> Observation:
        """Resend the resumes that did not land (see :meth:`reconcile`)."""
        states = observation.states()
        resumed: List[str] = []
        for name, (failures, next_tick) in list(self._unresumed.items()):
            if states.get(name) != PAUSED:
                del self._unresumed[name]
            elif self.throttling:
                del self._unresumed[name]
                if name not in self._paused_names:
                    self._paused_names.append(name)
            elif tick < next_tick:
                continue
            elif actuator.resume(name):
                del self._unresumed[name]
                resumed.append(name)
                self.events.record(
                    tick, EventKind.RECONCILE, target=name, action="resume", retries=failures
                )
            else:
                self._repair_failed(tick, self._unresumed, name, failures + 1)
        return observation.with_state(resumed, RUNNING)

    def _repair_failed(
        self, tick: int, pending: Dict[str, Tuple[int, int]], name: str, failures: int
    ) -> None:
        """Count a repair that did not take effect, back its retry off
        (capped) and escalate once ``ESCALATION_THRESHOLD`` is reached."""
        pending[name] = (failures, tick + min(2 ** failures, RETRY_BACKOFF_CAP))
        self._c_failed.inc()
        self.events.record(tick, EventKind.ACTION_FAILED, target=name, failures=failures)
        if failures == ESCALATION_THRESHOLD:
            self._c_escalations.inc()
            self.events.record(
                tick, EventKind.ACTION_ESCALATION, target=name, failures=failures
            )

    def preemptive_pause(self, tick: int, observation: Observation, actuator) -> bool:
        """Pause every throttle target immediately (degraded-mode entry).

        Flying blind — monitoring or QoS silent — the conservative move
        is to protect the sensitive application first and let the batch
        work wait until the channels resynchronize.
        """
        if self.throttling:
            return False
        targets = self.throttle_targets(observation)
        if not targets:
            return False
        self._paused_names = targets
        self._retry.clear()
        self._throttle(
            tick, actuator, targets, predicted=False, observed=False, degraded=True
        )
        return True

    def _throttle(self, tick: int, actuator, names: List[str], **detail) -> None:
        """One throttle round: pause ``names``, registering an immediate
        retry for any pause that did not land.

        A lost SIGSTOP leaves the container running while the pause-set
        believes it stopped; recording the pending repair *now* keeps
        the bookkeeping honest between reconciliation rounds.
        """
        for name in names:
            if not actuator.pause(name) and self.config.resilience:
                self._retry[name] = (0, tick)
        self.throttling = True
        self._c_throttles.inc()
        self._stagnant_periods = 0
        self.events.record(tick, EventKind.THROTTLE, targets=list(names), **detail)

    # -- the per-period decision ---------------------------------------------
    def step(
        self,
        tick: int,
        observation: Observation,
        actuator,
        impending_violation: bool,
        observed_violation: bool,
        sensitive_step_distance: Optional[float],
    ) -> bool:
        """Run one action round. Returns True when a throttle fired.

        Parameters
        ----------
        impending_violation:
            The predictor's majority vote tripped this period.
        observed_violation:
            The sensitive application actually reported a violation
            this period (reactive path used during early learning).
        sensitive_step_distance:
            Distance between the two most recent consecutive
            sensitive-only mapped states (None when unavailable, e.g.
            right after throttling).
        """
        if not self.config.enabled:
            return False
        if self.throttling:
            if self._consider_extension(
                tick, observation, actuator, impending_violation, observed_violation
            ):
                return True
            self._consider_resume(tick, observation, actuator, sensitive_step_distance)
            return False
        return self._consider_throttle(
            tick, observation, actuator, impending_violation, observed_violation
        )

    def _consider_extension(
        self,
        tick: int,
        observation: Observation,
        actuator,
        impending_violation: bool,
        observed_violation: bool,
    ) -> bool:
        """Extend an active throttle to batch containers that arrived
        (or were manually resumed) after the original pause.

        Without this, a new batch job scheduled mid-throttle would run
        unthrottled while the manager waits to resume the old one.
        """
        if not (impending_violation or observed_violation):
            return False
        newcomers = [
            name for name in self.throttle_targets(observation) if name not in self._paused_names
        ]
        if not newcomers:
            return False
        self._paused_names.extend(newcomers)
        self._throttle(
            tick,
            actuator,
            newcomers,
            predicted=impending_violation,
            observed=observed_violation,
            extension=True,
        )
        return True

    def _consider_throttle(
        self,
        tick: int,
        observation: Observation,
        actuator,
        impending_violation: bool,
        observed_violation: bool,
    ) -> bool:
        if not (impending_violation or observed_violation):
            return False
        targets = self.throttle_targets(observation)
        if not targets:
            return False
        self._paused_names = targets
        self._retry.clear()
        self._throttle(
            tick,
            actuator,
            targets,
            predicted=impending_violation,
            observed=observed_violation,
        )
        # A throttle right after a phase-change resume means beta was
        # too permissive: require a bigger phase change next time.
        if (
            self._last_resume_tick is not None
            and self._last_resume_reason is ResumeReason.PHASE_CHANGE
            and tick - self._last_resume_tick <= RESUME_GRACE
        ):
            self.beta += self.config.beta_increment
            self.events.record(tick, EventKind.BETA_INCREMENT, beta=self.beta)
        return True

    def _consider_resume(
        self,
        tick: int,
        observation: Observation,
        actuator,
        sensitive_step_distance: Optional[float],
    ) -> None:
        states = observation.states()
        resumable = [
            name for name in self._paused_names if states.get(name) == PAUSED
        ]
        if not resumable:
            # Batch jobs finished or were removed while paused.
            self.throttling = False
            self._paused_names = []
            self._retry.clear()
            return

        if sensitive_step_distance is not None and sensitive_step_distance > self.beta:
            self._resume(tick, actuator, resumable, ResumeReason.PHASE_CHANGE)
            return

        self._stagnant_periods += 1
        if self._stagnant_periods >= self.config.starvation_patience:
            if self.rng.uniform() < self.config.probe_probability:
                self._resume(tick, actuator, resumable, ResumeReason.PROBE)

    def _resume(
        self, tick: int, actuator, names: List[str], reason: ResumeReason
    ) -> None:
        for name in names:
            if not actuator.resume(name) and self.config.resilience:
                self._unresumed[name] = (0, tick)
        self.throttling = False
        self._paused_names = []
        self._retry.clear()
        self._stagnant_periods = 0
        self._last_resume_tick = tick
        self._last_resume_reason = reason
        self._c_resumes.inc()
        if reason is ResumeReason.PROBE:
            self._c_probe_resumes.inc()
            self.events.record(tick, EventKind.PROBE_RESUME, targets=list(names))
        else:
            self.events.record(
                tick, EventKind.RESUME, targets=list(names), beta=self.beta
            )
