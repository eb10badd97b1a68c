"""Stay-Away configuration.

Defaults follow the paper where it gives numbers (beta starts at 0.01,
5 uncertainty samples, §3.2.3/§3.3) and otherwise use values calibrated
on the reproduction experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass
class StayAwayConfig:
    """All tunables of the Stay-Away runtime.

    Parameters
    ----------
    period:
        Control period in ticks: mapping, prediction and action all run
        every ``period`` ticks (§3: "runs on each host periodically").
    n_samples:
        Candidate next states drawn per prediction. The paper reports
        that 5 samples already reach >90% accuracy.
    majority:
        Fraction of candidates that must land in a violation-range to
        trigger throttling ("whenever a majority of the generated
        sample set fall within a violation range").
    min_steps_for_prediction:
        Steps a mode's trajectory model needs before its pdfs count as
        a usable first approximation.
    dedup_epsilon:
        Merge radius (normalized metric space) of the representative-
        sample optimization (§4).
    refit_interval:
        Run a full SMACOF refit after this many *new* representatives;
        between refits new states are placed incrementally.
    beta_initial / beta_increment:
        The resume threshold beta: "Initially beta is set to 0.01 ...
        the system increments beta by a small amount" on premature
        resumes (§3.3).
    resume_grace:
        Periods after a resume within which a new throttle counts as a
        premature resume (and bumps beta).
    starvation_patience:
        Throttled periods without a phase change before random probe
        resumes are considered (§3.3's anti-starvation factor).
    probe_probability:
        Per-period probability of a probe resume once patience ran out.
    aggregate_batch:
        Treat all batch containers as one logical VM (§5).
    enabled:
        When False the controller maps and predicts but never acts —
        used for the template-validation experiment (§7.3).
    per_mode_models:
        Keep one trajectory model per execution mode (the paper's
        design, §3.2.3). False collapses everything into a single
        global model — the ablation showing why per-mode matters.
    radius_law:
        "rayleigh" (the paper's §3.2.2 law) or "fixed" (ablation:
        constant ``fixed_radius`` discs around violation-states).
    fixed_radius:
        Disc radius used when ``radius_law == "fixed"``.
    seed:
        RNG seed for candidate sampling and probe decisions.
    sensor_guard:
        Validate measurement vectors (NaN/Inf, negative, implausible
        spikes) and impute rejects by last-good-value hold before they
        reach the mapping pipeline.
    degraded_mode:
        Run the health state machine: fall back to reactive-only
        throttling while monitoring or QoS is silent past its deadline,
        resynchronize before trusting predictions again.
    monitoring_deadline / qos_deadline:
        Silence deadlines (ticks) for the two input channels.
    resync_periods:
        Consecutive healthy periods required to re-enter predictive
        mode after a degradation.
    reconcile_actions:
        Diff the desired pause-set against actual container states each
        period and repair drift (external SIGCONT/kills racing the
        controller), with capped exponential retry backoff.
    action_backoff_cap:
        Maximum retry backoff in periods (exponential, capped).
    action_escalation_threshold:
        Consecutive failed repair attempts on one container before an
        ACTION_ESCALATION event is recorded.
    telemetry:
        Record self-telemetry: per-period trace spans and ``*_seconds``
        stage histograms around Mapping -> Prediction -> Action (see
        :mod:`repro.telemetry`). Counters and gauges stay live either
        way; disabling only removes the clock reads and span records
        (the delta measured by ``benchmarks/bench_perf_overhead.py``).
    fault_containment:
        Wrap each controller stage (guard, map, predict, act) in an
        exception firewall with a per-stage circuit breaker: a stage
        failure degrades that period instead of crashing the run. Off,
        a stage exception unwinds ``StayAway.on_tick`` — the behaviour
        ``benchmarks/bench_robustness_chaos.py`` compares against.
    breaker_error_budget:
        Stage failures within ``breaker_window`` periods before the
        stage's circuit breaker trips OPEN.
    breaker_window:
        Sliding error-budget window, in periods.
    breaker_cooldown:
        Periods an OPEN breaker holds before letting probes through
        (HALF_OPEN).
    model_watchdog:
        Check learned-state invariants every period (finite
        coordinates/representatives, sane violation-range geometry,
        finite step histograms, positive finite beta, stress
        non-divergence) and heal violations by geometry rebuild,
        representative quarantine or rollback to the last-known-good
        snapshot.
    snapshot_interval:
        Periods between automatic last-known-good model snapshots
        (taken only after a clean watchdog check).
    stream_watermark:
        Ticks of reorder slack in the streaming service's
        :class:`~repro.service.assembler.StreamAssembler`: tick ``t``
        closes once a record for ``t + stream_watermark`` has been
        seen. 0 closes each tick as soon as any record for it arrives.
    stream_stall_deadline:
        Ticks the service waits without the stream's newest data tick
        advancing before forcing the controller's
        :class:`~repro.core.resilience.DegradedModeMachine` into
        DEGRADED (reason ``stream-stall``).
    """

    period: int = 1
    n_samples: int = 5
    majority: float = 0.5
    min_steps_for_prediction: int = 3
    dedup_epsilon: float = 0.03
    refit_interval: int = 40
    beta_initial: float = 0.01
    beta_increment: float = 0.005
    resume_grace: int = 5
    starvation_patience: int = 20
    probe_probability: float = 0.15
    aggregate_batch: bool = True
    enabled: bool = True
    per_mode_models: bool = True
    radius_law: str = "rayleigh"
    fixed_radius: float = 0.05
    seed: int = 0
    sensor_guard: bool = True
    degraded_mode: bool = True
    monitoring_deadline: int = 10
    qos_deadline: int = 10
    resync_periods: int = 3
    reconcile_actions: bool = True
    action_backoff_cap: int = 8
    action_escalation_threshold: int = 3
    telemetry: bool = True
    fault_containment: bool = True
    breaker_error_budget: int = 3
    breaker_window: int = 20
    breaker_cooldown: int = 15
    model_watchdog: bool = True
    snapshot_interval: int = 50
    stream_watermark: int = 2
    stream_stall_deadline: int = 10

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError("period must be >= 1")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.min_steps_for_prediction < 1:
            raise ValueError("min_steps_for_prediction must be >= 1")
        if not 0.0 < self.majority <= 1.0:
            raise ValueError("majority must be in (0, 1]")
        threshold = math.ceil(self.majority * self.n_samples)
        if not 1 <= threshold <= self.n_samples:
            raise ValueError(
                f"majority={self.majority} with n_samples={self.n_samples} "
                f"yields an unreachable vote threshold {threshold}"
            )
        if self.dedup_epsilon < 0:
            raise ValueError("dedup_epsilon must be non-negative")
        if self.beta_initial <= 0:
            raise ValueError("beta_initial must be positive")
        if self.beta_increment < 0:
            raise ValueError("beta_increment must be non-negative")
        if not 0.0 <= self.probe_probability <= 1.0:
            raise ValueError("probe_probability must be in [0, 1]")
        if self.refit_interval < 1:
            raise ValueError("refit_interval must be >= 1")
        if self.resume_grace < 0:
            raise ValueError("resume_grace must be non-negative")
        if self.starvation_patience < 1:
            raise ValueError("starvation_patience must be >= 1")
        if self.radius_law not in ("rayleigh", "fixed"):
            raise ValueError(
                f"radius_law must be 'rayleigh' or 'fixed', got {self.radius_law!r}"
            )
        if self.fixed_radius < 0:
            raise ValueError("fixed_radius must be non-negative")
        if self.monitoring_deadline < 1:
            raise ValueError("monitoring_deadline must be >= 1")
        if self.qos_deadline < 1:
            raise ValueError("qos_deadline must be >= 1")
        if self.resync_periods < 1:
            raise ValueError("resync_periods must be >= 1")
        if self.action_backoff_cap < 1:
            raise ValueError("action_backoff_cap must be >= 1")
        if self.action_escalation_threshold < 1:
            raise ValueError("action_escalation_threshold must be >= 1")
        if self.breaker_error_budget < 1:
            raise ValueError("breaker_error_budget must be >= 1")
        if self.breaker_window < 1:
            raise ValueError("breaker_window must be >= 1")
        if self.breaker_cooldown < 1:
            raise ValueError("breaker_cooldown must be >= 1")
        if self.snapshot_interval < 1:
            raise ValueError("snapshot_interval must be >= 1")
        if self.stream_watermark < 0:
            raise ValueError("stream_watermark must be non-negative")
        if self.stream_stall_deadline < 1:
            raise ValueError("stream_stall_deadline must be >= 1")

    def vote_threshold(self) -> int:
        """Votes needed to flag an impending violation.

        ``ceil(majority * n_samples)``, compared with ``>=`` by the
        predictor. The previous strict ``votes > majority * n_samples``
        test made unanimity (``majority = 1.0``) unsatisfiable: with 5
        samples it demanded more than 5 votes. The ceiling keeps the
        paper's "majority of the generated sample set" reading (0.5
        with 5 samples still needs 3 votes) while every configured
        majority, including 1.0, stays reachable.
        """
        return max(1, math.ceil(self.majority * self.n_samples))
