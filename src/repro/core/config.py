"""Stay-Away configuration.

Defaults follow the paper where it gives numbers (beta starts at 0.01,
5 uncertainty samples, §3.2.3/§3.3) and otherwise use values calibrated
on the reproduction experiments. A value no caller varies is a constant
beside the code that reads it, not a field here.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class StayAwayConfig:
    """The tunables of the Stay-Away runtime.

    The controller runs one period per monitoring tick (§3: "runs on
    each host periodically"), and a prediction flags an impending
    violation when a majority of its ``n_samples`` candidates land in a
    violation range.

    Parameters
    ----------
    n_samples:
        Candidate next states drawn per prediction. The paper reports
        that 5 samples already reach >90% accuracy.
    dedup_epsilon:
        Merge radius (normalized metric space) of the representative-
        sample optimization (§4).
    beta_initial / beta_increment:
        The resume threshold beta: "Initially beta is set to 0.01 ...
        the system increments beta by a small amount" on premature
        resumes (§3.3).
    starvation_patience:
        Throttled periods without a phase change before random probe
        resumes are considered (§3.3's anti-starvation factor).
    probe_probability:
        Per-period probability of a probe resume once patience ran out.
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
    resilience:
        The three defences against a faulty world, on or off together:
        the sensor guard (validate measurement vectors — NaN/Inf,
        negative, implausible spikes — and impute rejects by
        last-good-value hold before they reach the mapping pipeline),
        the health state machine (fall back to reactive-only throttling
        while monitoring or QoS is silent past its deadline,
        resynchronize before trusting predictions again) and action
        reconciliation (diff the desired pause-set against actual
        container states each period and repair drift — external
        SIGCONT/kills racing the controller — with capped exponential
        retry backoff). Off is the paper-faithful fragile controller
        ``benchmarks/bench_robustness_chaos.py`` compares against.
    telemetry:
        Record self-telemetry: per-period trace spans and ``*_seconds``
        stage histograms around Mapping -> Prediction -> Action (see
        :mod:`repro.telemetry`). Counters and gauges stay live either
        way; disabling only removes the clock reads and span records
        (the delta measured by ``benchmarks/bench_perf_overhead.py``).
    containment:
        The two defences against a faulty controller, on or off
        together: wrap each stage (guard, map, predict, act) in an
        exception firewall, so a stage failure is counted and degrades
        that period instead of crashing the run, and the stage runs
        again next period; and
        check learned-state invariants every period (finite
        coordinates/representatives, sane violation-range geometry,
        finite step histograms, positive finite beta, stress
        non-divergence), healing violations in place by geometry
        rebuild, representative quarantine, a reset of a poisoned
        mode model or, on structural damage, a reset of the whole
        learned state. Off, a stage exception unwinds ``StayAway.on_tick``
        and poisoned state persists — the uncontained arm of
        ``benchmarks/bench_robustness_chaos.py``.
    stream_watermark:
        Ticks of reorder slack in the streaming service's
        :class:`~repro.service.assembler.StreamAssembler`: tick ``t``
        closes once a record for ``t + stream_watermark`` has been
        seen. 0 closes each tick as soon as any record for it arrives.
    """

    n_samples: int = 5
    dedup_epsilon: float = 0.03
    beta_initial: float = 0.01
    beta_increment: float = 0.005
    starvation_patience: int = 20
    probe_probability: float = 0.15
    enabled: bool = True
    per_mode_models: bool = True
    radius_law: str = "rayleigh"
    fixed_radius: float = 0.05
    seed: int = 0
    resilience: bool = True
    telemetry: bool = True
    containment: bool = True
    stream_watermark: int = 2

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.dedup_epsilon < 0:
            raise ValueError("dedup_epsilon must be non-negative")
        if self.beta_initial <= 0:
            raise ValueError("beta_initial must be positive")
        if self.beta_increment < 0:
            raise ValueError("beta_increment must be non-negative")
        if not 0.0 <= self.probe_probability <= 1.0:
            raise ValueError("probe_probability must be in [0, 1]")
        if self.starvation_patience < 1:
            raise ValueError("starvation_patience must be >= 1")
        if self.radius_law not in ("rayleigh", "fixed"):
            raise ValueError(
                f"radius_law must be 'rayleigh' or 'fixed', got {self.radius_law!r}"
            )
        if self.fixed_radius < 0:
            raise ValueError("fixed_radius must be non-negative")
        if self.stream_watermark < 0:
            raise ValueError("stream_watermark must be non-negative")
