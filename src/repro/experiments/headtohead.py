"""Head-to-head detector study: geometry vs GMM thresholds vs hybrid.

ROADMAP item: test the paper's central bet — that MDS geometry over
mapped states predicts interference better than threshold rules —
against a production-grade detector, the per-utilization-bin GMM
threshold learner (:mod:`repro.baselines.gmm_threshold`).

The protocol per (scenario, arm):

1. **Shadow run** — the arm's detector observes but never actuates
   (``config.enabled=False``), so the ground-truth violation episodes
   unfold exactly as in an unmanaged run. The alarm stream is scored
   against those episodes with
   :func:`~repro.analysis.accuracy.score_detector`: precision, recall,
   false-positive rate and violation lead-time in ticks.
2. **Actuated run** — the same arm with actuation on; its violation
   ratio measures what the detector's alarms are worth once they drive
   the pause/resume surface.

Because no shadow detector acts, all three arms score against the
*same* unfolding of the scenario — the comparison is apples-to-apples
by construction.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.accuracy import DetectorScorecard, score_detector
from repro.core.config import StayAwayConfig
from repro.experiments.runner import RunResult, run_scenario
from repro.experiments.scenarios import Scenario

#: The study's detector arms, in report order.
DETECTOR_ARMS: Tuple[str, ...] = ("geometry", "gmm", "hybrid")

#: Policy each arm runs under.
_ARM_POLICY: Dict[str, str] = {
    "geometry": "stayaway",
    "gmm": "gmm",
    "hybrid": "hybrid",
}

#: Default alarm-to-violation credit window (ticks).
DEFAULT_HORIZON = 12


def standard_suite(ticks: int = 1200, seed: int = 0) -> List[Tuple[str, Scenario]]:
    """The full head-to-head scenario suite.

    Covers every sensitive archetype against CPU, memory-subsystem and
    trace-driven batch co-tenants — the same workload families the
    paper's evaluation figures use.
    """
    return [
        (
            "vlc+cpubomb",
            Scenario(sensitive="vlc-streaming", batches=("cpubomb",),
                     ticks=ticks, seed=seed),
        ),
        (
            "vlc+twitter",
            Scenario(sensitive="vlc-streaming", batches=("twitter-analysis",),
                     ticks=ticks, seed=seed + 1),
        ),
        (
            "vlc+membomb",
            Scenario(sensitive="vlc-streaming", batches=("memorybomb",),
                     ticks=ticks, seed=seed + 2),
        ),
        (
            "webcpu+cpubomb",
            Scenario(sensitive="webservice-cpu", batches=("cpubomb",),
                     ticks=ticks, seed=seed + 3),
        ),
        (
            "webmem+membomb",
            Scenario(sensitive="webservice-memory", batches=("memorybomb",),
                     ticks=ticks, seed=seed + 4),
        ),
        (
            "webmix+soplex",
            Scenario(sensitive="webservice-mix", batches=("soplex", "cpubomb"),
                     ticks=ticks, seed=seed + 5),
        ),
    ]


def quick_suite(ticks: int = 400, seed: int = 0) -> List[Tuple[str, Scenario]]:
    """A two-scenario subset for CI smoke runs."""
    return standard_suite(ticks=ticks, seed=seed)[:2]


@dataclass(frozen=True)
class ArmResult:
    """One detector arm on one scenario.

    Attributes
    ----------
    arm:
        "geometry" / "gmm" / "hybrid".
    scorecard:
        Alarm-quality scores from the shadow run.
    violation_ratio:
        QoS-violation ratio of the *actuated* run.
    throttles:
        Throttle rounds the actuated run fired.
    shadow / actuated:
        The underlying runs (kept for figures and debugging).
    """

    arm: str
    scorecard: DetectorScorecard
    violation_ratio: float
    throttles: int
    shadow: RunResult
    actuated: RunResult


@dataclass(frozen=True)
class HeadToHead:
    """All arms of one scenario, ready for the study table."""

    label: str
    scenario: Scenario
    arms: Dict[str, ArmResult]

    def hybrid_no_worse(self) -> bool:
        """The acceptance gate: hybrid's violation ratio must not
        exceed geometry-only's on this scenario."""
        return (
            self.arms["hybrid"].violation_ratio
            <= self.arms["geometry"].violation_ratio
        )


def run_arm(
    scenario: Scenario,
    arm: str,
    config: Optional[StayAwayConfig] = None,
    horizon: int = DEFAULT_HORIZON,
) -> ArmResult:
    """Shadow-score one arm on one scenario, then measure it actuated."""
    if arm not in DETECTOR_ARMS:
        raise ValueError(f"unknown detector arm {arm!r}; have {DETECTOR_ARMS}")
    policy = _ARM_POLICY[arm]
    base = config if config is not None else StayAwayConfig()
    shadow = run_scenario(
        scenario, policy=policy, config=dataclasses.replace(base, enabled=False)
    )
    scorecard = score_detector(
        shadow.alarm_ticks(),
        shadow.qos.violation_ticks,
        total_ticks=scenario.ticks,
        detector=arm,
        horizon=horizon,
    )
    actuated = run_scenario(
        scenario, policy=policy, config=dataclasses.replace(base, enabled=True)
    )
    if actuated.controller is not None:
        throttles = actuated.controller.throttle.throttle_count
    elif actuated.gmm is not None:
        throttles = actuated.gmm.throttle_count
    else:
        throttles = 0
    return ArmResult(
        arm=arm,
        scorecard=scorecard,
        violation_ratio=actuated.violation_ratio(),
        throttles=throttles,
        shadow=shadow,
        actuated=actuated,
    )


def run_headtohead(
    label: str,
    scenario: Scenario,
    config: Optional[StayAwayConfig] = None,
    horizon: int = DEFAULT_HORIZON,
    arms: Sequence[str] = DETECTOR_ARMS,
) -> HeadToHead:
    """All detector arms on one scenario."""
    results = {
        arm: run_arm(scenario, arm, config=config, horizon=horizon) for arm in arms
    }
    return HeadToHead(label=label, scenario=scenario, arms=results)


def run_study(
    suite: Optional[Sequence[Tuple[str, Scenario]]] = None,
    config: Optional[StayAwayConfig] = None,
    horizon: int = DEFAULT_HORIZON,
) -> List[HeadToHead]:
    """The full study: every suite scenario under every arm."""
    suite = suite if suite is not None else standard_suite()
    return [
        run_headtohead(label, scenario, config=config, horizon=horizon)
        for label, scenario in suite
    ]


def _fmt(value: float, spec: str = ".3f") -> str:
    """NaN-aware cell formatting (— for 'no data')."""
    if value != value:
        return "—"
    return format(value, spec)


def study_table(results: Sequence[HeadToHead]) -> str:
    """Render the study as the head-to-head comparison table."""
    from repro.analysis.reports import ascii_table

    rows = []
    for result in results:
        for arm in DETECTOR_ARMS:
            if arm not in result.arms:
                continue
            arm_result = result.arms[arm]
            card = arm_result.scorecard
            rows.append([
                result.label,
                arm,
                _fmt(card.precision),
                _fmt(card.recall),
                _fmt(card.false_positive_rate, ".4f"),
                _fmt(card.mean_lead_time, ".1f"),
                f"{arm_result.violation_ratio:.2%}",
                arm_result.throttles,
            ])
    return ascii_table(
        ["scenario", "detector", "precision", "recall", "fp rate",
         "lead ticks", "violations", "throttles"],
        rows,
    )
