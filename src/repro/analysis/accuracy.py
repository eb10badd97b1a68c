"""Prediction-accuracy summaries (§3.2.3's >90% claim)."""

from __future__ import annotations

from typing import Dict, NamedTuple, Sequence

from repro.core.prediction import AccuracyRecord
from repro.trajectory.modes import ExecutionMode


class AccuracySummary(NamedTuple):
    """Prediction accuracy over a run.

    Attributes
    ----------
    settled:
        Number of predictions that could be verified (no action
        intervened before the next observation).
    outcome_accuracy:
        Fraction whose violation/no-violation verdict matched reality.
    position_accuracy:
        Fraction whose expected position landed within the tolerance
        (in units of the mode's mean step length).
    per_mode_outcome:
        Outcome accuracy per execution mode.
    """

    settled: int
    outcome_accuracy: float
    position_accuracy: float
    per_mode_outcome: Dict[str, float]


def summarize_accuracy(
    records: Sequence[AccuracyRecord], tolerance_steps: float = 2.0
) -> AccuracySummary:
    """Aggregate a predictor's accuracy ledger."""
    if not records:
        return AccuracySummary(0, 0.0, 0.0, {})
    outcome_hits = sum(1 for record in records if record.outcome_correct)
    position_hits = sum(
        1
        for record in records
        if record.position_error <= tolerance_steps * record.step_scale
    )
    per_mode: Dict[str, float] = {}
    for mode in ExecutionMode:
        mode_records = [record for record in records if record.mode is mode]
        if mode_records:
            per_mode[mode.value] = sum(
                1 for record in mode_records if record.outcome_correct
            ) / len(mode_records)
    return AccuracySummary(
        settled=len(records),
        outcome_accuracy=outcome_hits / len(records),
        position_accuracy=position_hits / len(records),
        per_mode_outcome=per_mode,
    )

