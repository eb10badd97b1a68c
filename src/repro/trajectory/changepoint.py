"""Phase-change detection on metric series.

Stay-Away's resume criterion hinges on detecting a phase/workload
change of the sensitive application (§3.3). The controller itself uses
the paper's mapped-state-distance rule; this module provides an
offline/analysis counterpart — simple online change-point detectors
over raw metric series — used to label ground-truth phase changes in
experiments (e.g. validating that the β rule fires at actual phase
boundaries, or annotating Fig. 13-style timelines).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class ChangePoint:
    """A detected change.

    Attributes
    ----------
    index:
        Sample index at which the change was flagged.
    magnitude:
        Normalized shift size (in pre-change standard deviations).
    """

    index: int
    magnitude: float


def cusum_changepoints(
    series: Sequence[float],
    threshold: float = 5.0,
    drift: float = 0.5,
    min_gap: int = 5,
) -> List[ChangePoint]:
    """Two-sided CUSUM change detection.

    Parameters
    ----------
    series:
        The metric series (e.g. a container's CPU usage).
    threshold:
        Alarm level in (robust) standard deviations.
    drift:
        Slack per sample; larger ignores slow trends.
    min_gap:
        Minimum samples between reported change points.
    """
    values = np.asarray(series, dtype=float)
    if values.size < 3:
        return []
    scale = float(np.median(np.abs(np.diff(values)))) * 1.4826
    if scale <= 0:
        scale = float(values.std()) or 1.0

    changes: List[ChangePoint] = []
    reference = float(values[0])
    positive = 0.0
    negative = 0.0
    last_change = -min_gap
    relearning: List[float] = []
    for i, value in enumerate(values):
        if relearning is not None and len(relearning) < min_gap and changes:
            # Right after a change: re-estimate the new level over a
            # short window instead of trusting one noisy sample, and
            # suspend accumulation meanwhile (standard CUSUM restart).
            relearning.append(value)
            reference = float(np.mean(relearning))
            continue
        z = (value - reference) / scale
        positive = max(0.0, positive + z - drift)
        negative = max(0.0, negative - z - drift)
        if (positive > threshold or negative > threshold) and (
            i - last_change >= min_gap
        ):
            magnitude = positive if positive > negative else -negative
            changes.append(ChangePoint(index=i, magnitude=float(magnitude)))
            positive = negative = 0.0
            last_change = i
            relearning = [value]
            reference = float(value)
        elif i - last_change >= min_gap * 4:
            # Slowly re-anchor the reference to the local level so
            # gradual drifts do not accumulate into false alarms.
            reference = 0.95 * reference + 0.05 * value
    return changes


def sliding_mean_shifts(
    series: Sequence[float],
    window: int = 10,
    z_threshold: float = 4.0,
    min_gap: Optional[int] = None,
) -> List[ChangePoint]:
    """Mean-shift detection by comparing adjacent windows.

    Flags index ``i`` when the means of ``series[i-window:i]`` and
    ``series[i:i+window]`` differ by more than ``z_threshold`` pooled
    standard errors. Simpler than CUSUM, better suited to step-like
    workload intensity changes (the paper's Fig. 13 steps).
    """
    values = np.asarray(series, dtype=float)
    if window < 2:
        raise ValueError("window must be >= 2")
    if min_gap is None:
        min_gap = window
    changes: List[ChangePoint] = []
    last_change = -min_gap
    for i in range(window, values.size - window):
        left = values[i - window:i]
        right = values[i:i + window]
        pooled = np.sqrt((left.var(ddof=1) + right.var(ddof=1)) / window)
        if pooled <= 1e-12:
            pooled = max(abs(left.mean()), 1e-12) * 1e-3
        z = (right.mean() - left.mean()) / pooled
        if abs(z) > z_threshold and i - last_change >= min_gap:
            changes.append(ChangePoint(index=i, magnitude=float(z)))
            last_change = i
    return changes
