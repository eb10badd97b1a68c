"""Small statistics helpers used by the analysis code and benches.

Implemented here (rather than pulling a stats dependency) because the
needs are narrow: summary statistics with bootstrap confidence
intervals for run-level metrics, and a couple of robust estimators.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np


class SummaryStats(NamedTuple):
    """Mean with a bootstrap confidence interval.

    Attributes
    ----------
    mean / median / std:
        Standard moments of the sample.
    ci_low / ci_high:
        Bootstrap percentile confidence interval of the mean.
    n:
        Sample size.
    """

    mean: float
    median: float
    std: float
    ci_low: float
    ci_high: float
    n: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.mean:.4g} (95% CI [{self.ci_low:.4g}, {self.ci_high:.4g}],"
            f" n={self.n})"
        )


def bootstrap_mean_ci(
    values: Sequence[float],
    confidence: float = 0.95,
    n_resamples: int = 2000,
    seed: Optional[int] = 0,
) -> Tuple[float, float]:
    """Percentile bootstrap CI for the mean of ``values``."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    if values.size == 1:
        return float(values[0]), float(values[0])
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, values.size, size=(n_resamples, values.size))
    means = values[indices].mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    low, high = np.quantile(means, [alpha, 1.0 - alpha])
    return float(low), float(high)


def summarize(values: Sequence[float], confidence: float = 0.95) -> SummaryStats:
    """Full summary with bootstrap CI."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cannot summarize an empty sample")
    ci_low, ci_high = bootstrap_mean_ci(values, confidence=confidence)
    return SummaryStats(
        mean=float(values.mean()),
        median=float(np.median(values)),
        std=float(values.std(ddof=1)) if values.size > 1 else 0.0,
        ci_low=ci_low,
        ci_high=ci_high,
        n=int(values.size),
    )


def mann_whitney_u(
    a: Sequence[float], b: Sequence[float]
) -> Tuple[float, float]:
    """Mann-Whitney U statistic and a normal-approximation p-value.

    Used to check whether two run populations (e.g. violation ratios
    across seeds under two policies) differ. Two-sided.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    combined = np.concatenate([a, b])
    ranks = np.empty_like(combined)
    order = np.argsort(combined, kind="mergesort")
    sorted_values = combined[order]
    # Midranks for ties.
    i = 0
    position = 1.0
    while i < sorted_values.size:
        j = i
        while j + 1 < sorted_values.size and sorted_values[j + 1] == sorted_values[i]:
            j += 1
        midrank = (position + position + (j - i)) / 2.0
        ranks[order[i:j + 1]] = midrank
        position += j - i + 1
        i = j + 1
    rank_sum_a = ranks[: a.size].sum()
    u_a = rank_sum_a - a.size * (a.size + 1) / 2.0
    mean_u = a.size * b.size / 2.0
    std_u = np.sqrt(a.size * b.size * (a.size + b.size + 1) / 12.0)
    if std_u == 0:
        return float(u_a), 1.0
    z = (u_a - mean_u) / std_u
    # Two-sided p from the standard normal.
    from math import erfc, sqrt

    p = erfc(abs(z) / sqrt(2.0))
    return float(u_a), float(p)
