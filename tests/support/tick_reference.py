"""The parent's per-tick NumPy code, kept verbatim as a test oracle.

PR 22 moved two per-tick paths from NumPy calls on ten-odd floats to
plain Python floats: ``SensorGuard.inspect`` and
``WorkloadTrace.intensity``. The bodies below are the ones the parent
commit (b694459) ran, copied unchanged apart from dropping the metric
counters; the equivalence tests drive them side by side with the code
under ``src/`` and demand equal results, bit for bit.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.monitoring.guard import RejectReason


class ReferenceGuard:
    """``SensorGuard`` as the parent implemented it (verdicts as tuples).

    Its frozen-counter check, off by default there, went with
    ``RejectReason.FROZEN``; the other predicates are verbatim.
    """

    def __init__(
        self,
        plausible_max: Optional[np.ndarray] = None,
        staleness_budget: int = 8,
    ) -> None:
        self.plausible_max = (
            None if plausible_max is None else np.asarray(plausible_max, dtype=float)
        )
        self.staleness_budget = staleness_budget
        self._last_good: Optional[np.ndarray] = None
        self._stale: int = 0

    def _check(self, values: np.ndarray) -> List[RejectReason]:
        reasons: List[RejectReason] = []
        if not np.all(np.isfinite(values)):
            reasons.append(RejectReason.NON_FINITE)
        else:
            if np.any(values < 0):
                reasons.append(RejectReason.NEGATIVE)
            if self.plausible_max is not None and np.any(values > self.plausible_max):
                reasons.append(RejectReason.IMPLAUSIBLE_SPIKE)
        return reasons

    def inspect(
        self, tick: int, values: np.ndarray
    ) -> Tuple[bool, bool, Tuple[RejectReason, ...], int, Optional[np.ndarray]]:
        """``(accepted, imputed, reasons, stale_periods, values)``."""
        values = np.asarray(values, dtype=float)
        reasons = self._check(values)

        if not reasons:
            self._last_good = values.copy()
            self._stale = 0
            return True, False, (), 0, values

        self._stale += 1
        if self._last_good is not None and self._stale <= self.staleness_budget:
            return False, True, tuple(reasons), self._stale, self._last_good.copy()
        return False, False, tuple(reasons), self._stale, None


def reference_intensity(
    samples: np.ndarray, sample_seconds: float, wrap: bool, now_seconds: float
) -> float:
    """``WorkloadTrace.intensity`` as the parent computed it."""
    position = now_seconds / sample_seconds
    n = len(samples)
    if wrap:
        position = position % n
    else:
        position = min(position, n - 1)
    lower = int(np.floor(position))
    upper = (lower + 1) % n if wrap else min(lower + 1, n - 1)
    fraction = position - lower
    return float((1.0 - fraction) * samples[lower % n] + fraction * samples[upper])
