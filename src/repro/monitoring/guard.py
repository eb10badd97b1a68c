"""Sensor validation: reject corrupt measurements, impute over gaps.

On a real host the monitoring channel is not trustworthy: counters
wrap, agents hiccup, ``/sys`` reads race container teardown, and a
stuck exporter happily repeats its last value forever. The controller's
map lives or dies by its inputs — one ``inf`` reaching the MDS pipeline
poisons every distance afterwards — so every
:class:`~repro.monitoring.metrics.MeasurementVector` passes through a
:class:`SensorGuard` before mapping.

The guard performs three checks per sample:

* **finiteness** — NaN/Inf anywhere in the vector;
* **sign** — negative readings (usage is non-negative by construction);
* **plausibility** — readings wildly above the physical capacity bound
  of their metric (a corrupted counter, not a busy host).

A vector that repeats exactly is accepted: flat workloads legitimately
produce identical vectors in simulation.

Rejected samples are *imputed* by holding the last accepted vector, up
to ``STALENESS_BUDGET`` consecutive rejects; past it the guard declares
the sample unusable and the period counts as a monitoring gap (the
degraded-mode machinery in :mod:`repro.core.resilience` takes over).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import isfinite
from operator import gt
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.telemetry.registry import MetricRegistry

#: Consecutive rejected samples bridged by holding the last accepted
#: vector; beyond it samples are unusable until a good one arrives.
STALENESS_BUDGET = 8

class RejectReason(enum.Enum):
    """Why the guard refused a measurement vector."""

    NON_FINITE = "non-finite"
    NEGATIVE = "negative"
    IMPLAUSIBLE_SPIKE = "implausible-spike"


@dataclass(frozen=True)
class GuardVerdict:
    """Outcome of inspecting one measurement vector.

    Attributes
    ----------
    tick:
        Tick of the inspected sample.
    values:
        The vector the controller should use: the original values when
        accepted, the held last-good vector when imputed, ``None`` when
        the sample is unusable (no last-good value, or staleness budget
        exhausted).
    accepted:
        True when the raw sample passed every check.
    imputed:
        True when ``values`` is a last-good-value hold.
    reasons:
        Rejection reasons (empty when accepted).
    stale_periods:
        Consecutive imputed/unusable periods ending at this one.
    """

    tick: int
    values: Optional[np.ndarray]
    accepted: bool
    imputed: bool
    reasons: Tuple[RejectReason, ...]
    stale_periods: int

    @property
    def usable(self) -> bool:
        """Whether the controller has a vector to map this period."""
        return self.values is not None


class SensorGuard:
    """Validates measurement vectors and holds last-good values.

    Parameters
    ----------
    plausible_max:
        Per-dimension upper bound on believable raw readings (e.g. the
        host capacity per metric block times a slack factor). ``None``
        disables the plausibility check.
    registry:
        Shared :class:`~repro.telemetry.registry.MetricRegistry` to
        record verdict counters into (``guard.accepted``,
        ``guard.rejects{reason=...}``, ...); a private registry is
        created when none is given, so the counter attributes work
        identically either way.
    """

    def __init__(
        self,
        plausible_max: Optional[np.ndarray] = None,
        registry: Optional[MetricRegistry] = None,
    ) -> None:
        self.plausible_max = (
            None if plausible_max is None else np.asarray(plausible_max, dtype=float)
        )
        self.metrics = registry if registry is not None else MetricRegistry()
        self._c_accepted = self.metrics.counter(
            "guard.accepted", help="measurement vectors that passed every check"
        )
        self._c_rejected = self.metrics.counter(
            "guard.rejected", help="measurement vectors refused by the guard"
        )
        self._c_imputed = self.metrics.counter(
            "guard.imputed", help="rejects bridged by last-good-value hold"
        )
        self._c_unusable = self.metrics.counter(
            "guard.unusable", help="rejects with no usable value (monitoring gap)"
        )
        self._c_reasons = {
            reason: self.metrics.counter(
                "guard.rejects",
                help="guard rejections by reason",
                labels={"reason": reason.value},
            )
            for reason in RejectReason
        }
        #: Most recent accepted vector (None before the first).
        self.last_good: Optional[np.ndarray] = None
        self._stale: int = 0

    # -- counters (registry-backed) ----------------------------------------
    @property
    def accepted_count(self) -> int:
        """Samples that passed every check."""
        return int(self._c_accepted.value)

    @property
    def rejected_count(self) -> int:
        """Samples refused by at least one check."""
        return int(self._c_rejected.value)

    @property
    def imputed_count(self) -> int:
        """Rejected samples bridged by last-good-value hold."""
        return int(self._c_imputed.value)

    @property
    def unusable_count(self) -> int:
        """Rejected samples with nothing to impute from."""
        return int(self._c_unusable.value)

    @property
    def reject_reasons(self) -> Dict[RejectReason, int]:
        """Rejection totals per reason (all reasons, zeros included)."""
        return {
            reason: int(counter.value) for reason, counter in self._c_reasons.items()
        }

    # -- checks -----------------------------------------------------------
    def _check(self, values: np.ndarray, flat: List[float]) -> List[RejectReason]:
        reasons: List[RejectReason] = []
        if not all(map(isfinite, flat)):
            reasons.append(RejectReason.NON_FINITE)
        else:
            if min(flat, default=0.0) < 0:
                reasons.append(RejectReason.NEGATIVE)
            if self.plausible_max is not None:
                if values.shape == self.plausible_max.shape:
                    spike = any(map(gt, flat, self.plausible_max.ravel().tolist()))
                else:
                    # NumPy's broadcast decides (and raises on a mismatch).
                    spike = bool(np.any(values > self.plausible_max))
                if spike:
                    reasons.append(RejectReason.IMPLAUSIBLE_SPIKE)
        return reasons

    # -- the per-sample entry point -----------------------------------------
    def inspect(self, tick: int, values: np.ndarray) -> GuardVerdict:
        """Validate one raw measurement vector.

        Returns the verdict; ``verdict.values`` is what the mapping
        pipeline should consume (or ``None`` for a monitoring gap).
        """
        values = np.asarray(values, dtype=float)
        # A vector is ten-odd floats: the predicates run on a plain list.
        reasons = self._check(values, values.ravel().tolist())

        if not reasons:
            self.last_good = values.copy()
            self._stale = 0
            self._c_accepted.inc()
            return GuardVerdict(
                tick=tick,
                values=values,
                accepted=True,
                imputed=False,
                reasons=(),
                stale_periods=0,
            )

        self._c_rejected.inc()
        for reason in reasons:
            self._c_reasons[reason].inc()
        self._stale += 1
        if self.last_good is not None and self._stale <= STALENESS_BUDGET:
            self._c_imputed.inc()
            verdict = GuardVerdict(
                tick=tick,
                values=self.last_good.copy(),
                accepted=False,
                imputed=True,
                reasons=tuple(reasons),
                stale_periods=self._stale,
            )
        else:
            self._c_unusable.inc()
            verdict = GuardVerdict(
                tick=tick,
                values=None,
                accepted=False,
                imputed=False,
                reasons=tuple(reasons),
                stale_periods=self._stale,
            )
        return verdict

    # -- introspection -----------------------------------------------------
    @property
    def stale_periods(self) -> int:
        """Consecutive rejected samples ending now (0 when healthy)."""
        return self._stale

    def summary(self) -> dict:
        """Counters for reports and tests."""
        return {
            "accepted": self.accepted_count,
            "rejected": self.rejected_count,
            "imputed": self.imputed_count,
            "unusable": self.unusable_count,
            "reject_reasons": {
                reason.value: count
                for reason, count in self.reject_reasons.items()
                if count
            },
        }
