"""Metric normalization to [0, 1].

The paper (§4): "while CPU usage ranges between 0 and 100, memory usage
does not have a fixed upper limit ... This variation causes higher
values to introduce a bias that can affect the accuracy of MDS mapping.
The problem is overcome by normalizing all the metric values between
[0, 1]."

Two normalizers are provided:

* :class:`CapacityNormalizer` — divides each per-VM metric by the host
  capacity of its resource. On our simulated host every granted usage
  value is bounded by capacity, so this is an exact static [0, 1] map
  and keeps the geometry of the state space stable over the whole run
  (important: violation-ranges live in this space).
* :class:`RunningMinMax` — the fallback for metrics with no known
  bound: a running min/max rescaling, monotonically widening so
  previously normalized points never leave [0, 1].
"""

from __future__ import annotations

from typing import Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.monitoring.metrics import VM_METRICS


@runtime_checkable
class Normalizer(Protocol):
    """Maps raw measurement arrays into [0, 1]^d."""

    def normalize(self, values: np.ndarray) -> np.ndarray:
        """Return the normalized copy of ``values``."""
        ...


class CapacityNormalizer:
    """Static normalization by host capacity, per VM metric block.

    Parameters
    ----------
    capacity:
        Host capacity, one bound per metric of ``VM_METRICS``; each
        VM's metric block is divided by the corresponding capacities.
    vm_count:
        Number of VM blocks in the measurement vector.
    """

    def __init__(self, capacity: Sequence[float], vm_count: int) -> None:
        if vm_count < 1:
            raise ValueError("vm_count must be >= 1")
        for metric, bound in zip(VM_METRICS, capacity):
            if bound <= 0:
                raise ValueError(f"capacity for {metric} must be positive")
        self._scale = np.tile(np.asarray(capacity, dtype=float), vm_count)
        self.vm_count = vm_count

    @property
    def dimension(self) -> int:
        """Expected measurement-vector dimension."""
        return len(self._scale)

    @property
    def scale(self) -> np.ndarray:
        """Per-dimension capacity bounds (copy)."""
        return self._scale.copy()

    def normalize(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.shape[-1] != len(self._scale):
            raise ValueError(
                f"expected {len(self._scale)} metrics, got {values.shape[-1]}"
            )
        return np.clip(values / self._scale, 0.0, 1.0)


class RunningMinMax:
    """Running min-max rescaling for metrics without known bounds.

    The observed range only ever widens, so a value normalized earlier
    remains valid (it can only shrink toward the interior of [0, 1] on
    re-normalization, never escape it). ``floor_width`` avoids division
    blow-ups while a metric has not varied yet.
    """

    def __init__(
        self,
        dimension: int,
        floor_width: float = 1e-9,
        initial_min: Optional[Sequence[float]] = None,
        initial_max: Optional[Sequence[float]] = None,
    ) -> None:
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = dimension
        self.floor_width = floor_width
        self._min = (
            np.full(dimension, np.inf)
            if initial_min is None
            else np.asarray(initial_min, dtype=float).copy()
        )
        self._max = (
            np.full(dimension, -np.inf)
            if initial_max is None
            else np.asarray(initial_max, dtype=float).copy()
        )
        if self._min.shape != (dimension,) or self._max.shape != (dimension,):
            raise ValueError("initial bounds must match dimension")

    def observe(self, values: np.ndarray) -> None:
        """Widen the tracked range to cover ``values``."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.dimension,):
            raise ValueError(f"expected shape ({self.dimension},), got {values.shape}")
        self._min = np.minimum(self._min, values)
        self._max = np.maximum(self._max, values)

    def normalize(self, values: np.ndarray) -> np.ndarray:
        """Observe then rescale ``values`` into [0, 1]."""
        values = np.asarray(values, dtype=float)
        self.observe(values)
        width = np.maximum(self._max - self._min, self.floor_width)
        return np.clip((values - self._min) / width, 0.0, 1.0)

    @property
    def observed_min(self) -> np.ndarray:
        return self._min.copy()

    @property
    def observed_max(self) -> np.ndarray:
        return self._max.copy()
