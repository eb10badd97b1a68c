"""Metric normalization to [0, 1].

The paper (§4): "while CPU usage ranges between 0 and 100, memory usage
does not have a fixed upper limit ... This variation causes higher
values to introduce a bias that can affect the accuracy of MDS mapping.
The problem is overcome by normalizing all the metric values between
[0, 1]."

:class:`CapacityNormalizer` divides each per-VM metric by the host
capacity of its resource. On our simulated host every granted usage
value is bounded by capacity, so this is an exact static [0, 1] map
and keeps the geometry of the state space stable over the whole run
(important: violation-ranges live in this space).
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

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
        # ``np.clip``'s ufunc, without its dispatch.
        return (values / self._scale).clip(0.0, 1.0)
