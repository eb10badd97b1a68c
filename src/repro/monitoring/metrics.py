"""Measurement vectors.

The paper's measurement vector is ``M(t) = <VMi-CPU, VMi-Memory,
VMi-I/O, VMi-network>`` for all VMs at time t (§3.1), with the note
that the metric set is open: "Stay-Away does not impose any limitation
on the choice of metrics to be used". We monitor five metrics per VM —
CPU, memory, memory bandwidth, disk I/O and network — because memory-bus
load is one of the contention channels the paper's workloads exercise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.observation import METRICS

#: Per-VM metric order inside a measurement vector.
VM_METRICS: Tuple[str, ...] = METRICS


def metric_labels(vm_names: Sequence[str]) -> List[str]:
    """Flat labels ``"<vm>:<metric>"`` in canonical order."""
    return [f"{vm}:{metric}" for vm in vm_names for metric in VM_METRICS]


@dataclass(frozen=True)
class MeasurementVector:
    """One monitoring sample: all VM metrics at one tick.

    Attributes
    ----------
    tick:
        Tick the sample was taken at.
    labels:
        Flat metric labels (``"vm:cpu"`` etc.), aligned with ``values``.
    values:
        Raw (un-normalized) metric readings.
    """

    tick: int
    labels: Tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.values):
            raise ValueError(
                f"labels/values length mismatch: {len(self.labels)} vs {len(self.values)}"
            )

    @property
    def dimension(self) -> int:
        """Number of metrics in the vector."""
        return len(self.values)
