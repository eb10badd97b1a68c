"""Per-tick metric collection from the host.

:class:`MetricsCollector` is the monitoring agent. Each tick it reads
every container's usage row out of the tick's
:class:`~repro.observation.Observation` and emits one flat
:class:`~repro.monitoring.metrics.MeasurementVector`.

Per the paper's scalability rule (§5), all batch containers are
aggregated into **one logical VM** ("the monitored metrics of all the
batch application are aggregated together to model their collective
behaviour as a single logical VM"), keeping the MDS input
low-dimensional regardless of how many batch jobs are co-located.
"""

from __future__ import annotations

import operator
from typing import List, Optional, Tuple

import numpy as np

from repro.monitoring.metrics import MeasurementVector, metric_labels
from repro.observation import ZERO_USAGE, Observation

#: Label used for the aggregated batch logical VM.
BATCH_LOGICAL_VM = "batch"


class MetricsCollector:
    """Samples per-VM metrics every tick.

    Each sensitive container is one VM block and all non-sensitive
    containers together are the logical "batch" VM (§5). The layout is
    fixed on the first tick so the MDS geometry stays stable; batch
    containers arriving later fold into the logical batch block.
    """

    def __init__(self) -> None:
        self.samples: List[MeasurementVector] = []
        self._labels: Optional[Tuple[str, ...]] = None
        self._vm_names: Optional[Tuple[str, ...]] = None

    @property
    def vm_names(self) -> Tuple[str, ...]:
        """VM (block) names in vector order; set on the first tick."""
        if self._vm_names is None:
            raise RuntimeError("collector has not observed any tick yet")
        return self._vm_names

    @property
    def labels(self) -> Tuple[str, ...]:
        """Flat metric labels; set on the first tick."""
        if self._labels is None:
            raise RuntimeError("collector has not observed any tick yet")
        return self._labels

    @property
    def dimension(self) -> int:
        """Measurement-vector dimension (5 metrics per VM block)."""
        return len(self.labels)

    def on_tick(self, observation: Observation) -> None:
        """Sample the observation into a measurement vector.

        The logical batch VM is summed in container-name order — the one
        fold order an in-process host and a stream view can both produce.
        """
        rows = observation.rows
        if self._vm_names is None:
            sensitive = sorted(row.name for row in rows if row.sensitive)
            self._vm_names = (*sensitive, BATCH_LOGICAL_VM)
            self._labels = tuple(metric_labels(list(self._vm_names)))

        usage = {row.name: row.usage for row in rows}
        values: List[float] = []
        for vm in self._vm_names:
            if vm == BATCH_LOGICAL_VM:
                block = ZERO_USAGE
                for name in sorted(row.name for row in rows if not row.sensitive):
                    block = tuple(map(operator.add, block, usage[name]))
            else:
                block = usage.get(vm, ZERO_USAGE)
            values.extend(block)

        self.samples.append(
            MeasurementVector(
                tick=observation.tick,
                labels=self._labels,
                values=np.asarray(values, dtype=float),
            )
        )

    @property
    def latest(self) -> MeasurementVector:
        """The most recent sample."""
        if not self.samples:
            raise RuntimeError("collector has not observed any tick yet")
        return self.samples[-1]
