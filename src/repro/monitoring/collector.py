"""Per-tick metric collection from the host.

:class:`MetricsCollector` is the monitoring agent. Each tick it reads
every container's usage row out of the tick's
:class:`~repro.observation.Observation` and emits one flat
:class:`~repro.monitoring.metrics.MeasurementVector`.

Per the paper's scalability rule (§5), all batch containers can be
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
from repro.observation import ZERO_USAGE, ContainerRow, Observation

#: Label used for the aggregated batch logical VM.
BATCH_LOGICAL_VM = "batch"


class MetricsCollector:
    """Samples per-VM metrics every tick.

    Parameters
    ----------
    aggregate_batch:
        When True (the paper's default, §5) all non-sensitive
        containers appear as one logical "batch" VM; otherwise each
        container gets its own metric block.

    Notes
    -----
    The vector layout (VM blocks) is fixed on the first tick so the
    MDS geometry stays stable. With ``aggregate_batch=True`` this is
    harmless — batch containers arriving later simply fold into the
    logical batch block. With per-container blocks, containers added
    after the first tick are *not* monitored; create the collector
    after admitting all containers in that mode.
    """

    def __init__(self, aggregate_batch: bool = True) -> None:
        self.aggregate_batch = aggregate_batch
        self.samples: List[MeasurementVector] = []
        self._labels: Optional[Tuple[str, ...]] = None
        self._vm_names: Optional[Tuple[str, ...]] = None

    def _resolve_vms(self, rows: Tuple[ContainerRow, ...]) -> Tuple[str, ...]:
        sensitive = sorted(row.name for row in rows if row.sensitive)
        if self.aggregate_batch:
            names = tuple(sensitive) + (BATCH_LOGICAL_VM,)
        else:
            batch = sorted(row.name for row in rows if not row.sensitive)
            names = tuple(sensitive) + tuple(batch)
        return names

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
            self._vm_names = self._resolve_vms(rows)
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
