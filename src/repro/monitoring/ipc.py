"""IPC-based violation detection (the paper's alternative channel).

§3.1: "Stay-Away relies on the application to report whenever a QoS
violation happens ... Alternatively, using IPC to detect QoS violation
is explored in other works [34]." Bubble-Flux-style detectors read
instructions-per-cycle from hardware counters: contention depresses a
workload's IPC below its isolated baseline.

On the simulated host the per-container *progress factor* plays the
role of normalized IPC (work retired per cycle of wall clock), so the
detector needs no application cooperation at all: it learns the
sensitive container's high-water IPC and reports a violation whenever
the observed IPC falls below a fraction of that baseline. The detector
is :class:`~repro.monitoring.qos.QosTracker`-compatible, so it can be
plugged into the Stay-Away controller as a drop-in replacement for
application-reported QoS.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from repro.monitoring.qos import QosChannel
from repro.workloads.base import QosReport

if TYPE_CHECKING:
    from repro.sim.host import Host, HostSnapshot


class IpcViolationDetector(QosChannel):
    """Learn a container's baseline IPC; flag dips below a fraction of it.

    Parameters
    ----------
    container_name:
        The monitored (sensitive) container.
    threshold_fraction:
        Violation when ``ipc < threshold_fraction * baseline``.
    baseline_quantile_decay:
        The baseline is a decaying maximum: it tracks the highest IPC
        seen, decaying slowly so workload phase changes (which lower
        the *achievable* IPC legitimately) do not freeze the baseline
        at an unreachable level.
    """

    def __init__(
        self,
        container_name: str,
        threshold_fraction: float = 0.9,
        baseline_quantile_decay: float = 0.999,
    ) -> None:
        if not 0.0 < threshold_fraction <= 1.0:
            raise ValueError("threshold_fraction must be in (0, 1]")
        if not 0.0 < baseline_quantile_decay <= 1.0:
            raise ValueError("baseline_quantile_decay must be in (0, 1]")
        super().__init__(f"{container_name}:ipc")
        self.container_name = container_name
        self.threshold_fraction = threshold_fraction
        self.baseline_decay = baseline_quantile_decay
        self.baseline_ipc: Optional[float] = None
        self.rejected_samples = 0
        self.imputed_samples = 0
        self._last_valid: Optional[float] = None

    def observe_ipc(self, tick: int, ipc: float) -> QosReport:
        """Feed one IPC reading; returns the derived QoS report.

        NaN/inf and non-positive readings (a stalled counter, a divide
        by zero cycles upstream) never touch the baseline: a single
        NaN would otherwise poison the decaying maximum permanently
        and disable detection. Invalid samples are imputed from the
        last valid reading (counted in :attr:`imputed_samples`); before
        any valid reading exists they yield a neutral non-violating
        report and are only counted in :attr:`rejected_samples`.
        """
        if not math.isfinite(ipc) or ipc <= 0.0:
            self.rejected_samples += 1
            if self._last_valid is None:
                report = QosReport(value=1.0, threshold=self.threshold_fraction)
                self._last_report = report
                return report
            ipc = self._last_valid
            self.imputed_samples += 1
        else:
            self._last_valid = ipc
            if self.baseline_ipc is None:
                self.baseline_ipc = ipc
            else:
                self.baseline_ipc = max(
                    ipc, self.baseline_ipc * self.baseline_decay
                )
        normalized = (
            ipc / self.baseline_ipc
            if self.baseline_ipc is not None and self.baseline_ipc > 0
            else 1.0
        )
        report = QosReport(value=normalized, threshold=self.threshold_fraction)
        self._record(tick, report)
        return report

    def on_tick(self, snapshot: HostSnapshot, host: Host) -> None:
        """Read the monitored container's IPC proxy from the snapshot."""
        allocation = snapshot.allocations.get(self.container_name)
        if allocation is None:
            return  # container idle/paused: no cycles retired, no sample
        self.observe_ipc(snapshot.tick, allocation.progress)
