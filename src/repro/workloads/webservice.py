"""The memcached-backed analytics Webservice (latency-sensitive).

The paper's second sensitive application is "a Webservice ... for
analysing and serving data. It consists of a Memcached layer for
in-memory data storage and performs analytics, if necessary, before
serving the data" over the CONFINE open dataset, exercised with
CPU-intensive, memory-intensive and mixed workloads (§7.1).

Our model exposes the same three workload types. The memcached layer
pins a large resident set, so memory-hungry co-tenants (Twitter-Analysis
in its memory phase, MemoryBomb) push the host into overcommit and the
swap penalty degrades response throughput — reproducing the paper's key
observation that "Twitter-Analysis [interferes] only when its memory
operation is intensive enough to force the OS to swap pages of
Webservice to disk" (§7.2).

QoS is the transaction completion ratio: offered transactions per
second times the granted progress, normalized by the offer.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.sim.clock import SimulationClock
from repro.sim.contention import Allocation
from repro.sim.resources import ResourceVector
from repro.workloads.base import Application, ApplicationKind, QosReport
from repro.workloads.traces import WorkloadTrace


class WebserviceWorkload(enum.Enum):
    """The three request mixes of §7.1."""

    CPU = "cpu"
    MEMORY = "memory"
    MIX = "mix"


#: Per-workload demand at intensity 1.0. The memory-intensive mix keeps
#: a much larger working set hot in memcached and hammers the memory
#: bus; the CPU mix is dominated by per-request analytics compute.
_WORKLOAD_PEAK_DEMAND = {
    WebserviceWorkload.CPU: ResourceVector(
        cpu=3.6, memory=2400.0, memory_bw=900.0, disk_io=6.0, network=180.0
    ),
    WebserviceWorkload.MEMORY: ResourceVector(
        cpu=1.1, memory=4600.0, memory_bw=3200.0, disk_io=10.0, network=220.0
    ),
    WebserviceWorkload.MIX: ResourceVector(
        cpu=2.2, memory=3500.0, memory_bw=2000.0, disk_io=8.0, network=200.0
    ),
}

#: Fraction of the peak resident set that stays pinned (memcached keeps
#: its slab allocation) even when request intensity drops. Low-intensity
#: periods therefore open real memory headroom — the low-utilization
#: valleys Stay-Away exploits (§1).
_RESIDENT_FLOOR = 0.7


class Webservice(Application):
    """Analytics webservice with a memcached in-memory layer.

    Parameters
    ----------
    workload:
        Which request mix drives the service.
    trace:
        Offered-load intensity over time; defaults to constant.
    offered_tps:
        Transactions per second offered at intensity 1.0 (only a
        reporting scale; QoS is the completion *ratio*).
    qos_threshold:
        Minimum acceptable completion ratio.
    duration:
        Serving window in wall-clock ticks; ``None`` serves forever.
    """

    def __init__(
        self,
        workload: WebserviceWorkload = WebserviceWorkload.MIX,
        name: Optional[str] = None,
        trace: Optional[WorkloadTrace] = None,
        offered_tps: float = 1000.0,
        qos_threshold: float = 0.9,
        duration: Optional[int] = None,
        seed: int = 17,
        noise_std: float = 0.03,
    ) -> None:
        if isinstance(workload, str):
            workload = WebserviceWorkload(workload)
        super().__init__(
            name=name if name is not None else f"webservice-{workload.value}",
            kind=ApplicationKind.SENSITIVE,
            seed=seed,
            noise_std=noise_std,
        )
        self.workload = workload
        self.trace = trace if trace is not None else WorkloadTrace.constant(1.0)
        self.offered_tps = offered_tps
        self.qos_threshold = qos_threshold
        self.duration = duration
        self._last_report: Optional[QosReport] = None

    def current_intensity(self, clock: SimulationClock) -> float:
        """Offered-load intensity at the current simulated time."""
        return self.trace.intensity(clock.now)

    def demand(self, clock: SimulationClock) -> ResourceVector:
        if self._finished:
            return ResourceVector.zero()
        intensity = self.current_intensity(clock)
        peak = _WORKLOAD_PEAK_DEMAND[self.workload]
        resident_fraction = _RESIDENT_FLOOR + (1.0 - _RESIDENT_FLOOR) * intensity
        base = ResourceVector(
            cpu=peak.cpu * intensity,
            memory=peak.memory * resident_fraction,
            memory_bw=peak.memory_bw * intensity,
            disk_io=peak.disk_io * intensity,
            network=peak.network * intensity,
        )
        return self._jitter(base)

    def _on_advance(self, allocation: Allocation, clock: SimulationClock) -> None:
        self._last_report = QosReport(
            value=allocation.progress, threshold=self.qos_threshold
        )
        if self.duration is not None and self.elapsed_ticks >= self.duration:
            self._finish()

    def qos_report(self) -> Optional[QosReport]:
        return self._last_report
