"""Isolation-benchmark stressors: CPUBomb and MemoryBomb.

CPUBomb comes from the isolation benchmark suite the paper cites
(Matthews et al. [21]): spin loops saturating every core, no phase
changes ever — the paper's worst-case co-tenant ("it is impossible to
execute both VLC streaming and CPUBomb without violating the QoS",
§7.2).

MemoryBomb is the paper's custom synthetic: it "generates stress on
the memory subsystem by allocating large chunks of memory and
occasionally reading the allocated content" (§7.1). We model the
allocation ramp and the periodic read sweeps (memory-bandwidth spikes).
"""

from __future__ import annotations

from typing import Optional

from repro.sim.clock import SimulationClock
from repro.sim.resources import ResourceVector
from repro.workloads.base import Application, ApplicationKind, PhasedApplication
from repro.workloads.phases import Phase, PhaseSchedule


class CpuBomb(PhasedApplication):
    """Spin loops on every core; constant demand, no phases."""

    def __init__(
        self,
        name: str = "cpubomb",
        threads: float = 4.0,
        total_work: Optional[float] = None,
        seed: int = 31,
        noise_std: float = 0.01,
    ) -> None:
        demand = ResourceVector(
            cpu=threads, memory=64.0, memory_bw=100.0, disk_io=0.0, network=0.0
        )
        schedule = PhaseSchedule.single("spin", demand)
        super().__init__(
            name=name,
            schedule=schedule,
            total_work=total_work,
            seed=seed,
            noise_std=noise_std,
        )


class MemoryBomb(Application):
    """Allocate large chunks, occasionally sweep-read them.

    Parameters
    ----------
    target_mb:
        Resident set the bomb ramps up to.
    ramp_ticks:
        Work ticks to reach the target allocation.
    sweep_period / sweep_ticks:
        Every ``sweep_period`` work ticks the bomb spends
        ``sweep_ticks`` reading its allocation, spiking memory-bus and
        keeping the pages hot.
    """

    def __init__(
        self,
        name: str = "memorybomb",
        target_mb: float = 6000.0,
        ramp_ticks: float = 60.0,
        sweep_period: float = 30.0,
        sweep_ticks: float = 8.0,
        sweep_bandwidth: float = 5000.0,
        total_work: Optional[float] = None,
        seed: int = 37,
        noise_std: float = 0.02,
    ) -> None:
        super().__init__(
            name=name, kind=ApplicationKind.BATCH, seed=seed, noise_std=noise_std
        )
        if ramp_ticks <= 0:
            raise ValueError("ramp_ticks must be positive")
        self.target_mb = target_mb
        self.ramp_ticks = ramp_ticks
        self.sweep_period = sweep_period
        self.sweep_ticks = sweep_ticks
        self.sweep_bandwidth = sweep_bandwidth
        self.total_work = total_work

    def in_sweep(self) -> bool:
        """True while the bomb is in a read-sweep window."""
        if self.work_done < self.ramp_ticks:
            return False
        position = (self.work_done - self.ramp_ticks) % self.sweep_period
        return position < self.sweep_ticks

    def demand(self, clock: SimulationClock) -> ResourceVector:
        if self._finished:
            return ResourceVector.zero()
        allocated = self.target_mb * min(1.0, self.work_done / self.ramp_ticks)
        # Positional (cpu, memory, memory_bw, disk_io, network): a third
        # of the keyword call's cost.
        if self.in_sweep():
            base = ResourceVector(0.6, allocated, self.sweep_bandwidth, 0.0, 0.0)
        else:
            base = ResourceVector(0.25, allocated, 300.0, 0.0, 0.0)
        return self._jitter(base)

    def _on_advance(self, allocation, clock) -> None:
        if self.total_work is not None and self.work_done >= self.total_work:
            self._finish()
