"""VLC models: the streaming server (sensitive) and the transcoder (batch).

The paper instruments VLC 2.0.5 streaming a movie in real time; "the
minimum transcoding rate required to provide real time viewing without
any loss of frames at the server side is defined as the QoS threshold"
(§7.1). Our model captures exactly that contract:

* the server must transcode ``required_fps`` frames every second of
  wall-clock time;
* its achieved rate is ``required_fps * progress`` where ``progress``
  is the satisfaction ratio granted by the host;
* a QoS violation is reported whenever the achieved rate falls below
  the threshold fraction of the required rate.

Stream complexity / concurrent client load is modulated by a workload
trace, so the CPU demand varies over the run the way a real streaming
session's does.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.clock import SimulationClock
from repro.sim.contention import Allocation
from repro.sim.resources import ResourceVector
from repro.workloads.base import Application, ApplicationKind, PhasedApplication, QosReport
from repro.workloads.phases import Phase, PhaseSchedule
from repro.workloads.traces import WorkloadTrace


class VlcStreamingServer(Application):
    """Real-time VLC streaming server (latency-sensitive).

    Parameters
    ----------
    trace:
        Client/scene-complexity intensity over time (defaults to a
        constant full-intensity stream).
    required_fps:
        Frames per second the stream needs for uninterrupted playback.
    cpu_peak:
        CPU cores demanded at intensity 1.0. Sized so that, at peak, a
        moderately CPU-hungry batch co-tenant pushes the host past
        saturation — the contention regime of the paper's Figs. 8-9.
    qos_threshold:
        Fraction of the required rate below which the application
        reports a QoS violation.
    duration:
        Stream length in ticks (wall-clock); ``None`` streams forever.
    """

    def __init__(
        self,
        name: str = "vlc-streaming",
        trace: Optional[WorkloadTrace] = None,
        required_fps: float = 25.0,
        cpu_peak: float = 3.0,
        memory_mb: float = 512.0,
        memory_bw_peak: float = 800.0,
        network_peak: float = 120.0,
        qos_threshold: float = 0.95,
        duration: Optional[int] = None,
        seed: int = 11,
        noise_std: float = 0.03,
    ) -> None:
        super().__init__(
            name=name, kind=ApplicationKind.SENSITIVE, seed=seed, noise_std=noise_std
        )
        self.trace = trace if trace is not None else WorkloadTrace.constant(1.0)
        self.required_fps = required_fps
        self.cpu_peak = cpu_peak
        self.memory_mb = memory_mb
        self.memory_bw_peak = memory_bw_peak
        self.network_peak = network_peak
        self.qos_threshold = qos_threshold
        self.duration = duration
        self._last_report: Optional[QosReport] = None

    def current_intensity(self, clock: SimulationClock) -> float:
        """Stream intensity at the current simulated time."""
        return self.trace.intensity(clock.now)

    def demand(self, clock: SimulationClock) -> ResourceVector:
        if self._finished:
            return ResourceVector.zero()
        intensity = self.current_intensity(clock)
        base = ResourceVector(  # positional: a third of the keyword call's cost
            self.cpu_peak * intensity,
            self.memory_mb,
            self.memory_bw_peak * intensity,
            8.0 * intensity,
            self.network_peak * intensity,
        )
        return self._jitter(base)

    def _on_advance(self, allocation: Allocation, clock: SimulationClock) -> None:
        self._last_report = QosReport(allocation.progress, self.qos_threshold)
        if self.duration is not None and self.elapsed_ticks >= self.duration:
            self._finish()

    def qos_report(self) -> Optional[QosReport]:
        return self._last_report


class VlcTranscoder(PhasedApplication):
    """Offline VLC transcoding job (batch, work-based).

    A transcode saturates roughly two cores with steady memory-bus and
    disk traffic and "experiences minimal phase transitions during
    isolated execution" (§7.1) — the paper pairs it with CPUBomb for
    the instantaneous-transition illustration (Fig. 6).
    """

    def __init__(
        self,
        name: str = "vlc-transcoding",
        total_work: float = 600.0,
        cpu: float = 1.8,
        seed: int = 13,
        noise_std: float = 0.03,
    ) -> None:
        demand = ResourceVector(
            cpu=cpu, memory=420.0, memory_bw=900.0, disk_io=30.0, network=0.0
        )
        schedule = PhaseSchedule(
            [Phase(name="transcode", duration=total_work, demand=demand)],
            cyclic=False,
        )
        super().__init__(
            name=name,
            schedule=schedule,
            total_work=total_work,
            seed=seed,
            noise_std=noise_std,
        )
