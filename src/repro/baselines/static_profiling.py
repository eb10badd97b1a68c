"""Static-profiling admission (Bubble-Up-style baseline).

The class of prior work the paper argues against (§1, §8): profile
applications offline, then make a one-shot placement/admission decision
and never adapt. We reproduce the essential failure mode: the profile
is taken at whatever workload intensity happened to hold during
profiling, so a co-location admitted under light load violates QoS when
the sensitive application's diurnal peak arrives — and a co-location
rejected under peak load wastes the off-peak headroom Stay-Away
exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.sim.container import Container
from repro.sim.contention import ProportionalShareModel
from repro.sim.host import Host, HostSnapshot
from repro.sim.resources import ResourceVector, sum_vectors
from repro.workloads.base import Application


@dataclass(frozen=True)
class StaticProfile:
    """An offline profile: the mean demand observed during profiling.

    Attributes
    ----------
    name:
        Profiled application's name.
    mean_demand:
        Average demand vector over the profiling window.
    profile_ticks:
        Window length used.
    """

    name: str
    mean_demand: ResourceVector
    profile_ticks: int


def profile_application(
    app: Application, ticks: int = 50, capacity: Optional[ResourceVector] = None
) -> StaticProfile:
    """Profile an application in isolation for a fixed window.

    The application runs alone on a dedicated profiling host (no
    contention), exactly like an offline characterization run.
    Mutates the application's internal state — pass a fresh instance.
    """
    if ticks < 1:
        raise ValueError("ticks must be >= 1")
    host = Host(capacity=capacity, contention=ProportionalShareModel())
    host.add_container(Container(name=app.name, app=app, sensitive=app.is_sensitive))
    demands: List[ResourceVector] = []
    for _ in range(ticks):
        # Offline characterization run; the docstring requires a fresh
        # instance precisely because this probe advances the app.
        demands.append(app.demand(host.clock))  # sacheck: disable=SA201 -- offline profiling probe, fresh instance required
        host.step()
        if app.finished:
            break
    observed = len(demands)
    mean = sum_vectors(demands).scaled(1.0 / observed)
    return StaticProfile(name=app.name, mean_demand=mean, profile_ticks=observed)


def static_admission_decision(
    sensitive_profile: StaticProfile,
    batch_profiles: Iterable[StaticProfile],
    capacity: ResourceVector,
    headroom: float = 1.0,
) -> bool:
    """Admit the co-location iff combined profiled demand fits capacity.

    Parameters
    ----------
    headroom:
        Fraction of capacity the combined demand may use (1.0 = full
        machine; a conservative operator would use < 1).
    """
    if headroom <= 0:
        raise ValueError("headroom must be positive")
    combined = sensitive_profile.mean_demand
    for profile in batch_profiles:
        combined = combined + profile.mean_demand
    for resource, demanded in combined.items():
        if demanded > capacity.get(resource) * headroom:
            return False
    return True


class StaticColocationPolicy:
    """A middleware enforcing a one-shot static admission decision.

    If the offline decision was *reject*, batch containers are paused
    permanently at their first running tick; if *admit*, nothing is
    ever done — there is no runtime adaptation, which is precisely the
    limitation the paper targets.
    """

    def __init__(self, admit: bool) -> None:
        self.admit = admit
        self.rejected_containers: List[str] = []

    def on_tick(self, snapshot: HostSnapshot, host: Host) -> None:
        """Enforce the static decision (only matters when rejecting)."""
        if self.admit:
            return
        for container in host.batch_containers():
            if container.is_running and not container.app.finished:
                host.pause(container.name)
                if container.name not in self.rejected_containers:
                    self.rejected_containers.append(container.name)
