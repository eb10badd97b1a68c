"""Constrained placement (a Choosy-like scheduler, §2.1).

"Stay-Away is not a scheduler. It relies on dynamic reconfiguration and
can complement ... schedulers like Choosy that allows scheduling with
constraints. ... either best-effort batch applications are scheduled
with latency sensitive applications or multiple sensitive applications
are scheduled with the notion of priorities."

:class:`ConstrainedScheduler` enforces exactly that constraint while
packing workload requests onto cluster hosts: at most one sensitive
application per host (unless priorities are declared), batch
applications placed onto the least-loaded compatible host.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.sim.cluster import Cluster
from repro.sim.container import Container
from repro.sim.resources import Resource, ResourceVector

if TYPE_CHECKING:  # workloads.base imports repro.sim: annotation only
    from repro.workloads.base import Application


@dataclass(frozen=True)
class PlacementRequest:
    """One workload to place.

    Attributes
    ----------
    app:
        The application instance.
    sensitive:
        Whether the container is latency-sensitive.
    priority:
        Only meaningful for sensitive requests sharing a host; higher
        is stricter. ``None`` forbids co-locating two sensitive apps.
    estimated_demand:
        Demand estimate used for bin-packing (defaults to the app's
        demand at tick zero).
    start_tick:
        When the container begins executing.
    """

    app: Application
    sensitive: bool = False
    priority: Optional[int] = None
    estimated_demand: Optional[ResourceVector] = None
    start_tick: int = 0


@dataclass(frozen=True)
class Placement:
    """The scheduler's decision for one request."""

    container: str
    host: str
    sensitive: bool


class SchedulingError(RuntimeError):
    """No host satisfies a request's constraints."""


class ConstrainedScheduler:
    """Greedy least-loaded placement under the paper's co-location rule.

    Parameters
    ----------
    cluster:
        The cluster to place onto.
    cpu_headroom:
        Fraction of a host's CPU the *estimated* placements may fill;
        Stay-Away handles the rest at runtime, so mild overcommit is
        allowed by default.
    """

    def __init__(self, cluster: Cluster, cpu_headroom: float = 1.25) -> None:
        if cpu_headroom <= 0:
            raise ValueError("cpu_headroom must be positive")
        self.cluster = cluster
        self.cpu_headroom = cpu_headroom
        self.placements: List[Placement] = []
        self._estimated_cpu: Dict[str, float] = {
            name: 0.0 for name in cluster.hosts
        }
        self._sensitive_on: Dict[str, List[Optional[int]]] = {
            name: [] for name in cluster.hosts
        }

    def _estimate(self, request: PlacementRequest) -> ResourceVector:
        if request.estimated_demand is not None:
            return request.estimated_demand
        # Pre-admission estimate: the app has never run, so this first
        # demand() draw is the profiling read; callers that care about
        # pairing pass estimated_demand instead.
        return request.app.demand(self.cluster.clock)  # sacheck: disable=SA201 -- pre-admission profiling read

    def _compatible(self, host_name: str, request: PlacementRequest) -> bool:
        sensitive_priorities = self._sensitive_on[host_name]
        if request.sensitive:
            if sensitive_priorities and (
                request.priority is None
                or any(priority is None for priority in sensitive_priorities)
                or request.priority in sensitive_priorities
            ):
                # Two sensitive apps may share a host only under a
                # total priority order (§2.1).
                return False
        capacity = self.cluster.hosts[host_name].capacity.get(Resource.CPU)
        estimated = self._estimated_cpu[host_name] + self._estimate(request).get(
            Resource.CPU
        )
        return estimated <= capacity * self.cpu_headroom

    def place(self, request: PlacementRequest) -> Placement:
        """Place one request; raises :class:`SchedulingError` if impossible."""
        candidates = [
            name for name in self.cluster.hosts if self._compatible(name, request)
        ]
        if not candidates:
            raise SchedulingError(
                f"no host satisfies constraints for {request.app.name!r}"
            )
        # Least estimated CPU load first.
        chosen = min(candidates, key=lambda name: self._estimated_cpu[name])
        host = self.cluster.hosts[chosen]
        container = Container(
            name=request.app.name,
            app=request.app,
            sensitive=request.sensitive,
            start_tick=request.start_tick,
        )
        host.add_container(container)
        self._estimated_cpu[chosen] += self._estimate(request).get(Resource.CPU)
        if request.sensitive:
            self._sensitive_on[chosen].append(request.priority)
        placement = Placement(
            container=request.app.name, host=chosen, sensitive=request.sensitive
        )
        self.placements.append(placement)
        return placement

    def place_all(self, requests: List[PlacementRequest]) -> List[Placement]:
        """Place sensitive requests first (they constrain hosts), then batch."""
        ordered = sorted(requests, key=lambda r: not r.sensitive)
        return [self.place(request) for request in ordered]
