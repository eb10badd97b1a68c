"""Discrete-time host/container simulator.

This package is the substrate standing in for the paper's physical
testbed (a 4-core Intel i5 host running Ubuntu with LXC containers).
It models a single physical host with a fixed set of resources (CPU,
memory, memory bandwidth, disk I/O, network), LXC-like containers that
can be paused/resumed with SIGSTOP/SIGCONT semantics, and a
proportional-share contention model that slows applications down when
aggregate demand exceeds capacity.

The simulator is deliberately observable in exactly the way Stay-Away
observes a real host: per-container resource-usage snapshots each tick,
plus whatever QoS signal the applications themselves report.
"""

from repro.sim.clock import SimulationClock
from repro.sim.cluster import (
    Cluster,
    ContainerLocation,
    HostEvent,
    MigrationRecord,
)
from repro.sim.container import Container, ContainerState
from repro.sim.scheduler import (
    ConstrainedScheduler,
    Placement,
    PlacementRequest,
    SchedulingError,
)
from repro.sim.contention import (
    Allocation,
    ContentionModel,
    ProportionalShareModel,
    WeightedWaterFillModel,
    swap_pressure,
    weighted_water_fill,
)
from repro.sim.engine import SimulationEngine, SimulationResult
from repro.sim.faults import (
    ContainerFlapper,
    DemandSpiker,
    FaultyPort,
    HostCrashInjector,
    QosDropout,
    TelemetryBlackout,
)
from repro.sim.host import Host, HostSnapshot
from repro.sim.resources import (
    RATE_RESOURCES,
    Resource,
    ResourceVector,
    default_host_capacity,
)

__all__ = [
    "Allocation",
    "Cluster",
    "swap_pressure",
    "ConstrainedScheduler",
    "Container",
    "ContainerFlapper",
    "ContainerLocation",
    "DemandSpiker",
    "FaultyPort",
    "HostCrashInjector",
    "HostEvent",
    "MigrationRecord",
    "TelemetryBlackout",
    "Placement",
    "PlacementRequest",
    "QosDropout",
    "SchedulingError",
    "ContainerState",
    "ContentionModel",
    "Host",
    "HostSnapshot",
    "ProportionalShareModel",
    "RATE_RESOURCES",
    "Resource",
    "ResourceVector",
    "SimulationClock",
    "SimulationEngine",
    "SimulationResult",
    "WeightedWaterFillModel",
    "default_host_capacity",
    "weighted_water_fill",
]
