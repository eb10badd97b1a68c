"""The simulated physical host.

A :class:`Host` owns a set of containers and a contention model. Each
tick it gathers demands from running containers, resolves contention,
delivers allocations and produces a :class:`HostSnapshot` — the
observable state a monitoring agent would collect from cgroups/libvirt.

A tick is two passes over the containers with the contention resolve
between them: :meth:`Host.gather_demands` (autostart, then demand) and
the delivery pass of :meth:`Host.step` (grants, paused-tick accounting,
snapshot). Demands are gathered in container insertion order, which is
the floating-point fold order the determinism contract in
``docs/SIMULATION.md`` pins down.
"""

from __future__ import annotations

from contextlib import suppress
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.observation import ContainerRow, Observation, ZERO_USAGE
from repro.sim.clock import SimulationClock
from repro.sim.container import Container, ContainerError, ContainerState
from repro.sim.contention import (
    Allocation,
    ContentionModel,
    ProportionalShareModel,
)
from repro.sim.resources import ResourceVector, default_host_capacity

_ZERO = ResourceVector.zero()
_CREATED = ContainerState.CREATED
_RUNNING = ContainerState.RUNNING
_PAUSED = ContainerState.PAUSED


class HostSnapshot(NamedTuple):
    """Observable host state after one tick (immutable).

    Attributes
    ----------
    tick:
        Tick this snapshot describes.
    usage:
        Per-container resources actually consumed this tick (zero for
        paused / idle / finished containers).
    allocations:
        Full allocation records (including progress factors) per
        running container.
    states:
        Container lifecycle state per container.
    swap_ratio:
        Memory overcommit ratio this tick (1.0 = no overcommit).
    """

    tick: int
    usage: Dict[str, ResourceVector]
    allocations: Dict[str, Allocation]
    states: Dict[str, ContainerState]
    swap_ratio: float

    def cpu_utilization(self, capacity: ResourceVector) -> float:
        """Machine CPU utilization in [0, 1] — the paper's utilization metric."""
        if capacity.cpu <= 0:
            return 0.0
        cpu = 0.0
        for usage in self.usage.values():
            cpu += usage.cpu
        return min(1.0, cpu / capacity.cpu)


class Host:
    """A single physical machine hosting containers.

    Parameters
    ----------
    capacity:
        Total machine resources; defaults to the paper's testbed
        (4 cores, 8 GB RAM, see :func:`default_host_capacity`).
    contention:
        The contention model; defaults to proportional share with a
        swap penalty.
    clock:
        Shared simulation clock; a fresh one is created if omitted.
    """

    def __init__(
        self,
        capacity: Optional[ResourceVector] = None,
        contention: Optional[ContentionModel] = None,
        clock: Optional[SimulationClock] = None,
    ) -> None:
        self.capacity = capacity if capacity is not None else default_host_capacity()
        self.contention = contention if contention is not None else ProportionalShareModel()
        self.clock = clock if clock is not None else SimulationClock()
        self._containers: Dict[str, Container] = {}
        #: The latest tick's snapshot (None before the first step).
        self.last_snapshot: Optional[HostSnapshot] = None

    # -- container management -----------------------------------------
    def add_container(self, container: Container) -> Container:
        """Admit a container to the host. Names must be unique."""
        if container.name in self._containers:
            raise ValueError(f"duplicate container name: {container.name!r}")
        self._containers[container.name] = container
        return container

    def container(self, name: str) -> Container:
        """Look up a container by name."""
        return self._containers[name]

    @property
    def containers(self) -> Dict[str, Container]:
        """All admitted containers by name (read-only view by convention)."""
        return self._containers

    def sensitive_containers(self) -> List[Container]:
        """Containers marked latency-sensitive."""
        return [c for c in self._containers.values() if c.sensitive]

    def batch_containers(self) -> List[Container]:
        """Best-effort batch containers (the throttling candidates)."""
        return [c for c in self._containers.values() if not c.sensitive]

    # -- the controller's port: every SIGSTOP / SIGCONT the program sends --
    def observe(self, snapshot: HostSnapshot) -> Observation:
        """The host as a controller period reads it: usage from
        ``snapshot`` (what the monitoring channel delivered, faults
        included), lifecycle state read live — whatever a middleware
        registered earlier did this tick is seen the same tick."""
        usage_of = snapshot.usage.get
        rows = tuple(
            ContainerRow(
                name,
                usage_of(name, ZERO_USAGE),
                container.state.value,
                container.app.finished,
                container.sensitive,
                container.app,
            )
            for name, container in self._containers.items()
        )
        return Observation(snapshot.tick, self.capacity, rows)

    def pause(self, name: str) -> bool:
        """SIGSTOP ``name``; True when it is paused now (a refusal is an answer)."""
        with suppress(KeyError, ContainerError):
            self._containers[name].pause()
        return name in self._containers and self._containers[name].is_paused

    def resume(self, name: str) -> bool:
        """SIGCONT ``name``; True when it is running now (a refusal is an answer)."""
        with suppress(KeyError, ContainerError):
            self._containers[name].resume()
        return name in self._containers and self._containers[name].is_running

    # -- simulation -----------------------------------------------------
    #
    # One tick is two passes over the containers: gather_demands
    # (autostart, demand) and step's delivery pass (grants, paused
    # ticks, snapshot), with the contention resolve between them.

    def gather_demands(self) -> Tuple[Dict[str, ResourceVector], Dict[str, float]]:
        """The demand pass: autostart due containers, then collect demand
        and weight rows for this tick.

        Returns ``(demands, weights)`` keyed by container name, both in
        container insertion order. Only running containers with a
        non-zero demand vector appear (paused / idle / finished
        containers demand nothing) — the same gate the contention
        models assume.
        """
        clock = self.clock
        demands: Dict[str, ResourceVector] = {}
        weights: Dict[str, float] = {}
        for name, container in self._containers.items():
            if container.state is _CREATED:
                container.maybe_autostart(clock)
            if container.state is _RUNNING:
                demand = container.demand(clock)
                if not demand.is_zero():
                    demands[name] = demand
                    weights[name] = container.weight
        return demands, weights

    def step(self, advance_clock: bool = True) -> HostSnapshot:
        """Advance the host by one tick and return the observable snapshot.

        Containers that got a grant receive it (advancing their
        application); the others account a paused tick if paused. The
        snapshot's ``swap_ratio`` reads the contention model's
        ``last_swap_ratio``.

        Parameters
        ----------
        advance_clock:
            Set False when an external coordinator (a
            :class:`~repro.sim.cluster.Cluster`) owns a clock shared by
            several hosts and advances it once per cluster tick.
        """
        clock = self.clock
        demands, weights = self.gather_demands()
        allocations = self.contention.resolve(demands, self.capacity, weights)
        usage: Dict[str, ResourceVector] = {}
        states: Dict[str, ContainerState] = {}
        for name, container in self._containers.items():
            allocation = allocations.get(name)
            if allocation is not None:
                container.deliver(allocation, clock)
                usage[name] = allocation.granted
            else:
                if container.state is _PAUSED:
                    container.observe_paused_tick()
                usage[name] = _ZERO
            states[name] = container.state
        snapshot = HostSnapshot(
            clock.tick,
            usage,
            allocations,
            states,
            getattr(self.contention, "last_swap_ratio", 1.0),
        )
        self.last_snapshot = snapshot
        if advance_clock:
            clock.advance()
        return snapshot

    def all_finished(self) -> bool:
        """True when no container can ever demand resources again."""
        return all(
            container.state is ContainerState.STOPPED
            or container.app.finished
            for container in self._containers.values()
        )
