"""LXC-like containers with SIGSTOP/SIGCONT semantics.

The paper runs every application in its own Linux container and
throttles batch applications by sending SIGSTOP to pause and SIGCONT to
resume (§3.3). A :class:`Container` reproduces that control surface: a
paused container contributes zero demand, makes zero progress and keeps
its application state frozen until resumed.

Containers also support cgroup-style static resource caps (``limits``)
— not used by Stay-Away itself (throttling is all-or-nothing in the
paper) but available to experiments and baselines.

Off-tick code (migration sizing, eviction scoring) must read
:attr:`Container.last_allocation` / :meth:`usage_snapshot`, never call
``app.demand()``: demand is sampled exactly once per tick by the
engine, and an extra probe would advance the application's private
jitter RNG and desync otherwise-identical runs — see
``docs/SIMULATION.md`` for the determinism contract.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Protocol, runtime_checkable

from repro.sim.clock import SimulationClock
from repro.sim.contention import Allocation
from repro.sim.resources import ResourceVector


@runtime_checkable
class ApplicationLike(Protocol):
    """What a container needs from the application it hosts.

    Implemented by :class:`repro.workloads.base.Application`; defined
    structurally here so the simulator does not depend on workloads.
    """

    name: str

    def demand(self, clock: SimulationClock) -> ResourceVector:
        """Resource demand for the upcoming tick."""
        ...

    def advance(
        self, allocation: Allocation, clock: SimulationClock
    ) -> None:
        """Consume the allocation and advance internal state by one tick."""
        ...

    @property
    def finished(self) -> bool:
        """True once the application has completed all its work."""
        ...


class ContainerState(enum.Enum):
    """Lifecycle states, mirroring ``lxc-info`` states."""

    CREATED = "created"
    RUNNING = "running"
    PAUSED = "paused"
    STOPPED = "stopped"


#: Read once a tick per container: a module global, not an enum lookup.
_RUNNING = ContainerState.RUNNING


class ContainerError(RuntimeError):
    """Raised on invalid container lifecycle transitions."""


@dataclass
class Container:
    """A container hosting exactly one application.

    Parameters
    ----------
    name:
        Unique container name on the host.
    app:
        The hosted application (workload model).
    sensitive:
        True for latency-sensitive containers; Stay-Away never
        throttles these (the paper's constraint in §2.1 is that batch
        co-tenants are best-effort).
    limits:
        Optional cgroup-style per-resource caps applied to the
        application's demand before contention resolution.
    weight:
        cgroup-shares-style scheduling weight, honoured by
        weight-aware contention models (see
        :class:`~repro.sim.contention.WeightedWaterFillModel`).
    start_tick:
        Tick at which the container begins executing. Before that the
        container is admitted to the host but idle — this is how the
        paper's staggered execution lifecycles (Fig. 5, Fig. 13) are
        reproduced.
    """

    name: str
    app: ApplicationLike
    sensitive: bool = False
    limits: Optional[ResourceVector] = None
    weight: float = 1.0
    start_tick: int = 0
    state: ContainerState = ContainerState.CREATED
    pause_count: int = field(default=0, repr=False)
    paused_ticks: int = field(default=0, repr=False)
    running_ticks: int = field(default=0, repr=False)
    _last_allocation: Optional[Allocation] = field(default=None, repr=False)

    def set_weight(self, weight: float) -> None:
        """Adjust the scheduling weight (cgroup ``cpu.shares`` write)."""
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        self.weight = weight

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Move the container to RUNNING (idempotent from CREATED)."""
        if self.state is ContainerState.STOPPED:
            raise ContainerError(f"container {self.name!r} is stopped; cannot start")
        if self.state is ContainerState.CREATED:
            self.state = ContainerState.RUNNING

    def stop(self) -> None:
        """Terminate the container; it never demands resources again."""
        self.state = ContainerState.STOPPED

    def pause(self) -> None:
        """SIGSTOP analogue: freeze the application instantly."""
        if self.state is ContainerState.STOPPED:
            raise ContainerError(f"container {self.name!r} is stopped; cannot pause")
        if self.state is ContainerState.RUNNING:
            self.state = ContainerState.PAUSED
            self.pause_count += 1

    def resume(self) -> None:
        """SIGCONT analogue: continue exactly where the app left off."""
        if self.state is ContainerState.STOPPED:
            raise ContainerError(f"container {self.name!r} is stopped; cannot resume")
        if self.state is ContainerState.PAUSED:
            self.state = ContainerState.RUNNING

    def restart(self) -> None:
        """Supervisor restart: revive a stopped or paused container.

        Unlike :meth:`resume`, a restart is allowed from STOPPED — it
        models a crash-looping supervisor (systemd, ``lxc-autostart``)
        bringing the process back up behind the controller's back.
        Pause bookkeeping (``pause_count`` / ``paused_ticks``) is left
        untouched; a finished application stays finished and simply
        idles after the restart.
        """
        if self.state in (ContainerState.STOPPED, ContainerState.PAUSED, ContainerState.CREATED):
            self.state = ContainerState.RUNNING

    # -- scheduling hooks (called by the host) ---------------------------
    def maybe_autostart(self, clock: SimulationClock) -> None:
        """Start the container once its scheduled start tick arrives."""
        if self.state is ContainerState.CREATED and clock.tick >= self.start_tick:
            self.start()

    def demand(self, clock: SimulationClock) -> ResourceVector:
        """Demand for this tick; zero unless RUNNING with an unfinished app."""
        if self.state is not _RUNNING or self.app.finished:
            return ResourceVector.zero()
        demand = self.app.demand(clock).clamped(0.0)
        if self.limits is not None:
            demand = demand.capped_by(self.limits)
        return demand

    def deliver(self, allocation: Allocation, clock: SimulationClock) -> None:
        """Hand this tick's allocation to the application."""
        self._last_allocation = allocation
        self.running_ticks += 1
        self.app.advance(allocation, clock)
        if self.app.finished:
            self.stop()

    def observe_paused_tick(self) -> None:
        """Accounting hook: the host calls this for each paused tick."""
        self.paused_ticks += 1

    # -- introspection ---------------------------------------------------
    @property
    def is_running(self) -> bool:
        return self.state is ContainerState.RUNNING

    @property
    def is_paused(self) -> bool:
        return self.state is ContainerState.PAUSED

    @property
    def last_allocation(self) -> Optional[Allocation]:
        """The most recent allocation delivered to this container."""
        return self._last_allocation

    def usage_snapshot(self) -> ResourceVector:
        """Resources the container actually consumed in the last tick.

        This is what a monitoring agent reading ``/sys/fs/cgroup`` or
        libvirt stats would see: zero while paused, the granted
        allocation while running.
        """
        if self.state is not ContainerState.RUNNING or self._last_allocation is None:
            return ResourceVector.zero()
        return self._last_allocation.granted
