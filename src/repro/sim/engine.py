"""Simulation engine: the run loop wiring host, workloads and middleware.

The engine advances the host tick by tick and, after every tick, hands
the resulting :class:`~repro.sim.host.HostSnapshot` to each registered
middleware. The Stay-Away controller, the baselines and the metric
collectors are all middlewares — exactly the paper's architecture where
"the Stay-Away runtime is a middleware between the VMs and the
underlying resource" (§3).

Each tick delegates to :meth:`Host.step`: a demand pass, the contention
resolve and a delivery pass, documented in ``docs/SIMULATION.md``.
Multi-host runs use :class:`~repro.sim.cluster.Cluster`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Protocol, runtime_checkable

from repro.sim.host import Host, HostSnapshot


@runtime_checkable
class Middleware(Protocol):
    """Anything that observes (and possibly acts on) the host each tick."""

    def on_tick(self, snapshot: HostSnapshot, host: Host) -> None:
        """Called once per tick, after contention was resolved."""
        ...


@dataclass
class SimulationResult:
    """Outcome of a simulation run."""

    snapshots: List[HostSnapshot] = field(default_factory=list)
    ticks: int = 0

    @property
    def duration(self) -> int:
        """Number of ticks executed (alias for ``ticks``)."""
        return self.ticks


class SimulationEngine:
    """Drives a host for a bounded number of ticks.

    Parameters
    ----------
    host:
        The host to simulate.
    middlewares:
        Observers/controllers invoked after each tick, in order.
        Controllers that pause/resume containers take effect from the
        *next* tick, matching a real monitoring loop's one-period lag.
    """

    def __init__(self, host: Host, middlewares: Iterable[Middleware] = ()) -> None:
        self.host = host
        self.middlewares: List[Middleware] = list(middlewares)

    def add_middleware(self, middleware: Middleware) -> None:
        """Register an additional observer/controller."""
        self.middlewares.append(middleware)

    def run(
        self,
        ticks: Optional[int] = None,
        until_finished: bool = False,
        max_ticks: int = 100_000,
    ) -> SimulationResult:
        """Run the simulation.

        Parameters
        ----------
        ticks:
            Exact number of ticks to execute. Mutually exclusive with
            ``until_finished``.
        until_finished:
            Run until every container has finished (bounded by
            ``max_ticks`` as a runaway guard).
        """
        if ticks is None and not until_finished:
            raise ValueError("specify either ticks= or until_finished=True")
        if ticks is not None and until_finished:
            raise ValueError("ticks= and until_finished=True are mutually exclusive")
        if ticks is not None and ticks < 0:
            raise ValueError(f"ticks must be non-negative, got {ticks}")

        result = SimulationResult()
        budget = ticks if ticks is not None else max_ticks
        for _ in range(budget):
            if until_finished and self.host.all_finished():
                break
            snapshot = self.host.step()
            result.snapshots.append(snapshot)
            result.ticks += 1
            for middleware in self.middlewares:
                middleware.on_tick(snapshot, self.host)
        return result
