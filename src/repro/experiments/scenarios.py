"""Declarative co-location scenarios.

A :class:`Scenario` captures everything that defines one experiment:
the sensitive workload, the batch co-tenants (Table 1 combinations are
just multi-entry batch lists), the client trace, the run length and the
host. :meth:`Scenario.build` instantiates fresh application objects so
a scenario can be rerun under different policies without state leaking
between runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.sim.container import Container
from repro.sim.host import Host
from repro.sim.resources import ResourceVector
from repro.workloads.base import Application
from repro.workloads.registry import make_workload
from repro.workloads.traces import WorkloadTrace, wikipedia_trace


@dataclass(frozen=True)
class BuiltScenario:
    """Instantiated host + applications, ready to run.

    Attributes
    ----------
    host:
        A fresh host with all containers admitted.
    sensitive_app:
        The (single) sensitive application instance.
    batch_apps:
        The batch application instances, in scenario order.
    """

    host: Host
    sensitive_app: Application
    batch_apps: Tuple[Application, ...]


def batch_work(apps: Iterable[Application]) -> float:
    """Total work the batch applications retired (the paper's
    utilization axis — what over-throttling silently destroys)."""
    return float(sum(app.work_done for app in apps))


@dataclass(frozen=True)
class Scenario:
    """One co-location experiment description.

    Parameters
    ----------
    sensitive:
        Registry name of the sensitive workload.
    batches:
        Registry names of the batch co-tenants ("Batch-1" of Table 1 is
        ``("twitter-analysis", "soplex")``).
    ticks:
        Run length in ticks.
    batch_start:
        Tick at which batch containers begin executing (the paper's
        staggered lifecycles: the sensitive service is already running
        when the batch job is scheduled).
    trace:
        Client-load trace for the sensitive app; ``None`` selects a
        one-day Wikipedia diurnal trace compressed to the run length.
    sensitive_kwargs / batch_kwargs:
        Extra constructor arguments (``batch_kwargs[i]`` applies to
        ``batches[i]``).
    capacity:
        Host capacity override (defaults to the paper's testbed).
    seed:
        Base RNG seed; each application derives its own offset.
    """

    sensitive: str = "vlc-streaming"
    batches: Tuple[str, ...] = ("cpubomb",)
    ticks: int = 1200
    batch_start: int = 60
    trace: Optional[WorkloadTrace] = None
    sensitive_kwargs: Dict = field(default_factory=dict)
    batch_kwargs: Tuple[Dict, ...] = ()
    capacity: Optional[ResourceVector] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.ticks < 1:
            raise ValueError("ticks must be >= 1")
        if self.batch_start < 0:
            raise ValueError("batch_start must be >= 0")
        if self.batch_kwargs and len(self.batch_kwargs) != len(self.batches):
            raise ValueError(
                f"{len(self.batch_kwargs)} batch_kwargs for {len(self.batches)} batches"
            )

    def default_trace(self) -> WorkloadTrace:
        """One diurnal day compressed into the scenario's run length.

        The trough is deepened (base 0.05) relative to the raw
        Wikipedia shape so a single compressed day exhibits the clear
        low-utilization valleys the paper's multi-day trace shows.
        """
        sample_seconds = max(1.0, self.ticks / 24.0)
        return wikipedia_trace(
            days=2, sample_seconds=sample_seconds, base=0.05, seed=self.seed + 7
        )

    def build(self, include_batch: bool = True) -> BuiltScenario:
        """Instantiate fresh applications and a fresh host.

        Parameters
        ----------
        include_batch:
            When False only the sensitive container is admitted (the
            isolated-utilization baseline).
        """
        trace = self.trace if self.trace is not None else self.default_trace()
        sensitive_app = make_workload(
            self.sensitive,
            seed=self.seed + 100,
            trace=trace,
            **dict(self.sensitive_kwargs),
        )
        host = Host(capacity=self.capacity)
        host.add_container(
            Container(name=sensitive_app.name, app=sensitive_app, sensitive=True)
        )
        batch_apps: List[Application] = []
        if include_batch:
            for i, batch_name in enumerate(self.batches):
                kwargs = dict(self.batch_kwargs[i]) if self.batch_kwargs else {}
                app = make_workload(batch_name, seed=self.seed + 200 + i, **kwargs)
                # Distinct container names even when the same workload
                # appears twice.
                container_name = app.name if app.name not in host.containers else (
                    f"{app.name}-{i}"
                )
                app.name = container_name
                host.add_container(
                    Container(
                        name=container_name,
                        app=app,
                        sensitive=False,
                        start_tick=self.batch_start,
                    )
                )
                batch_apps.append(app)
        return BuiltScenario(
            host=host, sensitive_app=sensitive_app, batch_apps=tuple(batch_apps)
        )
