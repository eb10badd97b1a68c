"""Batched struct-of-arrays simulation engine.

The object engine (:mod:`repro.sim.host` / :mod:`repro.sim.cluster`)
steps one container at a time through Python method calls — faithful,
but ~1.4k host-ticks/s. This module holds the fleet in dense NumPy
arrays instead and steps *all containers on all hosts* with one
broadcasted pass per tick:

* demand gathering is one fancy-index into a ``(C, P, R)`` trace cube,
* contention is one segmented resolve per model kind
  (:func:`~repro.sim.contention.resolve_proportional_arrays` /
  :func:`~repro.sim.contention.resolve_waterfill_arrays`),
* pause / resume / migration / host failure are boolean-mask updates.

Shapes follow one convention throughout: ``C`` containers, ``H``
hosts, ``R`` resource dimensions
(:data:`~repro.sim.resources.NUM_RESOURCES`, column order
:data:`~repro.sim.resources.RESOURCE_INDEX`), ``P`` trace period.

Equivalence contract
--------------------
A :class:`BatchScenario` can be run two ways — :class:`BatchEngine`
(this module) or :func:`build_scalar_cluster` (the reference object
engine) — and :func:`run_scenario` produces *bit-identical*
trajectories on the same platform, because every array expression
mirrors the scalar arithmetic operand for operand and every segmented
reduction folds rows in the hosts' container insertion order. See
``docs/SIMULATION.md`` for the full contract and its limits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.clock import SimulationClock
from repro.sim.cluster import Cluster
from repro.sim.container import Container, ContainerError
from repro.sim.contention import (
    ProportionalShareModel,
    WeightedWaterFillModel,
    resolve_proportional_arrays,
    resolve_waterfill_arrays,
)
from repro.sim.host import Host
from repro.sim.resources import (
    MEMORY_INDEX,
    NUM_RESOURCES,
    ResourceVector,
    default_host_capacity,
)

#: Contention model kinds a :class:`HostSpec` may name.
MODEL_KINDS: Tuple[str, ...] = ("proportional", "waterfill")

#: Event actions a :class:`BatchEvent` may carry.
EVENT_ACTIONS: Tuple[str, ...] = (
    "pause",
    "resume",
    "stop",
    "migrate",
    "fail_host",
    "recover_host",
)

# Integer lifecycle codes used by the state array; values mirror
# ``ContainerState`` (created/running/paused/stopped).
STATE_CREATED = 0
STATE_RUNNING = 1
STATE_PAUSED = 2
STATE_STOPPED = 3

_STATE_NAMES = ("created", "running", "paused", "stopped")


# ---------------------------------------------------------------------------
# Scenario description
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HostSpec:
    """One host of a :class:`BatchScenario`.

    ``capacity`` is a :class:`ResourceVector` (None = the paper's
    testbed via :func:`default_host_capacity`); ``model`` picks the
    contention kind (``"proportional"`` or ``"waterfill"``) with its
    swap parameters.
    """

    name: str
    capacity: Optional[ResourceVector] = None
    model: str = "proportional"
    swap_cost: float = 3.0
    swap_io_per_overcommit_mb: float = 0.05

    def __post_init__(self) -> None:
        if self.model not in MODEL_KINDS:
            raise ValueError(
                f"host {self.name!r}: model must be one of {MODEL_KINDS}, "
                f"got {self.model!r}"
            )

    def capacity_array(self) -> np.ndarray:
        """This host's capacity as a dense ``(R,)`` array."""
        capacity = self.capacity or default_host_capacity()
        return capacity.as_array()


@dataclass(frozen=True)
class ContainerSpec:
    """One container of a :class:`BatchScenario`.

    ``trace`` is the ``(P, R)`` non-negative demand cycle the container
    replays, indexed by wall-clock phase ``tick % P`` (canonical column
    order). ``total_work`` is the accumulated progress at which the
    container finishes (None = runs forever); ``start_tick`` delays its
    first running tick.
    """

    name: str
    host: str
    trace: np.ndarray
    weight: float = 1.0
    total_work: Optional[float] = None
    start_tick: int = 0
    sensitive: bool = False

    def __post_init__(self) -> None:
        trace = np.asarray(self.trace, dtype=np.float64)
        if trace.ndim != 2 or trace.shape[0] < 1 or trace.shape[1] != NUM_RESOURCES:
            raise ValueError(
                f"container {self.name!r}: trace must be (P>=1, {NUM_RESOURCES}), "
                f"got {trace.shape}"
            )
        if np.any(trace < 0):
            raise ValueError(f"container {self.name!r}: trace demands must be >= 0")
        object.__setattr__(self, "trace", trace)
        if self.weight <= 0:
            raise ValueError(f"container {self.name!r}: weight must be positive")
        if self.total_work is not None and self.total_work <= 0:
            raise ValueError(f"container {self.name!r}: total_work must be positive")
        if self.start_tick < 0:
            raise ValueError(f"container {self.name!r}: start_tick must be >= 0")


@dataclass(frozen=True)
class BatchEvent:
    """One scheduled control action, applied just before its tick steps.

    ``action`` is from :data:`EVENT_ACTIONS`; ``target`` names a
    container (pause/resume/stop/migrate) or a host
    (fail_host/recover_host); ``destination`` names the migration
    target host.
    """

    tick: int
    action: str
    target: str
    destination: Optional[str] = None

    def __post_init__(self) -> None:
        if self.action not in EVENT_ACTIONS:
            raise ValueError(
                f"action must be one of {EVENT_ACTIONS}, got {self.action!r}"
            )
        if (self.action == "migrate") != (self.destination is not None):
            raise ValueError("destination is required for (exactly) migrate events")
        if self.tick < 0:
            raise ValueError("event tick must be >= 0")


@dataclass(frozen=True)
class BatchScenario:
    """A self-contained fleet description every engine can run.

    Hosts, containers (host-major insertion order = the order given
    here) and an optional deterministic event schedule. The same
    scenario object drives :class:`BatchEngine` and
    :func:`build_scalar_cluster`.
    """

    hosts: Tuple[HostSpec, ...]
    containers: Tuple[ContainerSpec, ...]
    events: Tuple[BatchEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "hosts", tuple(self.hosts))
        object.__setattr__(self, "containers", tuple(self.containers))
        object.__setattr__(self, "events", tuple(self.events))
        if not self.hosts:
            raise ValueError("a scenario needs at least one host")
        host_names = [h.name for h in self.hosts]
        if len(set(host_names)) != len(host_names):
            raise ValueError("duplicate host names in scenario")
        container_names = [c.name for c in self.containers]
        if len(set(container_names)) != len(container_names):
            raise ValueError("duplicate container names in scenario")
        known = set(host_names)
        for spec in self.containers:
            if spec.host not in known:
                raise ValueError(
                    f"container {spec.name!r} references unknown host {spec.host!r}"
                )
        containers = set(container_names)
        for event in self.events:
            if event.action in ("fail_host", "recover_host"):
                if event.target not in known:
                    raise ValueError(
                        f"event targets unknown host {event.target!r}"
                    )
            else:
                if event.target not in containers:
                    raise ValueError(
                        f"event targets unknown container {event.target!r}"
                    )
                if event.destination is not None and event.destination not in known:
                    raise ValueError(
                        f"event destination {event.destination!r} is unknown"
                    )


@dataclass(frozen=True)
class ScenarioResult:
    """What one engine run produced, in scenario container order.

    ``trajectory`` is the ``(T, C)`` per-tick progress factor matrix
    (0.0 for ticks a container was idle, paused, migrating or on a
    down host) — the array the equivalence contract compares
    bit-for-bit across engines.
    """

    ticks: int
    container_names: Tuple[str, ...]
    work_done: np.ndarray
    running_ticks: np.ndarray
    paused_ticks: np.ndarray
    pause_count: np.ndarray
    states: Tuple[str, ...]
    trajectory: Optional[np.ndarray] = None


# ---------------------------------------------------------------------------
# The batched engine
# ---------------------------------------------------------------------------


@dataclass
class _Flight:
    """One in-flight batched migration (row index + endpoints + ETA)."""

    row: int
    source: int
    destination: int
    due_tick: int


class BatchEngine:
    """Steps a whole :class:`BatchScenario` as dense arrays.

    All per-container state lives in ``(C,)``/``(C, R)`` arrays and all
    per-host state in ``(H,)``/``(H, R)`` arrays; one :meth:`step` is a
    constant number of NumPy passes regardless of fleet size. Control
    actions (:meth:`pause`, :meth:`migrate`, :meth:`fail_host`, …)
    mirror the object engine's semantics exactly, including its
    validation errors.

    Parameters
    ----------
    scenario:
        The fleet to simulate.
    record_trajectory:
        When True, every tick appends the ``(C,)`` progress row used
        by the equivalence contract (costs one array copy per tick).
    """

    def __init__(self, scenario: BatchScenario, record_trajectory: bool = False) -> None:
        self.scenario = scenario
        self.record_trajectory = record_trajectory
        self.tick = 0

        hosts = scenario.hosts
        containers = scenario.containers
        self._host_pos: Dict[str, int] = {h.name: i for i, h in enumerate(hosts)}
        self._row_of: Dict[str, int] = {c.name: i for i, c in enumerate(containers)}
        n_hosts = len(hosts)
        rows = len(containers)

        # -- host arrays (H,) / (H, R) --------------------------------
        self.capacity = np.stack([h.capacity_array() for h in hosts]) if hosts else np.zeros((0, NUM_RESOURCES))
        self.swap_cost = np.array([h.swap_cost for h in hosts])
        self.swap_io_rate = np.array([h.swap_io_per_overcommit_mb for h in hosts])
        self.host_up = np.ones(n_hosts, dtype=bool)
        #: True where the host water-fills (False = proportional share).
        self.host_weighted = np.array([h.model == "waterfill" for h in hosts])

        # -- container arrays (C,) ------------------------------------
        self.host_index = np.array(
            [self._host_pos[c.host] for c in containers], dtype=np.intp
        )
        self.weight = np.array([c.weight for c in containers])
        self.start_tick = np.array([c.start_tick for c in containers], dtype=np.int64)
        self.total_work = np.array(
            [np.inf if c.total_work is None else c.total_work for c in containers]
        )
        self.state = np.full(rows, STATE_CREATED, dtype=np.int8)
        self.work_done = np.zeros(rows)
        self.running_ticks = np.zeros(rows, dtype=np.int64)
        self.paused_ticks = np.zeros(rows, dtype=np.int64)
        self.pause_count = np.zeros(rows, dtype=np.int64)
        self.in_flight = np.zeros(rows, dtype=bool)
        self.last_granted_memory = np.zeros(rows)
        # Host-major insertion sequence; migrations re-append a row at
        # the back of its new host, exactly like ``dict`` insertion in
        # the object engine — the fold order bit-parity depends on it.
        self.order = np.arange(rows, dtype=np.int64)
        self._next_order = rows

        # -- trace cube (C, Pmax, R) + periods (C,) -------------------
        period_max = max((c.trace.shape[0] for c in containers), default=1)
        self.period = np.array(
            [c.trace.shape[0] for c in containers], dtype=np.int64
        )
        self.traces = np.zeros((rows, period_max, NUM_RESOURCES))
        for i, spec in enumerate(containers):
            p = spec.trace.shape[0]
            self.traces[i, :p] = spec.trace

        self._flights: List[_Flight] = []
        self._trajectory: List[np.ndarray] = []
        self.stats: Dict[str, int] = {
            "ticks": 0,
            "rows_resolved": 0,
            "migrations": 0,
            "bounced": 0,
            "lost": 0,
        }
        self._events_by_tick: Dict[int, List[BatchEvent]] = {}
        for event in scenario.events:
            self._events_by_tick.setdefault(event.tick, []).append(event)

    # -- control surface (mask updates) --------------------------------
    def _row(self, name: str) -> int:
        try:
            return self._row_of[name]
        except KeyError:
            raise KeyError(f"unknown container {name!r}") from None

    def _host(self, name: str) -> int:
        try:
            return self._host_pos[name]
        except KeyError:
            raise KeyError(f"unknown host {name!r}") from None

    def pause(self, name: str) -> None:
        """SIGSTOP analogue; no-op unless the container is RUNNING."""
        row = self._row(name)
        if self.in_flight[row]:
            raise KeyError(f"container {name!r} is migrating; not on any host")
        if self.state[row] == STATE_STOPPED:
            raise ContainerError(f"container {name!r} is stopped; cannot pause")
        if self.state[row] == STATE_RUNNING:
            self.state[row] = STATE_PAUSED
            self.pause_count[row] += 1

    def resume(self, name: str) -> None:
        """SIGCONT analogue; no-op unless the container is PAUSED."""
        row = self._row(name)
        if self.in_flight[row]:
            raise KeyError(f"container {name!r} is migrating; not on any host")
        if self.state[row] == STATE_STOPPED:
            raise ContainerError(f"container {name!r} is stopped; cannot resume")
        if self.state[row] == STATE_PAUSED:
            self.state[row] = STATE_RUNNING

    def stop(self, name: str) -> None:
        """Terminate a container; it never demands resources again."""
        row = self._row(name)
        if self.in_flight[row]:
            raise KeyError(f"container {name!r} is migrating; not on any host")
        self.state[row] = STATE_STOPPED

    def fail_host(self, name: str) -> bool:
        """Crash a host: its rows freeze until :meth:`recover_host`."""
        pos = self._host(name)
        if not self.host_up[pos]:
            return False
        self.host_up[pos] = False
        return True

    def recover_host(self, name: str) -> bool:
        """Bring a crashed host back; its rows thaw next tick."""
        pos = self._host(name)
        if self.host_up[pos]:
            return False
        self.host_up[pos] = True
        return True

    def migrate(self, name: str, destination: str) -> int:
        """Start a live migration; returns the downtime in ticks.

        Same cost model and validation as
        :meth:`repro.sim.cluster.Cluster.migrate`: the row leaves its
        source immediately and is unavailable for
        ``max(1, ceil(resident_mb / migration_mb_per_tick))`` ticks
        (resident set = memory last granted), then lands at the back
        of the destination's insertion order — or bounces / is lost if
        hosts died meanwhile.
        """
        row = self._row(name)
        if self.in_flight[row]:
            raise ValueError(f"container {name!r} is already migrating")
        source = int(self.host_index[row])
        if not self.host_up[source]:
            raise ValueError(f"source host {self.scenario.hosts[source].name!r} is down")
        dest = self._host(destination)
        if not self.host_up[dest]:
            raise ValueError(f"destination host {destination!r} is down")
        if dest == source:
            raise ValueError("destination equals source host")
        resident_mb = float(self.last_granted_memory[row])
        downtime = max(1, int(-(-resident_mb // self.migration_mb_per_tick)))
        self.in_flight[row] = True
        self._flights.append(
            _Flight(row=row, source=source, destination=dest, due_tick=self.tick + downtime)
        )
        self.stats["migrations"] += 1
        return downtime

    #: Memory copy rate for migrations (same default as Cluster).
    migration_mb_per_tick: float = 1000.0

    def _land_migrations(self) -> None:
        remaining: List[_Flight] = []
        for flight in self._flights:
            if self.tick < flight.due_tick:
                remaining.append(flight)
                continue
            self.in_flight[flight.row] = False
            if self.host_up[flight.destination]:
                self.host_index[flight.row] = flight.destination
            elif self.host_up[flight.source]:
                self.host_index[flight.row] = flight.source
                self.stats["bounced"] += 1
            else:
                self.state[flight.row] = STATE_STOPPED
                self.stats["lost"] += 1
            # Either landing appends the row to its host's order.
            self.order[flight.row] = self._next_order
            self._next_order += 1
        self._flights = remaining

    # -- stepping -------------------------------------------------------
    def step(self) -> np.ndarray:
        """One batched tick; returns the ``(C,)`` progress row.

        The phases mirror ``Cluster.step`` exactly: land due
        migrations, autostart, gather demand (one trace-cube index),
        resolve contention per model kind (segmented over hosts),
        deliver, account paused ticks, advance the clock.
        """
        self._land_migrations()
        tick = self.tick

        placed = ~self.in_flight
        up_rows = self.host_up[self.host_index] & placed

        auto = (self.state == STATE_CREATED) & (self.start_tick <= tick) & up_rows
        self.state[auto] = STATE_RUNNING

        phase = tick % self.period
        demand = self.traces[np.arange(self.traces.shape[0]), phase]
        unfinished = self.work_done < self.total_work
        running = (self.state == STATE_RUNNING) & up_rows & unfinished
        nonzero = np.abs(demand).max(axis=1, initial=0.0) > 1e-12
        active = running & nonzero

        progress = np.zeros(demand.shape[0])
        sel = np.nonzero(active)[0]
        # Fold rows host-major in insertion order (migrated rows last),
        # matching the object engine's dict iteration for bit parity.
        sel = sel[np.argsort(self.order[sel], kind="stable")]
        if sel.size:
            weighted_rows = self.host_weighted[self.host_index[sel]]
            for use_waterfill in (False, True):
                rows = sel[weighted_rows == use_waterfill]
                if not rows.size:
                    continue
                if use_waterfill:
                    resolution = resolve_waterfill_arrays(
                        demand[rows],
                        self.host_index[rows],
                        self.weight[rows],
                        self.capacity,
                        self.swap_cost,
                        self.swap_io_rate,
                    )
                else:
                    resolution = resolve_proportional_arrays(
                        demand[rows],
                        self.host_index[rows],
                        self.capacity,
                        self.swap_cost,
                        self.swap_io_rate,
                    )
                progress[rows] = resolution.progress
                self.last_granted_memory[rows] = resolution.granted[:, MEMORY_INDEX]
                self.stats["rows_resolved"] += int(rows.size)

        # Delivery: active rows run and accumulate progress as work.
        self.running_ticks[active] += 1
        self.work_done[active] += progress[active]
        finished = active & (self.work_done >= self.total_work)
        self.state[finished] = STATE_STOPPED

        # Paused accounting only happens on up hosts (down hosts are
        # skipped entirely, like the object cluster).
        self.paused_ticks[(self.state == STATE_PAUSED) & up_rows] += 1

        if self.record_trajectory:
            self._trajectory.append(progress.copy())
        self.stats["ticks"] += 1
        self.tick += 1
        return progress

    def apply_events(self, tick: int) -> None:
        """Apply the scenario's scheduled events for one tick."""
        for event in self._events_by_tick.get(tick, ()):
            if event.action == "pause":
                self.pause(event.target)
            elif event.action == "resume":
                self.resume(event.target)
            elif event.action == "stop":
                self.stop(event.target)
            elif event.action == "migrate":
                self.migrate(event.target, event.destination)
            elif event.action == "fail_host":
                self.fail_host(event.target)
            elif event.action == "recover_host":
                self.recover_host(event.target)

    def run(self, ticks: int) -> ScenarioResult:
        """Run ``ticks`` steps, applying scheduled events, and report."""
        if ticks < 0:
            raise ValueError("ticks must be non-negative")
        for _ in range(ticks):
            self.apply_events(self.tick)
            self.step()
        return self.result()

    def result(self) -> ScenarioResult:
        """Snapshot the run as a :class:`ScenarioResult`."""
        trajectory = (
            np.array(self._trajectory)
            if self.record_trajectory and self._trajectory
            else (np.zeros((0, len(self.scenario.containers))) if self.record_trajectory else None)
        )
        return ScenarioResult(
            ticks=self.tick,
            container_names=tuple(c.name for c in self.scenario.containers),
            work_done=self.work_done.copy(),
            running_ticks=self.running_ticks.copy(),
            paused_ticks=self.paused_ticks.copy(),
            pause_count=self.pause_count.copy(),
            states=tuple(_STATE_NAMES[s] for s in self.state),
            trajectory=trajectory,
        )


# ---------------------------------------------------------------------------
# Scalar twin: the same scenario on the object engine
# ---------------------------------------------------------------------------


class TraceApp:
    """Deterministic trace-replay application (the batch engine's twin).

    Replays a fixed ``(P, R)`` demand cycle indexed by wall-clock
    phase ``tick % P`` — no jitter, no RNG — and finishes once
    accumulated progress reaches ``total_work``. Implements the
    :class:`~repro.sim.container.ApplicationLike` protocol so it runs
    in ordinary :class:`~repro.sim.container.Container` objects.
    """

    def __init__(
        self, name: str, trace: np.ndarray, total_work: Optional[float] = None
    ) -> None:
        self.name = name
        self.trace = np.asarray(trace, dtype=np.float64)
        self.total_work = total_work
        self.work_done = 0.0
        self.elapsed_ticks = 0
        self._finished = False

    def demand(self, clock: SimulationClock) -> ResourceVector:
        """Demand for this tick: the trace row at phase ``tick % P``."""
        if self._finished:
            return ResourceVector.zero()
        return ResourceVector.from_array(
            self.trace[clock.tick % self.trace.shape[0]]
        )

    def advance(self, allocation, clock: SimulationClock) -> None:
        """Accumulate granted progress as work; finish at total_work."""
        self.elapsed_ticks += 1
        self.work_done += allocation.progress
        if self.total_work is not None and self.work_done >= self.total_work:
            self._finished = True

    @property
    def finished(self) -> bool:
        return self._finished


def build_scalar_cluster(scenario: BatchScenario) -> Cluster:
    """Materialize a scenario as an object-engine :class:`Cluster`.

    Every host gets its spec'd capacity and contention model, every
    container a :class:`TraceApp`.
    """
    hosts: Dict[str, Host] = {}
    for spec in scenario.hosts:
        if spec.model == "waterfill":
            model = WeightedWaterFillModel(
                swap_cost=spec.swap_cost,
                swap_io_per_overcommit_mb=spec.swap_io_per_overcommit_mb,
            )
        else:
            model = ProportionalShareModel(
                swap_cost=spec.swap_cost,
                swap_io_per_overcommit_mb=spec.swap_io_per_overcommit_mb,
            )
        hosts[spec.name] = Host(
            capacity=spec.capacity or default_host_capacity(),
            contention=model,
        )
    cluster = Cluster(hosts=hosts)
    for spec in scenario.containers:
        cluster.hosts[spec.host].add_container(
            Container(
                name=spec.name,
                app=TraceApp(spec.name, spec.trace, spec.total_work),
                sensitive=spec.sensitive,
                weight=spec.weight,
                start_tick=spec.start_tick,
            )
        )
    return cluster


def _apply_cluster_events(cluster: Cluster, events: Sequence[BatchEvent]) -> None:
    for event in events:
        if event.action == "pause":
            host = cluster.host_of(event.target)
            cluster.hosts[host].pause_container(event.target)
        elif event.action == "resume":
            host = cluster.host_of(event.target)
            cluster.hosts[host].resume_container(event.target)
        elif event.action == "stop":
            host = cluster.host_of(event.target)
            cluster.hosts[host].containers[event.target].stop()
        elif event.action == "migrate":
            cluster.migrate(event.target, event.destination)
        elif event.action == "fail_host":
            cluster.fail_host(event.target)
        elif event.action == "recover_host":
            cluster.recover_host(event.target)


def run_scenario(
    scenario: BatchScenario,
    ticks: int,
    engine: str = "batch",
    record_trajectory: bool = True,
) -> ScenarioResult:
    """Run one scenario on one engine and return its result.

    ``engine`` is ``"batch"`` (:class:`BatchEngine`) or ``"scalar"``
    (object cluster, per-host model calls). Both produce bit-identical
    :class:`ScenarioResult` contents on the same platform — the
    equivalence gate :mod:`benchmarks.bench_engine` asserts.
    """
    if engine == "batch":
        batch = BatchEngine(scenario, record_trajectory=record_trajectory)
        return batch.run(ticks)
    if engine != "scalar":
        raise ValueError(f"unknown engine {engine!r}")

    cluster = build_scalar_cluster(scenario)
    events_by_tick: Dict[int, List[BatchEvent]] = {}
    for event in scenario.events:
        events_by_tick.setdefault(event.tick, []).append(event)

    names = [c.name for c in scenario.containers]
    containers = {
        name: cluster.hosts[spec.host].containers[name]
        for name, spec in zip(names, scenario.containers)
    }
    trajectory: List[List[float]] = []
    for _ in range(ticks):
        _apply_cluster_events(cluster, events_by_tick.get(cluster.clock.tick, ()))
        snapshots = cluster.step()
        if record_trajectory:
            row = []
            for name in names:
                progress = 0.0
                for snapshot in snapshots.values():
                    allocation = snapshot.allocations.get(name)
                    if allocation is not None:
                        progress = allocation.progress
                        break
                row.append(progress)
            trajectory.append(row)

    # A migrated-but-never-landed container still exists; find every
    # container object wherever it ended up (flights keep a reference).
    def final(name: str) -> Container:
        return containers[name]

    states = tuple(final(name).state.value for name in names)
    return ScenarioResult(
        ticks=ticks,
        container_names=tuple(names),
        work_done=np.array([final(n).app.work_done for n in names]),
        running_ticks=np.array([final(n).running_ticks for n in names]),
        paused_ticks=np.array([final(n).paused_ticks for n in names]),
        pause_count=np.array([final(n).pause_count for n in names]),
        states=states,
        trajectory=np.array(trajectory) if record_trajectory else None,
    )


# ---------------------------------------------------------------------------
# Standard scenario suite
# ---------------------------------------------------------------------------


def standard_scenario(
    hosts: int = 8,
    containers_per_host: int = 12,
    seed: int = 7,
    model: str = "proportional",
    with_events: bool = True,
    period: int = 48,
) -> BatchScenario:
    """The benchmark's standard fleet: mixed archetypes under churn.

    Each host carries ``containers_per_host`` containers cycling
    through four archetypes (diurnal webservice, CPU bomb, memory
    hog, I/O batch) with seeded random magnitudes/periods sized so
    hosts saturate CPU and occasionally overcommit memory. With
    ``with_events`` a deterministic pause/resume, migration and
    host-crash schedule exercises the mask paths.
    """
    if model not in MODEL_KINDS:
        raise ValueError(f"model must be one of {MODEL_KINDS}, got {model!r}")
    rng = np.random.default_rng(seed)
    host_specs = tuple(
        HostSpec(name=f"host-{h}", model=model) for h in range(hosts)
    )
    containers: List[ContainerSpec] = []
    for h in range(hosts):
        for i in range(containers_per_host):
            archetype = i % 4
            p = int(rng.integers(max(2, period // 2), period + 1))
            trace = np.zeros((p, NUM_RESOURCES))
            phase = np.arange(p)
            if archetype == 0:  # diurnal webservice
                curve = 0.6 + 0.5 * np.sin(2 * np.pi * phase / p + rng.uniform(0, 2 * np.pi))
                trace[:, 0] = np.maximum(0.05, curve * rng.uniform(0.5, 1.2))
                trace[:, 1] = rng.uniform(250.0, 600.0)
                trace[:, 4] = np.maximum(1.0, curve * rng.uniform(40.0, 120.0))
            elif archetype == 1:  # CPU bomb
                trace[:, 0] = rng.uniform(1.0, 2.5)
                trace[:, 2] = rng.uniform(500.0, 2000.0)
            elif archetype == 2:  # memory hog (ramps into overcommit)
                ramp = np.linspace(0.3, 1.0, p)
                trace[:, 0] = rng.uniform(0.2, 0.6)
                trace[:, 1] = ramp * rng.uniform(700.0, 1400.0)
                trace[:, 2] = rng.uniform(800.0, 3000.0)
            else:  # I/O batch
                trace[:, 0] = rng.uniform(0.2, 0.8)
                trace[:, 3] = rng.uniform(20.0, 80.0)
                trace[:, 1] = rng.uniform(100.0, 300.0)
            total_work = float(rng.uniform(120.0, 400.0)) if archetype != 0 else None
            containers.append(
                ContainerSpec(
                    name=f"c-{h}-{i}",
                    host=f"host-{h}",
                    trace=trace,
                    weight=float(rng.choice([1.0, 2.0, 4.0])),
                    total_work=total_work,
                    start_tick=int(rng.integers(0, 6)),
                    sensitive=(archetype == 0),
                )
            )

    events: List[BatchEvent] = []
    if with_events:
        # Deterministic churn: pause/resume a bomb on every even host,
        # migrate one container per fourth host, crash/recover host 1.
        for h in range(0, hosts, 2):
            events.append(BatchEvent(tick=20 + h, action="pause", target=f"c-{h}-1"))
            events.append(BatchEvent(tick=35 + h, action="resume", target=f"c-{h}-1"))
        for h in range(0, hosts, 4):
            dest = f"host-{(h + 1) % hosts}"
            events.append(
                BatchEvent(
                    tick=30 + h, action="migrate", target=f"c-{h}-2", destination=dest
                )
            )
        if hosts > 2:
            events.append(BatchEvent(tick=44, action="fail_host", target="host-1"))
            events.append(BatchEvent(tick=60, action="recover_host", target="host-1"))
    return BatchScenario(
        hosts=host_specs, containers=tuple(containers), events=tuple(events)
    )

