"""Multi-host cluster with live migration and host-failure semantics.

Stay-Away is a per-host mechanism; the paper positions it as a
complement to cluster schedulers (§2.1) and compares against systems
that *migrate* interfering VMs (DeepDive, §8) — noting that "VM
migration is slow and involves a high cost". This module provides the
substrate for those comparisons: a set of hosts stepped in lockstep on
one shared clock, a migration primitive with a realistic downtime cost
(the container is unavailable while its memory image is copied), and a
host up/down lifecycle so fleet-level control planes can be drilled
against machine crashes.

Failure semantics
-----------------
* A **down** host (:meth:`Cluster.fail_host`) stops stepping: its
  containers are frozen, it produces no snapshots, and it can neither
  source nor receive migrations until :meth:`Cluster.recover_host`.
* A migration whose destination died mid-copy **bounces** back to its
  source host; if the source is also gone the container is **lost**.
  Every migration therefore terminates in exactly one recorded outcome
  (``landed`` / ``bounced`` / ``lost``) — there are no orphaned
  in-flight migrations, no matter which hosts crash.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.sim.clock import SimulationClock
from repro.sim.container import Container
from repro.sim.host import Host, HostSnapshot
from repro.sim.resources import Resource, ResourceVector

#: Migration outcome values recorded on :class:`MigrationRecord`.
MIGRATION_IN_FLIGHT = "in-flight"
MIGRATION_LANDED = "landed"
MIGRATION_BOUNCED = "bounced"
MIGRATION_LOST = "lost"


@dataclass
class MigrationRecord:
    """One migration, from start to its recorded terminal outcome.

    Attributes
    ----------
    container / source / destination:
        What moved and between which hosts.
    start_tick / downtime_ticks:
        When the copy began and how long the container is unavailable.
    outcome:
        ``in-flight`` while copying, then exactly one of ``landed``
        (resumed on the destination), ``bounced`` (destination
        unavailable at landing time — returned to the source) or
        ``lost`` (both ends unavailable; the container is gone).
    completed_tick:
        Tick the terminal outcome was recorded (None while in flight).
    """

    container: str
    source: str
    destination: str
    start_tick: int
    downtime_ticks: int
    outcome: str = MIGRATION_IN_FLIGHT
    completed_tick: Optional[int] = None

    def done_at(self) -> int:
        """Tick at which the container is due to resume on the destination."""
        return self.start_tick + self.downtime_ticks

    @property
    def terminal(self) -> bool:
        """True once the migration reached a recorded final outcome."""
        return self.outcome != MIGRATION_IN_FLIGHT


@dataclass(frozen=True)
class ContainerLocation:
    """Where a container currently is, without ambiguity.

    ``status`` is one of ``on-host`` (``host`` names it), ``migrating``
    (``record`` is the in-flight migration) or ``absent`` (unknown to
    the cluster, or lost). :meth:`Cluster.host_of` collapses the last
    two into ``None``; use :meth:`Cluster.locate` when the difference
    matters.
    """

    status: str
    host: Optional[str] = None
    record: Optional[MigrationRecord] = None


@dataclass(frozen=True)
class HostEvent:
    """One host lifecycle transition (crash / recover)."""

    tick: int
    kind: str
    host: str


@dataclass
class _InFlight:
    record: MigrationRecord
    container: Container


class Cluster:
    """A fixed set of hosts sharing one simulation clock.

    Parameters
    ----------
    host_names:
        Names of the hosts to create.
    capacity:
        Per-host capacity (same for all; pass per-host Hosts directly
        via ``hosts`` for heterogeneity).
    hosts:
        Pre-built hosts keyed by name (mutually exclusive with
        ``host_names``). Their clocks are replaced by the shared one.
    migration_mb_per_tick:
        Memory image copy rate; downtime = resident set / rate,
        rounded up (the paper's "migration is slow" cost model).
    """

    def __init__(
        self,
        host_names: Optional[List[str]] = None,
        capacity: Optional[ResourceVector] = None,
        hosts: Optional[Dict[str, Host]] = None,
        migration_mb_per_tick: float = 1000.0,
    ) -> None:
        if (host_names is None) == (hosts is None):
            raise ValueError("pass exactly one of host_names or hosts")
        if migration_mb_per_tick <= 0:
            raise ValueError("migration_mb_per_tick must be positive")
        self.clock = SimulationClock()
        if hosts is not None:
            self.hosts = dict(hosts)
            for host in self.hosts.values():
                host.clock = self.clock
        else:
            self.hosts = {
                name: Host(capacity=capacity, clock=self.clock)
                for name in host_names
            }
        if not self.hosts:
            raise ValueError("a cluster needs at least one host")
        self.migration_mb_per_tick = migration_mb_per_tick
        self.migrations: List[MigrationRecord] = []
        self.middlewares: List = []
        self.down: Set[str] = set()
        self.host_events: List[HostEvent] = []
        self._in_flight: List[_InFlight] = []

    # -- lookup ----------------------------------------------------------
    def host(self, name: str) -> Host:
        """Look up a host by name."""
        return self.hosts[name]

    def host_is_up(self, name: str) -> bool:
        """Whether a host exists and is not down."""
        return name in self.hosts and name not in self.down

    @property
    def up_hosts(self) -> List[str]:
        """Names of hosts currently able to step, in insertion order."""
        return [name for name in self.hosts if name not in self.down]

    def host_of(self, container_name: str) -> Optional[str]:
        """Name of the host currently holding a container.

        Returns ``None`` both for unknown containers and for containers
        whose migration is in flight — use :meth:`locate` when those
        two cases must be distinguished.
        """
        for host_name, host in self.hosts.items():
            if container_name in host.containers:
                return host_name
        return None

    def locate(self, container_name: str) -> ContainerLocation:
        """Unambiguous container location: on-host / migrating / absent."""
        host_name = self.host_of(container_name)
        if host_name is not None:
            return ContainerLocation(status="on-host", host=host_name)
        for flight in self._in_flight:
            if flight.record.container == container_name:
                return ContainerLocation(status="migrating", record=flight.record)
        return ContainerLocation(status="absent")

    # -- host lifecycle ----------------------------------------------------
    def fail_host(self, name: str) -> bool:
        """Crash a host: it stops stepping and its containers freeze.

        Returns True when the host transitioned up -> down (False when
        it was already down). Unknown hosts raise ``KeyError``.
        """
        if name not in self.hosts:
            raise KeyError(f"unknown host {name!r}")
        if name in self.down:
            return False
        self.down.add(name)
        self.host_events.append(
            HostEvent(tick=self.clock.tick, kind="crash", host=name)
        )
        return True

    def recover_host(self, name: str) -> bool:
        """Bring a crashed host back; its containers thaw next tick.

        Returns True when the host transitioned down -> up.
        """
        if name not in self.hosts:
            raise KeyError(f"unknown host {name!r}")
        if name not in self.down:
            return False
        self.down.discard(name)
        self.host_events.append(
            HostEvent(tick=self.clock.tick, kind="recover", host=name)
        )
        return True

    # -- migration ---------------------------------------------------------
    def migrate(
        self, container_name: str, destination: str
    ) -> MigrationRecord:
        """Start a live migration of a container to another host.

        The container is removed from its source immediately and is
        unavailable (copying its memory image) for
        ``ceil(resident_mb / migration_mb_per_tick)`` ticks, after
        which it appears paused->running on the destination. Both ends
        must be up: a down source has an unreachable memory image, a
        down destination cannot receive one.
        """
        location = self.locate(container_name)
        if location.status == "migrating":
            raise ValueError(
                f"container {container_name!r} is already migrating "
                f"({location.record.source} -> {location.record.destination}, "
                f"due tick {location.record.done_at()})"
            )
        if location.status == "absent":
            raise ValueError(f"container {container_name!r} not found in cluster")
        source = location.host
        if source in self.down:
            raise ValueError(f"source host {source!r} is down")
        if destination not in self.hosts:
            raise ValueError(f"unknown destination host {destination!r}")
        if destination in self.down:
            raise ValueError(f"destination host {destination!r} is down")
        if destination == source:
            raise ValueError("destination equals source host")

        source_host = self.hosts[source]
        container = source_host.containers[container_name]
        resident_mb = container.usage_snapshot().get(Resource.MEMORY)
        if resident_mb <= 0 and container.last_allocation is not None:
            # Freshly started or paused containers report zero usage;
            # size the copy from the memory last granted instead.
            # (Probing container.app.demand() here would advance the
            # app's private RNG outside the tick loop and desync
            # otherwise-identical runs — never sample demand off-tick.)
            resident_mb = container.last_allocation.granted.get(Resource.MEMORY)
        downtime = max(1, int(-(-resident_mb // self.migration_mb_per_tick)))

        source_host.containers.pop(container_name)
        record = MigrationRecord(
            container=container_name,
            source=source,
            destination=destination,
            start_tick=self.clock.tick,
            downtime_ticks=downtime,
        )
        self.migrations.append(record)
        self._in_flight.append(_InFlight(record=record, container=container))
        return record

    def cancel_migration(self, record: MigrationRecord) -> str:
        """Abort an in-flight migration, returning its recorded outcome.

        The container bounces back to its source host immediately (no
        further downtime); if the source is gone too, it is lost. Used
        by migration supervisors to cut short a copy whose destination
        already died instead of waiting for the scheduled landing.
        """
        for flight in self._in_flight:
            if flight.record is record:
                self._in_flight.remove(flight)
                return self._settle(flight, prefer_destination=False)
        raise ValueError(
            f"migration of {record.container!r} is not in flight "
            f"(outcome {record.outcome!r})"
        )

    def _settle(self, flight: _InFlight, prefer_destination: bool) -> str:
        """Land, bounce or lose one due/cancelled migration."""
        record = flight.record
        if prefer_destination and self.host_is_up(record.destination):
            self.hosts[record.destination].add_container(flight.container)
            record.outcome = MIGRATION_LANDED
        elif self.host_is_up(record.source):
            self.hosts[record.source].add_container(flight.container)
            record.outcome = MIGRATION_BOUNCED
        else:
            # Both ends unavailable: the memory image has nowhere to
            # go. The container is gone with its hosts.
            flight.container.stop()
            record.outcome = MIGRATION_LOST
        record.completed_tick = self.clock.tick
        return record.outcome

    def _land_migrations(self) -> None:
        remaining: List[_InFlight] = []
        for flight in self._in_flight:
            if self.clock.tick >= flight.record.done_at():
                self._settle(flight, prefer_destination=True)
            else:
                remaining.append(flight)
        self._in_flight = remaining

    # -- simulation -----------------------------------------------------------
    def step(self) -> Dict[str, HostSnapshot]:
        """Advance every *up* host by one shared tick.

        Down hosts are skipped entirely: their containers freeze and
        they contribute no snapshot — exactly what a monitoring plane
        sees from a crashed machine.
        """
        self._land_migrations()
        snapshots = {
            name: host.step(advance_clock=False)
            for name, host in self.hosts.items()
            if name not in self.down
        }
        self.clock.advance()
        for middleware in self.middlewares:
            middleware.on_cluster_tick(snapshots, self)
        return snapshots

    def add_middleware(self, middleware) -> None:
        """Register a cluster-level observer/controller.

        Middlewares implement ``on_cluster_tick(snapshots, cluster)``
        and run after every cluster tick. Snapshots of down hosts are
        absent from the mapping.
        """
        self.middlewares.append(middleware)

    def run(self, ticks: int) -> List[Dict[str, HostSnapshot]]:
        """Run the whole cluster for a fixed number of ticks."""
        if ticks < 0:
            raise ValueError("ticks must be non-negative")
        return [self.step() for _ in range(ticks)]

    def total_cpu_utilization(self) -> float:
        """Mean CPU utilization across up hosts at the latest tick."""
        utilizations = []
        for name, host in self.hosts.items():
            if name not in self.down and host.last_snapshot is not None:
                utilizations.append(host.last_snapshot.cpu_utilization(host.capacity))
        if not utilizations:
            return 0.0
        return sum(utilizations) / len(utilizations)
