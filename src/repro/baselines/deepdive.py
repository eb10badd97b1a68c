"""DeepDive-style migration of interfering VMs (comparison baseline, §8).

DeepDive [24] detects interference and then "the most aggressive VM is
migrated on to another physical machine. It incurs overhead in the form
of cloning and migrating VMs. Migrating VMs is an expensive and time
consuming operation." — whereas Stay-Away's SIGSTOP throttle is
instantaneous and free.

:class:`DeepDiveLike` is a cluster middleware: when a host's sensitive
application violates QoS for ``persistence`` consecutive ticks, the
batch container with the largest resource footprint on that host is
live-migrated to the least-loaded other host, paying the migration
downtime modelled by :class:`~repro.sim.cluster.Cluster`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.sim.cluster import Cluster
from repro.sim.host import Host, HostSnapshot
from repro.sim.resources import Resource


class DeepDiveLike:
    """Interference-triggered migration of the most aggressive batch VM.

    Parameters
    ----------
    persistence:
        Consecutive violating ticks on a host before a migration fires
        (DeepDive's warning system does early analysis first; we model
        that as a persistence filter).
    cooldown:
        Minimum ticks between migrations from the same host.
    """

    def __init__(self, persistence: int = 5, cooldown: int = 30) -> None:
        if persistence < 1:
            raise ValueError("persistence must be >= 1")
        if cooldown < 0:
            raise ValueError("cooldown must be >= 0")
        self.persistence = persistence
        self.cooldown = cooldown
        self.migrations_triggered = 0
        self._violating_streak: Dict[str, int] = {}
        self._last_migration_tick: Dict[str, int] = {}

    def _host_violating(self, host: Host) -> bool:
        for container in host.sensitive_containers():
            report = container.app.qos_report()
            if report is not None and report.violated:
                return True
        return False

    def _most_aggressive_batch(self, host: Host) -> Optional[str]:
        best_name = None
        best_score = -1.0
        for container in host.batch_containers():
            if not container.is_running or container.app.finished:
                continue
            usage = container.usage_snapshot()
            score = (
                usage.get(Resource.CPU)
                + usage.get(Resource.MEMORY_BW) / 2500.0
                + usage.get(Resource.MEMORY) / 2048.0
            )
            if score > best_score:
                best_score = score
                best_name = container.name
        return best_name

    def _least_loaded_other(self, cluster: Cluster, exclude: str) -> Optional[str]:
        candidates: List[str] = [
            name for name in cluster.hosts if name != exclude
        ]
        if not candidates:
            return None

        def load(name: str) -> float:
            host = cluster.hosts[name]
            if host.last_snapshot is None:
                return 0.0
            return host.last_snapshot.cpu_utilization(host.capacity)

        return min(candidates, key=load)

    def on_cluster_tick(
        self, snapshots: Dict[str, HostSnapshot], cluster: Cluster
    ) -> None:
        """Check every host's streak and migrate when persistence trips."""
        tick = cluster.clock.tick
        for host_name, host in cluster.hosts.items():
            if self._host_violating(host):
                self._violating_streak[host_name] = (
                    self._violating_streak.get(host_name, 0) + 1
                )
            else:
                self._violating_streak[host_name] = 0
                continue

            if self._violating_streak[host_name] < self.persistence:
                continue
            last = self._last_migration_tick.get(host_name)
            if last is not None and tick - last < self.cooldown:
                continue

            victim = self._most_aggressive_batch(host)
            if victim is None:
                continue
            destination = self._least_loaded_other(cluster, exclude=host_name)
            if destination is None:
                continue
            cluster.migrate(victim, destination)
            self.migrations_triggered += 1
            self._last_migration_tick[host_name] = tick
            self._violating_streak[host_name] = 0
