"""Scripted fault middleware the test suites put at exact ticks.

These three were ``repro.sim.faults`` classes that nothing outside the
suites built: the drills inject seeded probabilistic faults instead
(``FaultyPort``, ``QosDropout``, ``HostCrashInjector`` with
``recovery_ticks``). They fire what they are told to fire, when they
are told, and record each firing as a :class:`~repro.sim.faults.FaultEvent`
like the program's injectors do.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.sim.faults import FaultEvent
from repro.sim.host import Host, HostSnapshot

if TYPE_CHECKING:
    from repro.sim.cluster import Cluster


class FaultSchedule:
    """A middleware executing scripted faults at fixed ticks.

    Supported actions: ``kill`` (stop a container), ``pause`` /
    ``resume`` (external signals racing the controller's own), and
    ``restart`` (revive a stopped/paused container — a crash-looping
    supervisor; pause-count bookkeeping is left untouched).
    """

    def __init__(self) -> None:
        self._scripted: List = []
        self.fired: List[FaultEvent] = []

    def kill(self, tick: int, container: str) -> "FaultSchedule":
        """Stop a container at a tick (process crash / OOM kill)."""
        self._scripted.append((tick, "kill", container))
        return self

    def pause(self, tick: int, container: str) -> "FaultSchedule":
        """Externally SIGSTOP a container (an operator or another agent)."""
        self._scripted.append((tick, "pause", container))
        return self

    def resume(self, tick: int, container: str) -> "FaultSchedule":
        """Externally SIGCONT a container."""
        self._scripted.append((tick, "resume", container))
        return self

    def restart(self, tick: int, container: str) -> "FaultSchedule":
        """Supervisor-restart a stopped/paused container at a tick."""
        self._scripted.append((tick, "restart", container))
        return self

    def on_tick(self, snapshot: HostSnapshot, host: Host) -> None:
        """Fire any faults scheduled for this tick."""
        for tick, kind, target in self._scripted:
            if tick != snapshot.tick or target not in host.containers:
                continue
            container = host.container(target)
            if kind == "kill":
                container.stop()
            elif kind == "pause" and container.is_running:
                container.pause()
            elif kind == "resume" and container.is_paused:
                container.resume()
            elif kind == "restart" and not container.is_running:
                container.restart()
            else:
                continue
            self.fired.append(FaultEvent(tick=tick, kind=kind, target=target))


class MonitoringDropout:
    """Drop (skip) a middleware's ticks during scripted windows.

    Models a monitoring agent that loses samples — the controller
    simply sees nothing for those periods and must resynchronize.
    """

    def __init__(self, inner, windows: List) -> None:
        for start, end in windows:
            if end <= start:
                raise ValueError(f"empty dropout window ({start}, {end})")
        self.inner = inner
        self.windows = list(windows)
        self.dropped_ticks: List[int] = []

    def on_tick(self, snapshot: HostSnapshot, host: Host) -> None:
        for start, end in self.windows:
            if start <= snapshot.tick < end:
                self.dropped_ticks.append(snapshot.tick)
                return
        self.inner.on_tick(snapshot, host)


class HostRecoveryScript:
    """Bring scripted hosts back up at fixed ticks.

    The operator-side counterpart of :class:`HostCrashInjector` for
    drills that separate the crash script from the repair script (e.g.
    crash injected by chaos, repair modelling a human on-call): recover
    actions that find the host already up are silently skipped.
    """

    def __init__(self) -> None:
        self._scripted: List[Tuple[int, str]] = []
        self.fired: List[FaultEvent] = []

    def recover_at(self, tick: int, host: str) -> "HostRecoveryScript":
        """Script a recovery of ``host`` at ``tick``."""
        self._scripted.append((tick, host))
        return self

    def on_cluster_tick(
        self, snapshots: Dict[str, HostSnapshot], cluster: "Cluster"
    ) -> None:
        tick = cluster.clock.tick - 1
        for scripted_tick, host in self._scripted:
            if scripted_tick != tick or host not in cluster.hosts:
                continue
            if cluster.recover_host(host):
                self.fired.append(
                    FaultEvent(tick=tick, kind="host-recover", target=host)
                )
