"""The fleet coordinator and its per-host isolation cells.

One Stay-Away controller per host, one coordinator per fleet. The
coordinator is a cluster middleware
(:meth:`FleetCoordinator.on_cluster_tick`); each host's controller
runs inside a :class:`HostControllerCell` behind its own crash
firewall, so a crashing or poisoned controller degrades *that host* to
a reactive pause/resume policy while the rest of the fleet keeps its
predictive controllers — the same containment philosophy as the
in-controller stage firewall, lifted one level up.

Failure semantics, by layer:

* controller raises → the cell catches, counts the crash, serves the
  reactive fallback this tick and drives the controller again on the
  next one (a genuinely poisoned controller stays degraded for as long
  as it keeps raising);
* host crash / telemetry blackout → no snapshot arrives, the cell is
  simply not driven, and the host's score goes stale — stale hosts are
  excluded from placement decisions (no telemetry is *not* treated as
  safe);
* migration failures → owned entirely by the
  :class:`~repro.fleet.migration.MigrationSupervisor`.

The ``sensitive`` mapping passed to the coordinator is duck-typed
(host name → sensitive application object) so this layer never imports
``workloads``; anything accepted by
:class:`~repro.core.controller.StayAway` works. The controller is
duck-typed the same way (see :class:`HostControllerCell`), which is
how a caller puts a cell behind the stream seam without this layer
importing ``service``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Set, Tuple

from repro.core.config import StayAwayConfig
from repro.core.controller import StayAway
from repro.fleet.migration import MigrationSupervisor
from repro.fleet.scoring import HostScore, InterferenceScorer
from repro.sim.resources import Resource

if TYPE_CHECKING:
    from repro.sim.cluster import Cluster
    from repro.sim.host import Host, HostSnapshot

#: Ticks between scoring/placement rounds (the coordinator's own control
#: period; per-host controllers still run a period every tick).
SCORE_PERIOD = 5
#: Interference score at or above which a host is *hot*: an eviction
#: source, and refused as an admission preference.
HOT_SCORE = 0.45
#: Score at or below which a host is *cold* and may receive work. The gap
#: to ``HOT_SCORE`` is the hysteresis band that stops placement flapping.
COLD_SCORE = 0.25
#: Ticks a host pair stays off-limits for new evictions after a
#: migration between them was requested.
MIGRATION_COOLDOWN = 25
#: Consecutive violation-free ticks before a cell's reactive fallback
#: resumes the containers it paused.
FALLBACK_RESUME_AFTER = 10


class HostControllerCell:
    """One host's controller, behind its own crash firewall.

    Parameters
    ----------
    host_name:
        The host this cell controls.
    controller:
        What ``controller_factory`` returned: the cell ticks it through
        its ``on_tick(snapshot, host)`` and reads ``throttle`` /
        ``last_prediction`` / ``config`` from its ``.controller`` when
        it has one — a :class:`~repro.core.controller.StayAway` is its
        own controller; a stream bridge carries the serviced one. Its
        own ``qos`` is the host-local QoS channel the cell reads while
        degraded: the controller's channel may only hear the app
        through the very driver that failed.

    The reactive fallback resumes what it paused after
    ``FALLBACK_RESUME_AFTER`` violation-free ticks; the first healthy
    controller tick hands back whatever it still holds.
    """

    def __init__(
        self,
        host_name: str,
        controller: StayAway,
    ) -> None:
        self.host_name = host_name
        self._driver = controller
        self.controller = getattr(controller, "controller", controller)
        self.crashes = 0
        self.fallback_ticks = 0
        self._fallback_paused: Set[str] = set()
        self._clean_streak = 0
        self._last_run_ok = False

    @property
    def degraded(self) -> bool:
        """Whether the cell is currently serving the reactive fallback."""
        return not self._last_run_ok

    def observe(self, snapshot: "HostSnapshot", host: "Host") -> None:
        """Drive one tick: predictive controller if healthy, else fallback."""
        try:
            self._driver.on_tick(snapshot, host)
            self._last_run_ok = True
            if self._fallback_paused:
                self._hand_back(host, keep=self.controller.throttle.desired_paused)
            return
        except Exception:  # sacheck: disable=SA108 -- cell firewall: any controller exception must degrade this host, not unwind the fleet coordinator
            self.crashes += 1
            self._last_run_ok = False
        self._fallback(snapshot, host)

    def _fallback(self, snapshot: "HostSnapshot", host: "Host") -> None:
        """Reactive policy: pause batch on observed violation, resume later."""
        self.fallback_ticks += 1
        try:
            self._driver.qos.on_tick(snapshot, host)
        except Exception:  # sacheck: disable=SA108 -- keep polling even a faulty QoS channel; the fallback then acts on the last good reading
            pass
        if self._driver.qos.violation_now:
            self._clean_streak = 0
            for name, container in host.containers.items():
                if not container.sensitive and container.is_running and host.pause(name):
                    self._fallback_paused.add(name)
            return
        self._clean_streak += 1
        if self._clean_streak >= FALLBACK_RESUME_AFTER and self._fallback_paused:
            self._hand_back(host)

    def _hand_back(self, host: "Host", keep=()) -> None:
        """Resume what the fallback paused (a no-op on what no longer is),
        but not what ``keep`` names (the recovered controller's own pauses)."""
        for name in sorted(self._fallback_paused):
            if name not in keep:
                host.resume(name)
        self._fallback_paused.clear()

    def predicted_risk(self) -> float:
        """Predicted violation probability from the last healthy period.

        While the controller is actively throttling, the risk is 1.0:
        the throttle *is* the controller's judgement that interference
        would violate QoS — a host whose QoS looks clean only because
        batch work sits paused is hot, not cold, and hiding that from
        the scorer would make suppressed hosts attract more work.
        Zero while degraded — the scorer's observed-QoS term carries
        the signal when the predictive path is down.
        """
        if not self._last_run_ok:
            return 0.0
        if self.controller.throttle.throttling:
            return 1.0
        prediction = self.controller.last_prediction
        if prediction is None or not prediction.ready:
            return 0.0
        n = max(1, self.controller.config.n_samples)
        return min(1.0, prediction.votes / n)

    @property
    def violation_now(self) -> bool:
        """The host's sensitive app is violating QoS right now: as the
        controller heard it, or the host-local channel while degraded."""
        qos = self.controller.qos if self._last_run_ok else self._driver.qos
        return bool(qos.violation_now)

    def summary(self) -> dict:
        """Cell health: crashes, fallback activity."""
        return {
            "host": self.host_name,
            "crashes": self.crashes,
            "degraded": self.degraded,
            "fallback_ticks": self.fallback_ticks,
        }


class FleetCoordinator:
    """Cluster middleware running one isolated controller per host.

    Parameters
    ----------
    sensitive:
        ``{host name: sensitive application}`` — which hosts get a
        predictive controller cell. Hosts absent from the mapping are
        scored by utilization only and never evicted from (nothing
        there to protect) — and they are the only eviction *targets*,
        so interference is moved away from sensitive work, not onto a
        different host's sensitive work.
    config:
        Shared :class:`~repro.core.config.StayAwayConfig` for the
        per-host controllers.
    migrate:
        When False the coordinator observes and scores but never moves
        work — the per-host-only ablation arm of ``bench_fleet``.
    controller_factory:
        ``(host_name, sensitive_app) -> StayAway`` override, e.g. to
        share a map template across hosts — or any object with
        ``on_tick(snapshot, host)`` and a ``.controller``, which is
        how a cell is put behind the stream seam (see
        :class:`HostControllerCell`).
    """

    def __init__(
        self,
        sensitive: Dict[str, object],
        config: Optional[StayAwayConfig] = None,
        migrate: bool = True,
        controller_factory=None,
    ) -> None:
        self.config = config if config is not None else StayAwayConfig()
        self.sensitive = dict(sensitive)
        self.migrate_enabled = migrate
        self._factory = controller_factory or (
            lambda host, app: StayAway(app, config=self.config)
        )
        self.scorer = InterferenceScorer()
        self.cells: Dict[str, HostControllerCell] = {}
        self.supervisor: Optional[MigrationSupervisor] = None
        self.cluster: Optional["Cluster"] = None
        self._cooldown_until: Dict[str, int] = {}
        self.ticks_seen = 0

    # -- wiring ------------------------------------------------------------
    def _bind(self, cluster: "Cluster") -> None:
        if self.cluster is cluster:
            return
        if self.cluster is not None:
            raise ValueError("coordinator is already bound to another cluster")
        self.cluster = cluster
        self.supervisor = MigrationSupervisor(cluster)
        for host_name, app in sorted(self.sensitive.items()):
            if host_name not in cluster.hosts:
                raise ValueError(f"sensitive mapping names unknown host {host_name!r}")
            self.cells[host_name] = HostControllerCell(
                host_name, self._factory(host_name, app)
            )

    # -- middleware interface ----------------------------------------------
    def on_cluster_tick(
        self, snapshots: Dict[str, "HostSnapshot"], cluster: "Cluster"
    ) -> None:
        """One fleet round: drive cells, score, supervise, place."""
        self._bind(cluster)
        tick = cluster.clock.tick - 1  # the tick the snapshots describe
        self.ticks_seen += 1
        for host_name, snapshot in snapshots.items():
            host = cluster.hosts.get(host_name)
            if host is None:
                continue
            cell = self.cells.get(host_name)
            if cell is not None:
                cell.observe(snapshot, host)
            predicted = cell.predicted_risk() if cell is not None else 0.0
            violated = cell.violation_now if cell is not None else False
            utilization = snapshot.cpu_utilization(host.capacity)
            self.scorer.observe(host_name, predicted, violated, utilization, tick)
        self.supervisor.poll(tick)
        if self.migrate_enabled and tick % SCORE_PERIOD == 0:
            self._placement_round(tick, snapshots, cluster)

    # -- placement ----------------------------------------------------------
    def _fresh_scores(
        self, tick: int, snapshots: Dict[str, "HostSnapshot"], cluster: "Cluster"
    ) -> Dict[str, HostScore]:
        """Scores backed by this tick's telemetry on up hosts only.

        A host that is down or blacked out has no fresh snapshot and is
        excluded — the coordinator never places work based on stale
        data.
        """
        return {
            name: score
            for name, score in self.scorer.scores().items()
            if score.tick == tick
            and name in snapshots
            and cluster.host_is_up(name)
        }

    def _eviction_victim(
        self, host_name: str, snapshot: "HostSnapshot", cluster: "Cluster"
    ) -> Optional[str]:
        """Heaviest batch container on the host, if any.

        Paused containers are eligible — a bomb the throttle is sitting
        on is the *best* thing to move (zero downtime cost to it, and
        shipping it out lets the source host stop throttling at all).
        Weight is observed CPU usage, falling back to the CPU last
        granted for paused containers whose usage reads zero. (The
        fallback used to probe ``container.app.demand()``, which draws
        from the app's private jitter RNG — an off-tick sample that
        desynced otherwise-identical runs.)
        """
        host = cluster.hosts[host_name]
        best: Optional[Tuple[float, str]] = None
        for name in sorted(host.containers):
            container = host.containers[name]
            if container.sensitive or self.supervisor.supervising(name):
                continue
            if not (container.is_running or container.is_paused):
                continue
            weight = (
                snapshot.usage[name].get(Resource.CPU)
                if name in snapshot.usage
                else 0.0
            )
            if weight <= 0.0 and container.last_allocation is not None:
                weight = container.last_allocation.granted.get(Resource.CPU)
            if best is None or weight > best[0]:
                best = (weight, name)
        return best[1] if best is not None else None

    def _placement_round(
        self, tick: int, snapshots: Dict[str, "HostSnapshot"], cluster: "Cluster"
    ) -> None:
        scores = self._fresh_scores(tick, snapshots, cluster)
        hot = sorted(
            (s for s in scores.values() if s.total >= HOT_SCORE),
            key=lambda s: (-s.total, s.host),
        )
        # Eviction targets: cold hosts with no sensitive app and spare
        # CPU headroom. Moving a bomb onto another sensitive host just
        # relocates the interference — the stay-away property must hold
        # fleet-wide, not per-host.
        cold = sorted(
            (
                s
                for s in scores.values()
                if s.total <= COLD_SCORE
                and s.host not in self.sensitive
                and s.utilization < 0.75
            ),
            key=lambda s: (s.total, s.host),
        )
        for source in hot:
            if self._cooldown_until.get(source.host, -1) > tick:
                continue
            victim = self._eviction_victim(source.host, snapshots[source.host], cluster)
            if victim is None:
                continue
            target = next(
                (
                    c
                    for c in cold
                    if c.host != source.host
                    and self._cooldown_until.get(c.host, -1) <= tick
                ),
                None,
            )
            if target is None:
                break
            if self.supervisor.request(tick, victim, target.host) is None:
                break
            cold = [c for c in cold if c.host != target.host]
            until = tick + MIGRATION_COOLDOWN
            self._cooldown_until[source.host] = until
            self._cooldown_until[target.host] = until

    # -- admission ----------------------------------------------------------
    def admit(self, container, preferred: Optional[str] = None) -> str:
        """Place a new container on the coldest up host; returns the host.

        ``preferred`` is honoured when that host is up and not hot.
        The coordinator must have seen at least one cluster tick.
        """
        if self.cluster is None:
            raise ValueError("coordinator is not bound to a cluster yet")
        scores = {
            name: score
            for name, score in self.scorer.scores().items()
            if self.cluster.host_is_up(name)
        }
        if (
            preferred is not None
            and self.cluster.host_is_up(preferred)
            and (preferred not in scores or scores[preferred].total < HOT_SCORE)
        ):
            target = preferred
        elif scores:
            target = min(scores.values(), key=lambda s: (s.total, s.host)).host
        else:
            up = sorted(self.cluster.up_hosts)
            if not up:
                raise ValueError("no host is up to admit onto")
            target = up[0]
        self.cluster.hosts[target].add_container(container)
        return target

    # -- reporting ----------------------------------------------------------
    def fleet_violation_ratio(self) -> float:
        """Fleet-wide sensitive QoS violation ratio across all cells."""
        violations = 0
        reports = 0
        for cell in self.cells.values():
            qos = cell.controller.qos
            violations += qos.violation_count
            reports += len(qos.qos_series)
        if reports == 0:
            return 0.0
        return violations / reports

    def summary(self) -> dict:
        """The coordinator's ``fleet`` telemetry section."""
        scores = self.scorer.scores()
        degraded = [c.host_name for c in self.cells.values() if c.degraded]
        fleet: dict = {
            "hosts": len(self.cluster.hosts) if self.cluster else 0,
            "hosts_down": sorted(self.cluster.down) if self.cluster else [],
            "controllers": {
                "cells": len(self.cells),
                "degraded": sorted(degraded),
                "crashes": sum(c.crashes for c in self.cells.values()),
            },
            "migrations": self.supervisor.summary() if self.supervisor else {},
            "qos": {"fleet_violation_ratio": self.fleet_violation_ratio()},
            "ticks": self.ticks_seen,
        }
        if scores:
            ranked = sorted(scores.values(), key=lambda s: (-s.total, s.host))
            fleet["scores"] = {
                "mean": sum(s.total for s in scores.values()) / len(scores),
                "hottest": {"host": ranked[0].host, "total": ranked[0].total},
                "coldest": {"host": ranked[-1].host, "total": ranked[-1].total},
            }
        return {"fleet": fleet}
