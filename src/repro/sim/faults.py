"""Fault injection: scripted and probabilistic disturbances.

The controller must stay well-behaved when the environment misbehaves —
containers flapping behind its back, demand spikes, lost signals,
corrupted readings. This module turns those disturbances into
declarative, reproducible middleware instead of ad-hoc test code.

Three layers:

* **Scripted faults** (:class:`DemandSpiker`) fire at fixed ticks —
  precise, replayable unit-test material. The scripted kill / pause /
  dropout / host-recovery middleware the suites put at exact ticks
  lives with them, in ``tests/support/scripted_faults.py``.
* **Chaos faults** fire probabilistically — the hostile-host mix the
  resilience layer (sensor guard, degraded modes, reconciliation) is
  built to survive. Sensor corruption and lost signals sit on the
  controller's port (:class:`FaultyPort`); :class:`QosDropout` silences
  the application's report and :class:`ContainerFlapper` is an agent
  outside the program signalling containers behind the controller's
  back. :class:`StageExceptionInjector` and :class:`ModelPoisoner`
  fault the controller itself.
* **Cluster and stream faults** (:class:`HostCrashInjector`,
  :class:`TelemetryBlackout`, the stream wrappers,
  :class:`ActuatorAckDropper`) operate on a whole
  :class:`~repro.sim.cluster.Cluster` or on the service seam's wire.

Every probabilistic decision is one :func:`_fault_uniform` draw, a pure
function of ``(seed, tick, key, salt)``: the key names what is decided
(a container, a host, a stage, a wire record) and the salt which
decision it is. No injector holds RNG state, so the fault script is
identical across policy arms however their control flow diverges after
the first fault. ``docs/SIMULATION.md`` §5 lists every key and salt.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.observation import METRICS, ZERO_USAGE, Observation
from repro.sim.host import Host, HostSnapshot
from repro.sim.resources import ResourceVector

if TYPE_CHECKING:
    from repro.sim.cluster import Cluster


class FaultEvent(NamedTuple):
    """A fault that fired during the run."""

    tick: int
    kind: str
    target: str


def _fault_uniform(seed: int, tick: int, key: str, salt: int) -> float:
    """A uniform in [0, 1): the top 53 bits of a BLAKE2b digest of the
    arguments. Stable across processes, unlike ``hash``."""
    digest = hashlib.blake2b(f"{seed}|{tick}|{key}|{salt}".encode(), digest_size=8)
    return (int.from_bytes(digest.digest(), "big") >> 11) / (1 << 53)


class DemandSpiker:
    """Inject transient demand spikes into an application.

    Wraps the app's ``demand`` so that during scripted windows the
    demand is multiplied — a flash crowd, a garbage-collection storm, a
    runaway query. Spikes are the 'instantaneous transitions' stressor
    for the predictor (§3.2.3).
    """

    def __init__(
        self,
        app,
        windows: List,
        factor: float = 2.0,
    ) -> None:
        """``windows`` is a list of ``(start_tick, end_tick)`` pairs."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        for start, end in windows:
            if end <= start:
                raise ValueError(f"empty spike window ({start}, {end})")
        ordered = sorted(windows)
        for (s1, e1), (s2, e2) in zip(ordered, ordered[1:]):
            if s2 < e1:
                raise ValueError(
                    f"overlapping spike windows ({s1}, {e1}) and ({s2}, {e2}); "
                    "merge them or use a larger factor"
                )
        self.app = app
        self.windows = list(windows)
        self.factor = factor
        self._original_demand = app.demand
        self._removed = False
        app.demand = self._spiked_demand  # type: ignore[method-assign]

    def active(self, tick: int) -> bool:
        """Whether a spike window covers the tick."""
        return any(start <= tick < end for start, end in self.windows)

    def _spiked_demand(self, clock) -> ResourceVector:
        base = self._original_demand(clock)
        if self.active(clock.tick):
            return base.scaled(self.factor)
        return base

    def remove(self) -> None:
        """Restore the app's original demand function (idempotent)."""
        if self._removed:
            return
        self.app.demand = self._original_demand  # type: ignore[method-assign]
        self._removed = True


# ---------------------------------------------------------------------------
# Chaos layer: keyed probabilistic faults
# ---------------------------------------------------------------------------

class FaultyPort:
    """A controller's port with seeded faults between it and the host.

    Middleware wrapper: ``on_tick(reading, host)`` drives ``inner`` with
    this object as its host, so everything ``inner`` reads and writes
    passes through here — over a simulator :class:`~repro.sim.host.Host`
    and a stream :class:`~repro.service.views.HostView` alike.

    * :meth:`observe` corrupts what the wrapped port returns with
      probability ``sensor_corruption`` per tick: one usage cell becomes
      NaN, Inf, negative or an absurd spike, or every row is frozen to
      the previous tick's usage. The host itself is untouched.
    * :meth:`pause` / :meth:`resume` lose the signal with probability
      ``signal_loss`` — the SIGSTOP or SIGCONT never arrives (ptrace
      interference, a frozen cgroup, a race with teardown) — and answer
      False.

    A corruption is keyed ``"sensor"`` (salts 7–10: fire, kind,
    container, metric), a lost signal ``"verb|container"`` (salt 11), so
    two ports with one seed agree on every signal both send, whatever
    else each sends.
    """

    KINDS: Tuple[str, ...] = ("nan", "inf", "negative", "spike", "freeze")

    def __init__(
        self,
        inner,
        seed: int = 0,
        sensor_corruption: float = 0.05,
        signal_loss: float = 0.2,
    ) -> None:
        for name, p in (
            ("sensor_corruption", sensor_corruption),
            ("signal_loss", signal_loss),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        self.inner = inner
        self.seed = seed
        self.sensor_corruption = sensor_corruption
        self.signal_loss = signal_loss
        self.corruptions: List[FaultEvent] = []
        self.lost_signals: List[FaultEvent] = []
        self._port: Any = None
        self._tick = 0
        self._previous: Optional[Dict[str, Tuple[float, ...]]] = None

    def on_tick(self, reading, host) -> None:
        self._port = host
        self._tick = reading.tick
        self.inner.on_tick(reading, self)

    def _draw(self, key: str, salt: int) -> float:
        return _fault_uniform(self.seed, self._tick, key, salt)

    def observe(self, reading) -> Observation:
        observation = self._port.observe(reading)
        rows = observation.rows
        corrupted = observation
        if rows and self._draw("sensor", 7) < self.sensor_corruption:
            kind = self.KINDS[int(self._draw("sensor", 8) * len(self.KINDS))]
            if kind == "freeze" and self._previous is not None:
                previous = self._previous
                corrupted = observation._replace(
                    rows=tuple(
                        row._replace(usage=previous.get(row.name, ZERO_USAGE))
                        for row in rows
                    )
                )
                self._record(self.corruptions, "sensor-freeze", "*")
            elif kind != "freeze":
                names = sorted(row.name for row in rows)
                name = names[int(self._draw("sensor", 9) * len(names))]
                index = int(self._draw("sensor", 10) * len(METRICS))
                corrupted = observation._replace(
                    rows=tuple(
                        row._replace(usage=_corrupt(row.usage, index, kind))
                        if row.name == name
                        else row
                        for row in rows
                    )
                )
                self._record(self.corruptions, f"sensor-{kind}", name)
        self._previous = {row.name: row.usage for row in rows}
        return corrupted

    def pause(self, name: str) -> bool:
        return self._delivered("pause", name) and self._port.pause(name)

    def resume(self, name: str) -> bool:
        return self._delivered("resume", name) and self._port.resume(name)

    def _delivered(self, verb: str, name: str) -> bool:
        if self._draw(f"{verb}|{name}", 11) < self.signal_loss:
            self._record(self.lost_signals, f"lost-{verb}", name)
            return False
        return True

    def _record(self, log: List[FaultEvent], kind: str, target: str) -> None:
        log.append(FaultEvent(tick=self._tick, kind=kind, target=target))


def _corrupt(usage: Tuple[float, ...], index: int, kind: str) -> Tuple[float, ...]:
    """``usage`` with the cell at ``index`` corrupted as ``kind``."""
    value = usage[index]
    if kind == "nan":
        bad = float("nan")
    elif kind == "inf":
        bad = float("inf")
    elif kind == "negative":
        bad = -abs(value) - 1.0
    else:  # spike
        bad = max(abs(value), 1.0) * 1e6
    return usage[:index] + (bad,) + usage[index + 1:]


class QosDropout:
    """Silence an application's QoS channel.

    Wraps ``app.qos_report`` so that with a seeded per-call probability
    the report is swallowed (``None``), as if the application wedged or
    the reporting IPC broke. The silence the degraded-mode machine must
    detect. The report does not carry its tick, so the draw is keyed
    ``"qos"`` (salt 19) on the wrapper's own call count.
    """

    def __init__(self, app, probability: float = 0.0, seed: int = 0) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        self.app = app
        self.probability = probability
        self.seed = seed
        self.dropped_reports = 0
        self._calls = 0
        self._original_report = app.qos_report
        self._removed = False
        app.qos_report = self._guarded_report  # type: ignore[method-assign]

    def _guarded_report(self):
        report = self._original_report()
        self._calls += 1
        if (
            report is not None
            and _fault_uniform(self.seed, self._calls, "qos", 19) < self.probability
        ):
            self.dropped_reports += 1
            return None
        return report

    def remove(self) -> None:
        """Restore the app's original report method (idempotent)."""
        if self._removed:
            return
        self.app.qos_report = self._original_report  # type: ignore[method-assign]
        self._removed = True


class ContainerFlapper:
    """Randomly pause/resume/restart containers behind the controller's
    back.

    The crash-looping supervisor and trigger-happy operator rolled into
    one middleware: each tick, each target container flips state with
    the configured probabilities. All faults are recorded. Both draws
    are keyed on the container's name (restart salt 13, flap salt 14),
    so they do not depend on what any other container did.

    Parameters
    ----------
    targets:
        Container names to harass.
    flap_probability:
        Per-tick chance to toggle pause/resume on a target.
    restart_probability:
        Per-tick chance to supervisor-restart a stopped/paused target.
    """

    def __init__(
        self,
        targets: Sequence[str],
        seed: int = 0,
        flap_probability: float = 0.02,
        restart_probability: float = 0.0,
    ) -> None:
        for name, p in (
            ("flap_probability", flap_probability),
            ("restart_probability", restart_probability),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        self.targets = list(targets)
        self.seed = seed
        self.flap_probability = flap_probability
        self.restart_probability = restart_probability
        self.fired: List[FaultEvent] = []

    def _record(self, tick: int, kind: str, target: str) -> None:
        self.fired.append(FaultEvent(tick=tick, kind=kind, target=target))

    def on_tick(self, snapshot: HostSnapshot, host: Host) -> None:
        tick = snapshot.tick
        for name in self.targets:
            if name not in host.containers:
                continue
            container = host.container(name)
            if (
                not container.is_running
                and _fault_uniform(self.seed, tick, name, 13) < self.restart_probability
            ):
                container.restart()
                self._record(tick, "restart", name)
                continue
            if _fault_uniform(self.seed, tick, name, 14) < self.flap_probability:
                if container.is_running:
                    container.pause()
                    self._record(tick, "pause", name)
                elif container.is_paused:
                    container.resume()
                    self._record(tick, "resume", name)


# ---------------------------------------------------------------------------
# Controller-internal faults: stage crashes and model poisoning
# ---------------------------------------------------------------------------

class InjectedStageError(RuntimeError):
    """A deliberately injected controller-stage failure.

    Carries the stage and tick so the firewall's event record (and the
    chaos experiment's crash forensics) can attribute the fault.
    """

    def __init__(self, stage: str, tick: int) -> None:
        super().__init__(f"injected {stage}-stage fault at tick {tick}")
        self.fault_name = f"stage-{stage}"
        self.stage = stage
        self.tick = tick


class StageExceptionInjector:
    """Make controller stages raise — scripted or probabilistic.

    Wraps the controller's patchable stage seams (``_stage_guard``,
    ``_stage_map``, ``_stage_predict``, ``_stage_act``) so they raise
    :class:`InjectedStageError` at scripted ticks, during scripted
    windows, or with a per-period probability. The probabilistic
    decision is keyed on the stage's name (salt 15).

    Use :meth:`install` / :meth:`remove` around the run.
    """

    STAGES: Tuple[str, ...] = ("guard", "map", "predict", "act")

    def __init__(
        self,
        controller,
        seed: int = 0,
        probability: float = 0.0,
        stages: Sequence[str] = ("map",),
    ) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        unknown = set(stages) - set(self.STAGES)
        if unknown:
            raise ValueError(f"unknown stages: {sorted(unknown)}")
        self.controller = controller
        self.seed = seed
        self.probability = probability
        self.stages = tuple(stages)
        self._scripted: set = set()
        self._windows: List[Tuple[int, int, str]] = []
        self.fired: List[FaultEvent] = []
        self._originals: Dict[str, object] = {}

    def at(self, tick: int, stage: str) -> "StageExceptionInjector":
        """Script a single-period failure of ``stage`` at ``tick``."""
        if stage not in self.STAGES:
            raise ValueError(f"unknown stage {stage!r}")
        self._scripted.add((tick, stage))
        return self

    def during(self, start: int, end: int, stage: str) -> "StageExceptionInjector":
        """Script ``stage`` to fail every period in ``[start, end)``."""
        if end <= start:
            raise ValueError(f"empty fault window ({start}, {end})")
        if stage not in self.STAGES:
            raise ValueError(f"unknown stage {stage!r}")
        self._windows.append((start, end, stage))
        return self

    def _should_fail(self, tick: int, stage: str) -> bool:
        if (tick, stage) in self._scripted:
            return True
        for start, end, name in self._windows:
            if name == stage and start <= tick < end:
                return True
        return (
            stage in self.stages
            and _fault_uniform(self.seed, tick, stage, 15) < self.probability
        )

    def _wrap(self, stage: str, original):
        def faulty(tick, *args, **kwargs):
            if self._should_fail(tick, stage):
                self.fired.append(
                    FaultEvent(tick=tick, kind=f"stage-{stage}", target=stage)
                )
                raise InjectedStageError(stage=stage, tick=tick)
            return original(tick, *args, **kwargs)

        return faulty

    def install(self) -> "StageExceptionInjector":
        """Start injecting stage faults (idempotent)."""
        if self._originals:
            return self
        for stage in self.STAGES:
            name = f"_stage_{stage}"
            original = getattr(self.controller, name)
            self._originals[name] = original
            setattr(self.controller, name, self._wrap(stage, original))
        return self

    def remove(self) -> None:
        """Drop the wrappers (idempotent): the controller's class stage
        methods show through again."""
        for name in self._originals:
            delattr(self.controller, name)
        self._originals = {}


class ModelPoisoner:
    """Silently corrupt the controller's learned state.

    The stressor the model-health watchdog exists for: NaN coordinates
    that escaped a numerical blow-up, garbage coordinates, a NaN
    written in place into a row of the representative matrix (the
    set's only copy, so the write persists until the watchdog
    quarantines the row), negative violation-range radii in the
    materialized geometry cache, non-finite step-histogram samples, a
    degenerated beta. Nothing raises — the damage only shows when the
    model is next used, exactly like real silent corruption.

    Registered as a middleware *after* the controller; each period's
    draws are keyed ``"model"`` (salt 16 fires, 17 picks the kind, 18
    the row), so fault scripts are identical across policy variants.
    An event's target names what was hit: ``coords[i]``,
    ``representatives[i]``, ``radii[i]``, ``histogram[mode]`` or
    ``beta``.

    Parameters
    ----------
    controller:
        The :class:`~repro.core.controller.StayAway` whose model is
        poisoned.
    seed / probability:
        Seeded per-period poisoning probability.
    kinds:
        Poison kinds to draw from (default: all).
    """

    KINDS: Tuple[str, ...] = (
        "nan-coords",
        "garbage-coords",
        "nan-representative",
        "negative-radius",
        "nan-histogram",
        "nan-beta",
    )

    def __init__(
        self,
        controller,
        seed: int = 0,
        probability: float = 0.02,
        kinds: Optional[Sequence[str]] = None,
    ) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        self.controller = controller
        self.seed = seed
        self.probability = probability
        self.kinds = tuple(kinds) if kinds is not None else self.KINDS
        unknown = set(self.kinds) - set(self.KINDS)
        if unknown:
            raise ValueError(f"unknown poison kinds: {sorted(unknown)}")
        self.fired: List[FaultEvent] = []

    def on_tick(self, snapshot: HostSnapshot, host: Host) -> None:
        tick = snapshot.tick
        if _fault_uniform(self.seed, tick, "model", 16) >= self.probability:
            return
        kind = self.kinds[int(_fault_uniform(self.seed, tick, "model", 17) * len(self.kinds))]
        target = self._poison(kind, _fault_uniform(self.seed, tick, "model", 18))
        if target is not None:
            self.fired.append(FaultEvent(tick=tick, kind=f"poison-{kind}", target=target))

    def _poison(self, kind: str, u: float) -> Optional[str]:
        """Apply one poison, ``u`` picking the row; returns what was hit,
        or None when there is nothing to hit."""
        controller = self.controller
        space = controller.state_space
        if kind in ("nan-coords", "garbage-coords"):
            n = int(space.coords.shape[0])
            if n == 0:
                return None
            index = int(u * n)
            space.coords[index] = float("nan") if kind == "nan-coords" else 1e9
            return f"coords[{index}]"
        if kind == "nan-representative":
            points = space.representatives.points
            n = int(points.shape[0])
            if n == 0:
                return None
            index = int(u * n)
            points[index, 0] = float("nan")
            return f"representatives[{index}]"
        if kind == "negative-radius":
            geometry = space._geometry
            if geometry is None or geometry.radii.size == 0:
                return None
            index = int(u * geometry.radii.size)
            geometry.radii[index] = -abs(float(geometry.radii[index])) - 1.0
            return f"radii[{index}]"
        if kind == "nan-histogram":
            modes = [
                (mode, model)
                for mode, model in controller.predictor.modes.models.items()
                if len(model.distances.samples)
            ]
            if not modes:
                return None
            mode, model = modes[int(u * len(modes))]
            model.distances.add(float("nan"))
            return f"histogram[{mode.value}]"
        if kind == "nan-beta":
            controller.throttle.beta = float("nan")
            return "beta"
        raise AssertionError(kind)


# ---------------------------------------------------------------------------
# Cluster-level faults: host crashes, recovery, telemetry blackout
# ---------------------------------------------------------------------------

class HostCrashInjector:
    """Crash whole hosts with a seeded probability and recover them.

    A cluster middleware (``on_cluster_tick``): registered on a
    :class:`~repro.sim.cluster.Cluster`, it takes hosts down via
    :meth:`~repro.sim.cluster.Cluster.fail_host` and brings them back
    after ``recovery_ticks`` via
    :meth:`~repro.sim.cluster.Cluster.recover_host`.

    The probabilistic decision for each host is a pure function of
    ``(seed, tick, host name)``, so the crash script is identical across
    policy arms no matter how each arm's control flow diverges after the
    first crash. ``max_down_fraction`` caps simultaneous outages (a
    correlated-failure guard, applied in sorted host-name order).
    """

    def __init__(
        self,
        seed: int = 0,
        probability: float = 0.0,
        recovery_ticks: Optional[int] = 20,
        max_down_fraction: float = 0.5,
    ) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if recovery_ticks is not None and recovery_ticks < 1:
            raise ValueError("recovery_ticks must be >= 1 (or None: never)")
        if not 0.0 < max_down_fraction <= 1.0:
            raise ValueError("max_down_fraction must be in (0, 1]")
        self.seed = seed
        self.probability = probability
        self.recovery_ticks = recovery_ticks
        self.max_down_fraction = max_down_fraction
        self._order: Optional[Tuple[str, ...]] = None
        self._recover_due: Dict[str, int] = {}
        self.fired: List[FaultEvent] = []

    def host_order(self, cluster: "Cluster") -> Tuple[str, ...]:
        """The hosts in sorted name order (captured once)."""
        if self._order is None:
            self._order = tuple(sorted(cluster.hosts))
        return self._order

    def _crash(self, tick: int, host: str, cluster: "Cluster") -> bool:
        if host not in cluster.hosts or not cluster.fail_host(host):
            return False
        self.fired.append(FaultEvent(tick=tick, kind="host-crash", target=host))
        if self.recovery_ticks is not None:
            self._recover_due[host] = tick + self.recovery_ticks
        return True

    def on_cluster_tick(
        self, snapshots: Dict[str, HostSnapshot], cluster: "Cluster"
    ) -> None:
        """Apply due recoveries, then the tick's probabilistic crashes."""
        tick = cluster.clock.tick - 1  # the tick the snapshots describe
        order = self.host_order(cluster)

        for host, due in sorted(self._recover_due.items()):
            if due <= tick and host in cluster.hosts:
                if cluster.recover_host(host):
                    self.fired.append(
                        FaultEvent(tick=tick, kind="host-recover", target=host)
                    )
                del self._recover_due[host]

        if self.probability <= 0:
            return
        cap = int(self.max_down_fraction * len(cluster.hosts))
        for host in order:
            if host in cluster.down or host not in cluster.hosts:
                continue
            if len(cluster.down) >= cap:
                break
            if _fault_uniform(self.seed, tick, host, 0) < self.probability:
                self._crash(tick, host, cluster)

    def summary(self) -> dict:
        """Crash/recover counts and the ticks they fired at."""
        crashes = [e for e in self.fired if e.kind == "host-crash"]
        recoveries = [e for e in self.fired if e.kind == "host-recover"]
        return {
            "crashes": len(crashes),
            "recoveries": len(recoveries),
            "crash_ticks": [e.tick for e in crashes],
        }


class TelemetryBlackout:
    """Hide host snapshots from an inner cluster middleware.

    Models a network partition between the monitoring plane and
    individual hosts: the machine is up and its containers keep
    running, but the coordinator receives no snapshot for it — the
    same view a crashed host produces, which is exactly why a fleet
    control plane must not treat 'no telemetry' as 'safe to act'.

    Blackouts are pure functions of ``(seed, tick, host name)``, like
    :class:`HostCrashInjector`'s crashes, so the blackout script is
    arm-invariant too.
    """

    def __init__(
        self,
        inner,
        seed: int = 0,
        probability: float = 0.0,
    ) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        self.inner = inner
        self.seed = seed
        self.probability = probability
        self.fired: List[FaultEvent] = []

    def _is_dark(self, tick: int, host: str) -> bool:
        return (
            self.probability > 0
            and _fault_uniform(self.seed, tick, host, 1) < self.probability
        )

    def on_cluster_tick(
        self, snapshots: Dict[str, HostSnapshot], cluster: "Cluster"
    ) -> None:
        tick = cluster.clock.tick - 1
        visible: Dict[str, HostSnapshot] = {}
        for host, snapshot in snapshots.items():
            if self._is_dark(tick, host):
                self.fired.append(
                    FaultEvent(tick=tick, kind="blackout", target=host)
                )
            else:
                visible[host] = snapshot
        self.inner.on_cluster_tick(visible, cluster)


# ---------------------------------------------------------------------------
# Stream-transport faults: the metric stream itself misbehaves
# ---------------------------------------------------------------------------
#
# These wrap a stream *source* — any object with ``poll() -> List[dict]``,
# ``reconnect()`` and ``exhausted`` (the ``repro.service.stream`` duck
# type; wire records are plain dicts, so this module needs no service
# import and the layering stays one-directional). Every probabilistic
# decision is :func:`_fault_uniform` of ``(seed, tick, record key)``,
# the key being the record's ``"kind|container"`` text, under one salt
# per decision (drop 2, reorder 3, reorder delay 6, duplicate 4) — the
# fault script is identical across the assembler-on / assembler-off
# arms regardless of how each consumer behaves after the first fault,
# or how the records were batched into polls.


def _record_key(record: dict) -> str:
    """The text a record's seeded fault decisions are keyed on."""
    return "{}|{}".format(record.get("kind", ""), record.get("container", ""))


class _StreamFault:
    """What every stream-source wrapper passes through to ``inner``.

    ``_held`` is whatever the wrapper took from ``inner`` and still
    owes its consumer: the stream is not exhausted while any is left.
    """

    inner: Any
    _held: Sequence = ()

    def reconnect(self) -> None:
        self.inner.reconnect()

    @property
    def exhausted(self) -> bool:
        return self.inner.exhausted and not self._held


class StreamDropper(_StreamFault):
    """Lose wire records in transit with a seeded per-record probability.

    Only tick-bearing records are dropped (the ``header`` always
    arrives — losing it is a different failure: a dead stream). The
    assembler leaves the lost cells NaN at close and the controller's
    ``SensorGuard`` holds the last good vector; the assembler-less arm
    zero-fills and poisons its map.
    """

    def __init__(self, inner, seed: int = 0, probability: float = 0.05) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        self.inner = inner
        self.seed = seed
        self.probability = probability
        self.dropped: List[FaultEvent] = []

    def poll(self) -> List[dict]:
        kept: List[dict] = []
        for record in self.inner.poll():
            tick = record.get("tick")
            if tick is None:
                kept.append(record)
                continue
            if _fault_uniform(self.seed, tick, _record_key(record), 2) < self.probability:
                self.dropped.append(
                    FaultEvent(
                        tick=tick,
                        kind="stream-drop",
                        target=str(record.get("container", record.get("kind"))),
                    )
                )
                continue
            kept.append(record)
        return kept


class StreamReorderer(_StreamFault):
    """Delay wire records so they arrive behind newer ticks.

    With probability ``probability`` a tick-bearing record is held for
    ``1..max_delay`` polls before delivery — by which time newer ticks
    have usually passed it, so the consumer sees genuine reordering.
    Held records still drain after the inner source is exhausted
    (delayed, not lost).
    """

    def __init__(
        self,
        inner,
        seed: int = 0,
        probability: float = 0.1,
        max_delay: int = 3,
    ) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if max_delay < 1:
            raise ValueError("max_delay must be >= 1")
        self.inner = inner
        self.seed = seed
        self.probability = probability
        self.max_delay = max_delay
        self.delayed: List[FaultEvent] = []
        self._poll_index = 0
        self._held: List[Tuple[int, dict]] = []  # (due poll index, record)

    def poll(self) -> List[dict]:
        self._poll_index += 1
        out: List[dict] = []
        still_held: List[Tuple[int, dict]] = []
        for due, record in self._held:
            if due <= self._poll_index:
                out.append(record)
            else:
                still_held.append((due, record))
        self._held = still_held
        for record in self.inner.poll():
            tick = record.get("tick")
            if tick is None:
                out.append(record)
                continue
            key = _record_key(record)
            if _fault_uniform(self.seed, tick, key, 3) < self.probability:
                u = _fault_uniform(self.seed, tick, key, 6)
                delay = 1 + int(u * self.max_delay)
                self._held.append((self._poll_index + delay, record))
                self.delayed.append(
                    FaultEvent(
                        tick=tick,
                        kind="stream-reorder",
                        target=str(record.get("container", record.get("kind"))),
                    )
                )
                continue
            out.append(record)
        return out


class StreamDuplicator(_StreamFault):
    """Deliver wire records twice — once now, once a poll later.

    At-least-once transports redeliver; the assembler's
    ``(tick, container, metric)`` dedup key absorbs the copy,
    the naive consumer double-applies it.
    """

    def __init__(self, inner, seed: int = 0, probability: float = 0.1) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        self.inner = inner
        self.seed = seed
        self.probability = probability
        self.duplicated: List[FaultEvent] = []
        self._held: List[dict] = []  # copies owed on the next poll

    def poll(self) -> List[dict]:
        out: List[dict] = list(self._held)
        self._held = []
        for record in self.inner.poll():
            out.append(record)
            tick = record.get("tick")
            if tick is None:
                continue
            if _fault_uniform(self.seed, tick, _record_key(record), 4) < self.probability:
                self._held.append(dict(record))
                self.duplicated.append(
                    FaultEvent(
                        tick=tick,
                        kind="stream-duplicate",
                        target=str(record.get("container", record.get("kind"))),
                    )
                )
        return out


class StreamStaller(_StreamFault):
    """Freeze the transport for scripted windows of polls.

    During a stall the wrapper neither polls the inner source nor
    delivers anything — the consumer's newest tick stops advancing,
    which is exactly what its stall-deadline degradation watches for.
    Data is delayed, not lost: polling resumes where it left off.
    Windows are ``(start, end)`` in *poll indices* (first poll is 1).
    """

    def __init__(self, inner, windows: Optional[List[Tuple[int, int]]] = None) -> None:
        self.inner = inner
        self.windows = list(windows or [])
        for start, end in self.windows:
            if end <= start:
                raise ValueError(f"empty stall window ({start}, {end})")
        self.stalled_polls: List[int] = []
        self._poll_index = 0

    def poll(self) -> List[dict]:
        self._poll_index += 1
        if any(start <= self._poll_index < end for start, end in self.windows):
            self.stalled_polls.append(self._poll_index)
            return []
        return self.inner.poll()


class ActuatorAckDropper:
    """Lose actuation acknowledgements with a seeded probability.

    Plugs into :class:`~repro.service.actuator.SimHostActuator` as its
    ``ack_filter``: the pause/resume *lands* on the host but the ack
    does not come back, so the tracker redelivers — the
    at-least-once double-delivery case idempotent pause/resume must
    absorb. Deterministic in ``(seed, tick, command_id, attempts)``.
    """

    def __init__(self, seed: int = 0, probability: float = 0.3) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        self.seed = seed
        self.probability = probability
        self.dropped_acks: List[FaultEvent] = []

    def __call__(self, command, tick: int) -> bool:
        key = f"{command.command_id}|{command.attempts}"
        if _fault_uniform(self.seed, tick, key, 5) < self.probability:
            self.dropped_acks.append(
                FaultEvent(tick=tick, kind="ack-drop", target=command.container)
            )
            return False
        return True
