"""The five workloads: what is built (set-up) and what is timed (an episode).

Load model: closed loop, one client. The benchmark's own thread calls
``Host.step()`` / ``Cluster.step()`` and then the controller, so the
next tick is only generated when the previous control period has
returned. An *episode* is one fixed-size simulated run; a benchmark run
repeats episodes (each with its own derived seed) until its time budget
is spent, so every reported number pools several independent inputs.

Sizes are the ``--scale 1`` sizes. They are smaller than one might run
by hand because the acceptance driver makes 114 runs inside 3420 s: an
episode has to fit several times into an 18 s run, so that the run can
report a median over episodes.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import StayAway, StayAwayConfig
from repro.experiments.chaos import (
    ClusterCrashGuard,
    FleetMix,
    FleetQosAudit,
    build_fleet,
)
from repro.experiments.scenarios import Scenario
from repro.fleet import FleetCoordinator
from repro.service import (
    ControllerService,
    QueueSource,
    RecordingActuator,
    SimHostActuator,
    StreamRecorder,
    decision_sequence,
)
from repro.service.actuator import Actuator
from repro.service.recording import header_record, qos_record, snapshot_records
from repro.sim.cluster import MIGRATION_IN_FLIGHT
from repro.sim.faults import (
    ActuatorAckDropper,
    HostCrashInjector,
    StreamDropper,
    StreamDuplicator,
    StreamReorderer,
    TelemetryBlackout,
)

from benchmarks.e2e.gauge import Pace, gauged
from benchmarks.e2e.tracer import ROOT, Tracer

STEADY_APPS = ("webservice-mix", ("cpubomb", "memorybomb"))
STEADY_TICKS = 2400
#: One controller lifetime per pair; every sensitive application and
#: every batch set of the paper's Table 1 appears, in the same mix each
#: episode so episodes stay comparable.
COLD_PAIRS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("vlc-streaming", ("cpubomb",)),
    ("webservice-cpu", ("memorybomb",)),
    ("webservice-memory", ("soplex",)),
    ("webservice-mix", ("twitter-analysis",)),
    ("vlc-streaming", ("cpubomb", "memorybomb")),
    ("webservice-cpu", ("twitter-analysis", "soplex")),
)
COLD_TICKS = 300
FLEET_HOSTS = 16
FLEET_TICKS = 100
REPLAY_TICKS = 600
CHAOS_TICKS = 600
#: Ticks between two readings of the speed gauge (one on the fleet, where
#: a tick is a whole round): chunks of 35-60 ms, far shorter than the
#: slow phases they follow, with under 3 % of the run spent reading.
CHUNK_TICKS = 20
#: Fewer ticks than this and the batch tenants never start.
MIN_TICKS = 40
#: After the live host stops, fault wrappers may still hold delayed
#: records; they drain within ``max_delay`` polls.
FLUSH_CYCLE_CAP = 256


def scaled(nominal: int, scale: float, floor: int = MIN_TICKS) -> int:
    return max(floor, int(round(nominal * scale)))


def episode_seed(seed: int, index: int) -> int:
    """Seed of episode ``index`` of a run started with ``--seed seed``."""
    return seed * 1000 + index


def scenario(sensitive: str, batches: Tuple[str, ...], ticks: int, seed: int) -> Scenario:
    return Scenario(
        sensitive=sensitive,
        batches=batches,
        ticks=ticks,
        batch_start=min(60, ticks // 5),
        seed=seed,
    )


def digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


@dataclass
class Outcome:
    """What one episode produced.

    ``sim`` holds only numbers fixed by ``(seed, episode)`` — counts,
    ground-truth QoS, the decision digest — and must be identical
    whether or not the tracer was on. The lists are wall-clock samples;
    the ``paced_`` ones are the same samples at the gauge's reference
    speed (see ``gauge.py``), which is what the gated metrics are made of.
    """

    wall_s: float = 0.0
    paced_s: float = 0.0
    host_ticks: int = 0
    periods_s: List[float] = field(default_factory=list)
    rounds_s: List[float] = field(default_factory=list)
    paced_periods_s: List[float] = field(default_factory=list)
    paced_rounds_s: List[float] = field(default_factory=list)
    gauge_s: List[float] = field(default_factory=list)
    ack_ticks: List[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    sim: Dict[str, object] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    #: The program's own stage timers, ``{stage: [count, seconds]}`` —
    #: what the outside-in tracer is cross-checked against.
    stages: Dict[str, List[float]] = field(default_factory=dict)

    def pace(self, every: int = CHUNK_TICKS) -> Pace:
        """Start the timed region."""
        return Pace(every, self.periods_s, self.rounds_s)

    def settle(self, pace: Pace) -> None:
        """End the timed region."""
        pace.close()
        self.wall_s = pace.wall_s()
        self.paced_s = pace.paced_s()
        self.paced_periods_s = pace.rescaled(0)
        self.paced_rounds_s = pace.rescaled(1)
        self.gauge_s = pace.readings

    def raised(self, where: str) -> None:
        """A control period raised out of the program under test.

        Call from the ``except`` that caught it: the run has to report
        a crash, not die of it.
        """
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{where}: {traceback.format_exc(limit=3)}")


class QosAudit:
    """Ground-truth QoS, polled outside any controller or stream.

    Not a ``QosTracker``: the tracer wraps that class as part of the
    monitoring layer, and the audit is load, not program.
    """

    def __init__(self, app) -> None:
        self.app = app
        self.reports = 0
        self.violations = 0

    def observe(self) -> None:
        report = self.app.qos_report()
        if report is None:
            return
        self.reports += 1
        if report.violated:
            self.violations += 1


def registry_count(controller: StayAway, name: str) -> int:
    metric = controller.telemetry.registry.get(name)
    return int(metric.value) if metric is not None else 0


def controller_counts(controller: StayAway) -> Dict[str, int]:
    """Count metrics one controller contributes (all fixed by the seed)."""
    history = controller.mapping.history if controller.mapping is not None else []
    new_states = sum(1 for sample in history if sample.is_new_state)
    guard = controller.guard
    return {
        "monitoring.guard_rejects": guard.rejected_count if guard is not None else 0,
        "monitoring.guard_imputed": guard.imputed_count if guard is not None else 0,
        "mds.samples": len(history),
        "mds.dedup_hits": len(history) - new_states,
        "mds.place_calls": max(0, new_states - 1),
        "mds.refits": controller.state_space.refit_count,
        "mds.states": len(controller.state_space),
        "trajectory.candidates": registry_count(controller, "prediction.samples_drawn"),
        "core.periods": registry_count(controller, "controller.periods"),
        "core.alarms": len(controller.alarm_ticks),
        "core.throttles": controller.throttle.throttle_count,
        "core.resumes": controller.throttle.resume_count,
        "core.firewall_catches": registry_count(
            controller, "containment.firewall_catches"
        ),
        "core.geometry_rebuilds": controller.state_space.geometry_stats()["rebuilds"],
    }


def add_counts(total: Dict[str, int], part: Dict[str, int]) -> None:
    for name, value in part.items():
        total[name] = total.get(name, 0) + value


def service_counts(service: ControllerService, records_in: int) -> Dict[str, int]:
    stream = service.summary()["telemetry"]["stream"]
    actuator = stream["actuator"]
    return {
        "service.records_in": records_in,
        "service.records_dropped": stream["dropped"],
        "service.records_duplicated": stream["duplicated"],
        "service.records_late": stream["late"],
        "service.cells_imputed": stream["imputed"],
        "service.ticks_closed_partial": stream["ticks_closed_partial"],
        "service.commands_submitted": actuator["submitted"],
        "service.acks": actuator["acks"],
        "service.retries": actuator["retries"],
        "service.dead_letters": actuator["dead_lettered"],
    }


class Episode:
    """One built, not yet run, unit of work."""

    def run(self, tracer: Tracer) -> Outcome:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# host_steady / host_coldstart: controller in-process on one host
# ---------------------------------------------------------------------------

class HostEpisode(Episode):
    """A sequence of independent single-host controller lifetimes."""

    def __init__(
        self, pairs: Tuple[Tuple[str, Tuple[str, ...]], ...], ticks: int, seed: int
    ) -> None:
        self.ticks = ticks
        self.lives = []
        for index, (sensitive, batches) in enumerate(pairs):
            built = scenario(sensitive, batches, ticks, seed + 10 * index).build()
            controller = StayAway(
                built.sensitive_app, config=StayAwayConfig(seed=seed + index)
            )
            self.lives.append((f"host{index}", built, controller))

    def run(self, tracer: Tracer) -> Outcome:
        outcome = Outcome()
        counts: Dict[str, int] = {}
        decisions = []
        violations = reports = 0
        batch_work = 0.0
        clock = time.perf_counter
        pace = outcome.pace()
        for name, built, controller in self.lives:
            host = built.host
            audit = QosAudit(built.sensitive_app)
            for tick in range(self.ticks):
                with tracer.span(ROOT, name, tick):
                    snapshot = host.step()
                    audit.observe()
                    begun = clock()
                    try:
                        controller.on_tick(snapshot, host)
                    except Exception:  # counted and reported, see Outcome.raised
                        outcome.raised(f"{name} tick {tick}")
                    outcome.periods_s.append(clock() - begun)
                pace.tick()
            add_counts(counts, controller_counts(controller))
            for stage, summary in controller.telemetry.stage_summary().items():
                entry = outcome.stages.setdefault(stage, [0, 0.0])
                entry[0] += summary["count"]
                entry[1] += summary["sum"]
            decisions.append(decision_sequence(controller))
            violations += audit.violations
            reports += audit.reports
            batch_work += sum(app.work_done for app in built.batch_apps)
        outcome.settle(pace)
        outcome.host_ticks = self.ticks * len(self.lives)
        outcome.attempted = outcome.host_ticks
        outcome.failed += counts["core.firewall_catches"]
        outcome.sim = {
            "decision_digest": digest(decisions),
            "violations": violations,
            "qos_reports": reports,
            "batch_work": batch_work,
            **counts,
        }
        return outcome


def build_host_steady(seed: int, scale: float) -> Episode:
    return HostEpisode((STEADY_APPS,), scaled(STEADY_TICKS, scale), seed)


def build_host_coldstart(seed: int, scale: float) -> Episode:
    return HostEpisode(COLD_PAIRS, scaled(COLD_TICKS, scale), seed)


# ---------------------------------------------------------------------------
# fleet_chaos: the coordinator arm of the fleet drill
# ---------------------------------------------------------------------------

class RoundTimer:
    """Cluster middleware timing the coordinator round it wraps."""

    def __init__(self, inner, rounds_s: List[float]) -> None:
        self.inner = inner
        self.rounds_s = rounds_s

    def on_cluster_tick(self, snapshots, cluster) -> None:
        begun = time.perf_counter()
        self.inner.on_cluster_tick(snapshots, cluster)
        self.rounds_s.append(time.perf_counter() - begun)


class FleetEpisode(Episode):
    """``run_fleet_drill``'s coordinator arm, stepped by the benchmark."""

    def __init__(self, seed: int, scale: float) -> None:
        ticks = scaled(FLEET_TICKS, scale, floor=20)
        self.mix = FleetMix(
            hosts=scaled(FLEET_HOSTS, scale, floor=4),
            ticks=ticks,
            drain_ticks=max(40, ticks // 4),
            seed=seed,
            host_crash=0.0025,
            recovery_ticks=30,
            max_down_fraction=0.3,
            blackout=0.01,
        )
        self.periods_s: List[float] = []
        self.rounds_s: List[float] = []
        config = StayAwayConfig(seed=seed)
        self.cluster, sensitive = build_fleet(self.mix)
        self.batch_apps = [
            container.app
            for host in self.cluster.hosts.values()
            for container in host.batch_containers()
        ]
        self.audit = FleetQosAudit(sensitive)
        self.cluster.add_middleware(self.audit)
        self.coordinator = FleetCoordinator(
            sensitive,
            config=config,
            migrate=True,
            controller_factory=lambda host, app: self._timed(StayAway(app, config=config)),
        )
        self.guard = ClusterCrashGuard(
            TelemetryBlackout(
                RoundTimer(self.coordinator, self.rounds_s),
                seed=seed + 11,
                probability=self.mix.blackout,
            )
        )
        self.cluster.add_middleware(self.guard)
        self.crashes = HostCrashInjector(
            seed=seed + 23,
            probability=self.mix.host_crash,
            recovery_ticks=self.mix.recovery_ticks,
            max_down_fraction=self.mix.max_down_fraction,
        )
        self.cluster.add_middleware(self.crashes)

    def _timed(self, controller: StayAway) -> StayAway:
        """Time each cell's control period without touching the cell."""
        inner = controller.on_tick
        periods_s = self.periods_s
        clock = time.perf_counter

        def on_tick(snapshot, host) -> None:
            begun = clock()
            inner(snapshot, host)
            periods_s.append(clock() - begun)

        controller.on_tick = on_tick
        return controller

    def run(self, tracer: Tracer) -> Outcome:
        outcome = Outcome(periods_s=self.periods_s, rounds_s=self.rounds_s)
        cluster = self.cluster
        pace = outcome.pace(every=1)
        for tick in range(self.mix.ticks + self.mix.drain_ticks):
            if tick == self.mix.ticks:
                self.crashes.probability = 0.0  # drain: let migrations settle
            with tracer.span(ROOT, "fleet", tick):
                outcome.host_ticks += len(cluster.step())
            pace.tick()
        outcome.settle(pace)

        cells = self.coordinator.cells
        counts: Dict[str, int] = {}
        for cell in cells.values():
            add_counts(counts, controller_counts(cell.controller))
        migrations = self.coordinator.supervisor.summary()
        cell_crashes = sum(cell.crashes for cell in cells.values())
        counts.update(
            {
                "fleet.migrations_committed": migrations["committed"],
                "fleet.migrations_retried": migrations["retries"],
                "fleet.migrations_lost": migrations["lost"],
                "fleet.fallback_ticks": sum(c.fallback_ticks for c in cells.values()),
                "fleet.cell_crashes": cell_crashes,
            }
        )
        in_flight = sum(
            1 for record in cluster.migrations if record.outcome == MIGRATION_IN_FLIGHT
        )
        if self.guard.crashed_at is not None:
            outcome.errors.append(
                f"coordinator crashed at tick {self.guard.crashed_at}: {self.guard.error!r}"
            )
        if in_flight:
            outcome.errors.append(f"{in_flight} migration records still in-flight")
        # A cell whose controller raised never reached the period timer.
        outcome.attempted = len(self.periods_s) + cell_crashes
        outcome.failed = cell_crashes + counts["core.firewall_catches"]
        outcome.sim = {
            "decision_digest": digest(
                {
                    "decisions": {
                        name: decision_sequence(cell.controller)
                        for name, cell in sorted(cells.items())
                    },
                    "migrations": [
                        [r.container, r.source, r.destination, r.start_tick, r.outcome]
                        for r in cluster.migrations
                    ],
                }
            ),
            "violations": self.audit.violations,
            "qos_reports": self.audit.reports,
            "batch_work": sum(app.work_done for app in self.batch_apps),
            "host_crashes": self.crashes.summary()["crashes"],
            **counts,
        }
        return outcome


# ---------------------------------------------------------------------------
# stream_replay / stream_chaos: the controller behind the service seam
# ---------------------------------------------------------------------------

def over_the_wire(records: List[dict]) -> List[dict]:
    """What a process boundary does to a batch: encode, then decode."""
    return json.loads(json.dumps(records))


class StampingActuator(Actuator):
    """Stamps each ack with the host tick it came back at.

    ``now`` is the newest tick the host has published; the command's
    ``issued_tick`` is the sample tick that caused it, so the difference
    is sample-arrival to acknowledged-action latency in ticks.
    """

    name = "stamping"

    def __init__(self, inner: Actuator) -> None:
        self.inner = inner
        self.now = 0
        self.ack_ticks: List[int] = []

    def deliver(self, command, tick: int) -> Optional[bool]:
        acked = self.inner.deliver(command, tick)
        if acked is True:
            self.ack_ticks.append(self.now - command.issued_tick)
        return acked


class CountingSource:
    """Counts the records the service polls off the end of the chain."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.records = 0

    def poll(self) -> List[dict]:
        batch = self.inner.poll()
        self.records += len(batch)
        return batch

    def reconnect(self) -> None:
        self.inner.reconnect()

    @property
    def exhausted(self) -> bool:
        return self.inner.exhausted


class StreamEpisode(Episode):
    """Shared pump loop: publish one tick, run one service cycle."""

    name = "host0"

    def __init__(self, seed: int, actuator: Actuator, source, queue: QueueSource) -> None:
        self.queue = queue
        self.source = CountingSource(source)
        self.actuator = StampingActuator(actuator)
        self.service = ControllerService(
            self.source, actuator=self.actuator, config=StayAwayConfig(seed=seed)
        )
        self.service.start()
        self._dead_seen = 0

    def publish(self, tracer: Tracer, tick: int, records: List[dict], outcome: Outcome) -> None:
        """Push one tick's records through the wire and pump once."""
        with tracer.span("service.encode"):
            batch = over_the_wire(records)
        self.actuator.now = tick
        self.queue.push(batch)
        self.cycle(outcome, self.service.pump, f"pump at tick {tick}")

    def cycle(self, outcome: Outcome, step: Callable[[], int], where: str) -> None:
        """One timed ``pump()`` or ``drain()``; a period if it stepped a tick."""
        begun = time.perf_counter()
        try:
            stepped = step()
        except Exception:  # counted and reported, see Outcome.raised
            outcome.raised(where)
            return
        if stepped:
            outcome.periods_s.append(time.perf_counter() - begun)
            outcome.host_ticks += stepped
        self._stamp_dead_letters()

    def _stamp_dead_letters(self) -> None:
        dead = self.service.tracker.dead_letters
        for command in dead[self._dead_seen:]:
            self.actuator.ack_ticks.append(self.actuator.now - command.issued_tick)
        self._dead_seen = len(dead)

    def finish(self, tracer: Tracer, outcome: Outcome, final_tick: int) -> None:
        """Close the transport, flush what the chain still holds, drain."""
        with tracer.span(ROOT, self.name, final_tick):
            self.queue.close()
            cycles = 0
            while not self.source.exhausted and cycles < FLUSH_CYCLE_CAP:
                self.cycle(outcome, self.service.pump, "flush")
                cycles += 1
            self.cycle(outcome, self.service.drain, "drain")

    def close_out(self, outcome: Outcome, extra: Dict[str, object]) -> Outcome:
        controller = self.service.controller
        counts = controller_counts(controller)
        counts.update(service_counts(self.service, self.source.records))
        pending = len(self.service.tracker.pending())
        if pending:
            outcome.errors.append(f"{pending} actuator commands still pending")
        outcome.ack_ticks = self.actuator.ack_ticks
        # Only pumps that raised have been counted as failed so far.
        outcome.attempted = len(outcome.periods_s) + outcome.failed
        outcome.failed += counts["core.firewall_catches"]
        outcome.sim = {
            "decision_digest": digest(self.service.decision_sequence()),
            "ack_ticks_digest": digest(self.actuator.ack_ticks),
            **extra,
            **counts,
        }
        return outcome


class ReplayEpisode(StreamEpisode):
    """Replay a recorded in-process run through the service.

    Building it *is* the recording: the reference run executes during
    set-up, so ``setup_s`` carries it.
    """

    def __init__(self, seed: int, scale: float) -> None:
        queue = QueueSource()
        super().__init__(seed, RecordingActuator(), queue, queue)
        ticks = scaled(REPLAY_TICKS, scale)
        built = scenario(*STEADY_APPS, ticks, seed).build()
        reference = StayAway(built.sensitive_app, config=StayAwayConfig(seed=seed))
        recorder = StreamRecorder(sensitive_app=built.sensitive_app)
        for _ in range(ticks):
            snapshot = built.host.step()
            recorder.on_tick(snapshot, built.host)
            reference.on_tick(snapshot, built.host)
        self.reference = decision_sequence(reference)
        self.groups: List[Tuple[int, List[dict]]] = []
        for record in recorder.records:
            tick = record.get("tick", 0)
            if not self.groups or self.groups[-1][0] != tick:
                self.groups.append((tick, []))
            self.groups[-1][1].append(record)

    def run(self, tracer: Tracer) -> Outcome:
        outcome = Outcome()
        pace = outcome.pace()
        for tick, records in self.groups:
            with tracer.span(ROOT, self.name, tick):
                self.publish(tracer, tick, records, outcome)
            pace.tick()
        self.finish(tracer, outcome, self.groups[-1][0])
        outcome.settle(pace)

        self.close_out(outcome, {})
        replayed = self.service.decision_sequence()
        diverged = sum(1 for a, b in zip(self.reference, replayed) if a != b) + abs(
            len(self.reference) - len(replayed)
        )
        if diverged:
            outcome.errors.append(
                f"{diverged} of {len(self.reference)} decisions diverge from the "
                "in-process reference"
            )
        outcome.failed += diverged
        unclean = {
            name: outcome.sim[name]
            for name in (
                "service.records_dropped",
                "service.records_duplicated",
                "service.records_late",
                "service.cells_imputed",
            )
            if outcome.sim[name]
        }
        if unclean:
            outcome.errors.append(f"lossless replay counted {unclean}")
        return outcome


class ChaosEpisode(StreamEpisode):
    """Live host behind a dropping, reordering, duplicating transport."""

    def __init__(self, seed: int, scale: float) -> None:
        self.ticks = scaled(CHAOS_TICKS, scale)
        self.built = scenario(*STEADY_APPS, self.ticks, seed).build()
        queue = QueueSource()
        source = StreamDropper(queue, seed=seed + 11, probability=0.05)
        source = StreamReorderer(source, seed=seed + 13, probability=0.1, max_delay=3)
        source = StreamDuplicator(source, seed=seed + 17, probability=0.1)
        actuator = SimHostActuator(
            self.built.host,
            ack_filter=ActuatorAckDropper(seed=seed + 19, probability=0.3),
        )
        super().__init__(seed, actuator, source, queue)

    def run(self, tracer: Tracer) -> Outcome:
        outcome = Outcome()
        host = self.built.host
        app = self.built.sensitive_app
        audit = QosAudit(app)
        pace = outcome.pace()
        for tick in range(self.ticks):
            with tracer.span(ROOT, self.name, tick):
                snapshot = host.step()
                audit.observe()
                with tracer.span("service.encode"):
                    records = [header_record(host, self.name)] if tick == 0 else []
                    records.extend(snapshot_records(snapshot, host, self.name))
                    report = qos_record(snapshot.tick, app, self.name)
                    if report is not None:
                        records.append(report)
                self.publish(tracer, tick, records, outcome)
            pace.tick()
        self.finish(tracer, outcome, self.ticks - 1)
        outcome.settle(pace)
        return self.close_out(
            outcome,
            {
                "violations": audit.violations,
                "qos_reports": audit.reports,
                "batch_work": sum(a.work_done for a in self.built.batch_apps),
            },
        )


BUILDERS: Dict[str, Callable[[int, float], Episode]] = {
    "host_steady": build_host_steady,
    "host_coldstart": build_host_coldstart,
    "fleet_chaos": FleetEpisode,
    "stream_replay": ReplayEpisode,
    "stream_chaos": ChaosEpisode,
}


def timed_build(name: str, seed: int, index: int, scale: float) -> Tuple[Episode, float, float]:
    """Build episode ``index`` of a workload; returns it with its set-up
    time, raw and at the gauge's reference speed."""
    gc.collect()
    return gauged(lambda: BUILDERS[name](episode_seed(seed, index), scale))
