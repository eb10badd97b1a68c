"""Pinned digests: the fleet and stream control loops, and the simulator.

The fleet coordinator, the migration supervisor, the stream service's
reconnect loop and the actuator's ack tracker run on module constants
and constructor defaults rather than config knobs. These two drills pin
what those values *do*: the sha256 of every pause/resume decision and
every migration record (fleet), and of the decision sequence plus the
dead-letter, redelivery and reconnect counts (stream), recorded from
the commit that still read the values from ``StayAwayConfig``. A
mistyped constant changes a digest here instead of surfacing in a bench
— the fleet and stream counterpart of
``TestPredictPathAgainstScalarWindow``.

Both drills are seeded end to end; the digests are platform-stable for
the same reason the replay-determinism gate is.

``SIM_DIGEST`` pins ``repro.sim`` itself: before it, a change to the
simulator's arithmetic showed only if it happened to move a decision.
It was computed on the commit before PR 22 made the tick float-native
(b694459), and that change had to pass it unmodified.

``DRILL_DIGEST`` pins the four drill families' reports — what every
``BENCH_*`` drill record is built from — at sizes small enough for the
suite.
"""

import hashlib
import json
import os

from repro.core.config import StayAwayConfig
from repro.experiments.chaos import (
    ChaosMix,
    ContainmentMix,
    FleetMix,
    build_fleet,
    run_chaos_comparison,
    run_fleet_comparison,
    run_fleet_drill,
    run_recovery_comparison,
)
from repro.experiments.scenarios import Scenario
from repro.experiments.stream_chaos import (
    SimStreamBridge,
    StreamChaosMix,
    check_replay_determinism,
    run_stream_comparison,
)
from repro.service import ControllerService, QueueSource, SimHostActuator
from repro.service.controller_service import decision_sequence
from repro.sim.container import Container
from repro.sim.contention import ProportionalShareModel, WeightedWaterFillModel
from repro.sim.engine import SimulationEngine
from repro.sim.faults import (
    ActuatorAckDropper,
    StreamDropper,
    StreamDuplicator,
    StreamReorderer,
)
from repro.sim.host import Host
from repro.sim.resources import ResourceVector
from repro.workloads.registry import make_workload
from repro.workloads.traces import wikipedia_trace

FLEET_DIGEST = "8093257b9ef7cd8b76a3e613f9d04a9a00a17af5cd2642dfc8344afdb4184578"
STREAM_DIGEST = "422ba835739e824010ebdfb1cecf40925a748322489c1afe7b4d85287ebdaafc"


def _sha256(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


def test_fleet_drill_digest():
    """16 hosts, coordinator arm, host crashes + telemetry blackouts.

    The crash rate is high enough that a destination dies between a
    migration's request and its start, so the supervisor's retry,
    backoff and rollback paths run (asserted below) next to the
    coordinator's hot/cold thresholds, placement period, pair cooldown
    and concurrency cap.
    """
    seed = 6
    mix = FleetMix(
        hosts=16,
        ticks=200,
        drain_ticks=60,
        seed=seed,
        host_crash=0.04,
        recovery_ticks=25,
        max_down_fraction=0.4,
        blackout=0.02,
    )
    drill = run_fleet_drill(
        mix, arm="coordinator", config=StayAwayConfig(seed=seed, telemetry=False)
    )
    assert drill.crashed_at is None
    migrations = drill.coordinator.supervisor.summary()
    assert migrations["committed"] > 0
    assert migrations["retries"] > 0
    assert migrations["rolled_back"] > 0

    payload = {
        "decisions": {
            name: decision_sequence(cell.controller)
            for name, cell in drill.coordinator.cells.items()
        },
        "migrations": [
            [
                record.container,
                record.source,
                record.destination,
                record.start_tick,
                record.downtime_ticks,
                record.outcome,
                record.completed_tick,
            ]
            for record in drill.cluster.migrations
        ],
    }
    assert _sha256(payload) == FLEET_DIGEST


class _SourceOutage:
    """Make the queue's next ``polls`` polls raise, starting at one tick."""

    def __init__(self, queue: QueueSource, at_tick: int, polls: int) -> None:
        self.queue = queue
        self.at_tick = at_tick
        self.polls = polls

    def on_tick(self, snapshot, host) -> None:
        if snapshot.tick == self.at_tick:
            self.queue.fail_polls = self.polls


def test_stream_drill_digest():
    """Live host behind drop / reorder / duplicate / lost-ack faults.

    One source outage of six consecutive failed polls walks the
    reconnect backoff from its base through the doubling to the cap
    (1, 2, 4, 8, 16, 16 cycles, each jittered), and 70 % lost acks push
    commands through redelivery into the dead-letter queue.
    """
    seed = 6
    ticks = 400
    built = Scenario(ticks=ticks, seed=seed).build(include_batch=True)
    queue = QueueSource()
    source = StreamDropper(queue, seed=seed + 11, probability=0.05)
    source = StreamReorderer(source, seed=seed + 13, probability=0.1, max_delay=3)
    source = StreamDuplicator(source, seed=seed + 17, probability=0.1)
    actuator = SimHostActuator(
        built.host,
        ack_filter=ActuatorAckDropper(seed=seed + 19, probability=0.7),
    )
    service = ControllerService(
        source,
        actuator=actuator,
        config=StayAwayConfig(seed=seed, telemetry=False),
    )
    service.start()

    engine = SimulationEngine(built.host)
    engine.add_middleware(_SourceOutage(queue, at_tick=100, polls=6))
    engine.add_middleware(
        SimStreamBridge(service, queue, sensitive_app=built.sensitive_app)
    )
    engine.run(ticks=ticks)
    queue.close()
    service.run(max_cycles=256)

    census = service.summary()["telemetry"]["stream"]
    assert census["reconnects"] == 6
    assert census["actuator"]["retries"] > 0
    assert len(service.tracker.dead_letters) > 0
    assert service.tracker.pending() == []

    payload = {
        "decisions": service.decision_sequence(),
        "dead_letters": len(service.tracker.dead_letters),
        "redeliveries": census["actuator"]["retries"],
        "reconnects": census["reconnects"],
    }
    assert _sha256(payload) == STREAM_DIGEST


SIM_DIGEST = "d9bf6d3838eb86cb83593a19f459e8bdb4c4e8197e67bb2fbea0ff184fb743d7"


def _fold_floats(digest, *values) -> None:
    for value in values:
        digest.update(float(value).hex().encode("ascii"))


def _fold_snapshot(digest, snapshot) -> None:
    """Every float a tick produced, as ``float.hex()``, in insertion order."""
    for name, usage in snapshot.usage.items():
        digest.update(name.encode("utf-8"))
        _fold_floats(
            digest, usage.cpu, usage.memory, usage.memory_bw, usage.disk_io, usage.network
        )
    for name, allocation in snapshot.allocations.items():
        digest.update(name.encode("utf-8"))
        _fold_floats(digest, allocation.progress, allocation.swap_penalty)
    _fold_floats(digest, snapshot.swap_ratio)


def _sim_host(seed: int, weighted: bool) -> Host:
    """One three-tenant host: a traced server and two staggered batch jobs."""
    trace = wikipedia_trace(days=2, sample_seconds=12.5, base=0.05, seed=seed + 7)
    if weighted:
        # Unequal cgroup shares and one binding cpu / memory-bus cap under
        # water-filling, on a box small enough that twitter-analysis's
        # memory phase swaps and the swap traffic eats into the disk.
        host = Host(
            capacity=ResourceVector(
                cpu=3.0, memory=4096.0, memory_bw=3000.0, disk_io=40.0, network=1000.0
            ),
            contention=WeightedWaterFillModel(),
        )
        tenants = [
            ("vlc-streaming", dict(weight=4.0), 0),
            ("soplex", dict(weight=0.7, limits=ResourceVector(
                cpu=0.8, memory=8192.0, memory_bw=650.0, disk_io=150.0, network=1000.0
            )), 5),
            ("twitter-analysis", dict(weight=1.9), 20),
        ]
    else:
        # 3500 + 6000 + 64 MB of demand against 8192: swap pressure is reached.
        host = Host(contention=ProportionalShareModel())
        tenants = [
            ("webservice-mix", {}, 0),
            ("cpubomb", {}, 10),
            ("memorybomb", {}, 25),
        ]
    for i, (workload, options, start) in enumerate(tenants):
        kwargs = {"trace": trace} if i == 0 else {}
        app = make_workload(workload, seed=seed + 100 * (i + 1), **kwargs)
        host.add_container(
            Container(name=workload, app=app, sensitive=i == 0, start_tick=start, **options)
        )
    return host


def test_simulator_digest():
    """The simulator's own floats, not just the decisions made on them.

    300 ticks of both contention models at two seeds (with a pause
    window, so idle and paused rows are in it) and a 16-host cluster
    with one migration: every usage field, progress, swap penalty and
    swap ratio of every snapshot and every application's final
    ``work_done``, hashed bit for bit.
    """
    digest = hashlib.sha256()
    for seed in (3, 11):
        for weighted in (False, True):
            host = _sim_host(seed, weighted)
            batch = list(host.containers)[1]
            saw_swap = False
            for tick in range(300):
                if tick == 120:
                    host.pause(batch)
                if tick == 150:
                    host.resume(batch)
                snapshot = host.step()
                saw_swap |= snapshot.swap_ratio > 1.0
                _fold_snapshot(digest, snapshot)
            assert saw_swap
            _fold_floats(digest, *(c.app.work_done for c in host.containers.values()))

    cluster, _ = build_fleet(FleetMix(hosts=16, seed=5))
    for tick in range(120):
        if tick == 40:
            record = cluster.migrate("memorybomb-004", "host-007")
        for name, snapshot in cluster.step().items():
            digest.update(name.encode("utf-8"))
            _fold_snapshot(digest, snapshot)
    assert record.outcome == "landed"
    for host in cluster.hosts.values():
        _fold_floats(digest, *(c.app.work_done for c in host.containers.values()))
    assert digest.hexdigest() == SIM_DIGEST


DRILL_DIGEST = "b80e1c8c306f6d3e8d3937d69eee1ca17eff21ef10b32441fe936a90ec9b52e1"


def _file_and_function(trace: str) -> str:
    """``faults.py:541 in faulty`` -> ``faults.py in faulty``.

    The line number moves with every edit of the injector's module; the
    file and function name the fault.
    """
    location, _, function = trace.partition(" in ")
    return f"{os.path.basename(location.rsplit(':', 1)[0])} in {function}"


def test_drill_digest():
    """Every drill family's ``summary()``, at suite sizes.

    Environment chaos (resilience on / off), the recovery drill
    (containment on, the firewall without the watchdog, containment off:
    the uncontained arm dies on an injected stage fault), the three
    fleet arms under host crashes and
    blackouts, the three stream arms under transport faults and the
    replay-determinism check. Telemetry is off: stage timings are wall
    clock, counters are not.
    """
    config = StayAwayConfig(telemetry=False)
    scenario = Scenario(
        sensitive="vlc-streaming", batches=("cpubomb",), ticks=300, seed=1
    )
    chaos = run_chaos_comparison(
        scenario, mix=ChaosMix(seed=2, spike_windows=((120, 150),)), config=config
    ).summary()
    recovery = run_recovery_comparison(
        scenario,
        mix=ContainmentMix(
            seed=7, stage_fault=0.03, fault_windows=((75, 135, "map"),), poison=0.03
        ),
        config=config,
    ).summary()
    fleet = run_fleet_comparison(
        FleetMix(hosts=8, ticks=120, drain_ticks=40, seed=3, host_crash=0.006),
        config=config,
    ).summary()
    stream = run_stream_comparison(
        Scenario(ticks=300, seed=1),
        mix=StreamChaosMix(seed=5, ack_drop=0.3),
        config=config,
    ).summary()
    replay = check_replay_determinism(Scenario(ticks=240, seed=1), config=config)

    assert chaos["resilient"]["faults"]["total"] > 0
    assert chaos["improvement"] > 0
    assert recovery["no-watchdog"]["crashed_at"] is None
    crash = recovery["uncontained"]["crash"]
    assert crash["fault"] is not None
    crash["trace"] = _file_and_function(crash["trace"])
    assert fleet["coordinator"]["migration_records"] > 0
    assert stream["assembled"]["faults_injected"] > 50
    assert replay["match"]

    payload = {
        "chaos": chaos,
        "recovery": recovery,
        "fleet": fleet,
        "stream": stream,
        "replay": replay,
    }
    assert _sha256(payload) == DRILL_DIGEST
