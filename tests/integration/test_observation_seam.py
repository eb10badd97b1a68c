"""The controller's port, from both sides.

A period reads one :class:`~repro.observation.Observation` and writes
pause / resume. These tests pin the three properties the seam rests on:
the stream's fold of a recorded tick *is* the in-process observation of
that tick (which is why ``stream_replay`` equals its reference), a
container with a command in flight reads what the command intends, and
lifecycle state is read live, the same tick something else changed it.
The same port faults, put on either side, give the same decisions.
"""

import json
import math
from types import SimpleNamespace

import pytest

from repro.core.action import ThrottleManager
from repro.core.config import StayAwayConfig
from repro.core.controller import StayAway
from repro.core.events import EventKind, EventLog
from repro.core.priorities import PrioritizedStayAway
from repro.experiments.scenarios import Scenario
from repro.monitoring.guard import STALENESS_BUDGET
from repro.observation import PAUSED, RUNNING, ContainerRow
from repro.service import ControllerService, QueueSource
from repro.service.actuator import AckTracker, Actuator
from repro.service.assembler import RETIRE_AFTER, ClosedTick, StreamAssembler
from repro.service.controller_service import decision_sequence
from repro.service.recording import StreamRecorder
from repro.service.views import HostView
from repro.sim.cluster import Cluster
from repro.sim.container import Container, ContainerState
from repro.sim.engine import SimulationEngine
from repro.sim.faults import ContainerFlapper, FaultyPort
from repro.sim.host import Host
from repro.sim.resources import ResourceVector

from tests.conftest import ConstantApp, SensitiveStub, observed

TABLE1_PAIRS = [
    ("vlc-streaming", ("cpubomb",)),
    ("webservice-mix", ("twitter-analysis",)),
    ("webservice-cpu", ("twitter-analysis", "soplex")),
]

#: Tick at which the migration case moves its first batch container off
#: the recorded host.
MIGRATE_AT = 150

FOLD_CASES = [
    pytest.param(sensitive, batches, None, id=f"{sensitive}-batches{index}")
    for index, (sensitive, batches) in enumerate(TABLE1_PAIRS)
] + [pytest.param("vlc-streaming", ("cpubomb", "soplex"), MIGRATE_AT, id="batch-migrates-off")]


#: Ticks every fold case records.
FOLD_TICKS = 240


def record_fold_case(sensitive, batches, migrate_at):
    """One in-process run of ``FOLD_TICKS`` ticks, recorded.

    Returns the wire records, what the controller read each tick, the
    controller, the sensitive app and the name of the batch container
    that migrates to a second host at ``migrate_at`` (None: none does).
    """
    built = Scenario(sensitive, batches, ticks=FOLD_TICKS, seed=5).build()
    host, app = built.host, built.sensitive_app
    cluster = Cluster(hosts={"host0": host, "host1": Host()})
    departed = built.batch_apps[0].name
    controller = StayAway(app, config=StayAwayConfig(seed=5, telemetry=False))
    recorder = StreamRecorder(sensitive_app=app)
    live = []
    for tick in range(FOLD_TICKS):
        if tick == migrate_at:
            cluster.migrate(departed, "host1")
        snapshot = cluster.step()["host0"]
        recorder.on_tick(snapshot, host)
        live.append(host.observe(snapshot))  # what the controller is about to read
        controller.on_tick(snapshot, host)
    records = json.loads(json.dumps(recorder.records))  # over the wire
    return records, live, controller, app, departed


@pytest.mark.parametrize("sensitive,batches,migrate_at", FOLD_CASES)
def test_stream_fold_equals_in_process_observation(sensitive, batches, migrate_at):
    """Row for row, every tick. A container that migrates off the
    recorded host reads all-NaN (the controller's guard bridges it)
    until its cells' ``RETIRE_AFTER``-th missed close retires it; from
    that close on it is gone from both sides."""
    records, live, controller, app, departed = record_fold_case(sensitive, batches, migrate_at)
    assert controller.throttle.throttle_count > 0  # paused rows are in the run

    assembler = StreamAssembler(watermark=0)
    for record in records:
        assembler.offer(record)
    closed = assembler.due(force=True)
    assert len(closed) == FOLD_TICKS
    token = object()
    view = HostView(assembler.header, token, submit=None)
    for tick, expected in zip(closed, live):
        folded = view.apply(tick, pinned={})
        assert (folded.tick, folded.capacity) == (expected.tick, expected.capacity)
        rows = {row.name: row for row in folded.rows}
        if migrate_at is not None and tick.tick - migrate_at in range(RETIRE_AFTER - 1):
            gone = rows.pop(departed)  # missing, not yet retired
            assert all(math.isnan(value) for value in gone.usage)
        assert sorted(rows) == sorted(row.name for row in expected.rows)
        for want in expected.rows:
            got = rows[want.name]
            assert got.usage == want.usage  # floats, bit for bit
            assert got[2:5] == want[2:5]  # state, finished, sensitive
            assert (got.app is token) == (want.app is app)


def test_departure_fits_the_guards_budget():
    """A departed container's cells read NaN for ``RETIRE_AFTER - 1``
    closes before they retire; the guard must bridge every one."""
    assert RETIRE_AFTER - 1 <= STALENESS_BUDGET


def test_departed_container_is_bridged_until_it_retires():
    """The migration recording, served: the closes between the departure
    and the retirement carry NaN, the guard holds the last good vector
    through every one, and no period goes without a usable measurement."""
    records = record_fold_case("vlc-streaming", ("cpubomb", "soplex"), MIGRATE_AT)[0]
    source = QueueSource()
    source.push(records)
    source.close()
    service = ControllerService(
        source, config=StayAwayConfig(seed=5, telemetry=False, stream_watermark=0)
    )
    service.run()
    controller = service.controller
    bridged = range(MIGRATE_AT, MIGRATE_AT + RETIRE_AFTER - 1)
    rejects = controller.events.of_kind(EventKind.SENSOR_REJECT)
    assert [event.tick for event in rejects] == list(bridged)
    assert all(event.detail["imputed"] for event in rejects)
    summary = service.summary()
    assert summary["telemetry"]["monitoring_gaps"] == 0
    assert summary["periods"] == FOLD_TICKS
    census = summary["telemetry"]["stream"]
    assert census["imputed"] == controller.guard.imputed_count == len(bridged)
    assert census["dropped"] == len(bridged) * 5  # every cell of the departed row
    assert census["cells_retired"] == 5


PORT_FAULTS = {"sensor_corruption": 0.05, "signal_loss": 0.2}


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_port_faults_decide_the_same_in_process_and_over_the_stream(seed):
    """A recorded in-process run under :class:`FaultyPort` (the recorder
    ahead of the port, so the stream carries the host's truth), replayed
    through a service whose controller is driven through a
    ``FaultyPort`` with the same seed: the same ticks corrupt the same
    cells, the same signals are lost, the same decisions follow."""
    ticks = 600
    config = StayAwayConfig(seed=seed, telemetry=False)
    built = Scenario("vlc-streaming", ("cpubomb",), ticks=ticks, seed=seed).build()
    controller = StayAway(built.sensitive_app, config=config)
    recorder = StreamRecorder(sensitive_app=built.sensitive_app)
    live = FaultyPort(controller, seed=seed, **PORT_FAULTS)
    SimulationEngine(built.host, [recorder, live]).run(ticks=ticks)

    source = QueueSource()
    source.push(recorder.records)
    source.close()
    service = ControllerService(source, config=config)
    served = service.controller
    replayed = FaultyPort(SimpleNamespace(on_tick=served.on_tick), seed=seed, **PORT_FAULTS)
    served.on_tick = replayed.on_tick  # the service drives its controller through the port
    service.run()

    assert live.corruptions and live.lost_signals
    assert replayed.corruptions == live.corruptions
    assert replayed.lost_signals == live.lost_signals
    assert service.decision_sequence() == decision_sequence(controller)


HEADER = {
    "kind": "header",
    "host": "host0",
    "capacity": {
        "cpu": 4.0, "memory": 8192.0, "memory_bw": 1e4, "disk_io": 150.0, "network": 1e3,
    },
    "containers": {"bomb": "batch", "sens": "sensitive"},
    "sensitive": "sens",
}


def closed_tick(tick, bomb_state):
    """What the stream says at ``tick``: ``bomb`` is in ``bomb_state``."""
    return ClosedTick(
        tick=tick,
        rows=(
            ContainerRow("bomb", (2.0, 0.0, 0.0, 0.0, 0.0), bomb_state, False, False),
            ContainerRow("sens", (1.0, 0.0, 0.0, 0.0, 0.0), RUNNING, False, True),
        ),
    )


class SwitchedActuator(Actuator):
    """Acks only while ``acking`` is set."""

    def __init__(self):
        self.acking = False

    def deliver(self, command, tick):
        return True if self.acking else None


class StreamPort:
    """A HostView over an AckTracker, ticked by hand."""

    def __init__(self):
        self.actuator = SwitchedActuator()
        self.tracker = AckTracker(self.actuator)
        self.tick = 0
        self.view = HostView(
            HEADER, object(), submit=lambda verb, name: self.tracker.submit(self.tick, verb, name)
        )

    def read(self, bomb_state):
        """Close one tick saying ``bomb_state``; return bomb's row state."""
        self.tick += 1
        self.tracker.step(self.tick)
        observation = self.view.apply(
            closed_tick(self.tick, bomb_state), pinned=self.tracker.pending_containers()
        )
        return observation, observation.states()["bomb"]


class TestInFlightCommands:
    def test_pending_verb_wins_until_the_command_resolves(self):
        port = StreamPort()
        assert port.read("running")[1] == RUNNING
        assert port.view.pause("bomb") is True
        assert port.read("running")[1] == PAUSED  # whatever the stream says
        assert port.view.resume("bomb") is True  # supersedes the unacked pause
        assert port.read("paused")[1] == RUNNING
        port.actuator.acking = True
        while port.tracker.pending():
            port.read("paused")
        assert port.read("paused")[1] == PAUSED  # acked: the stream is believed again
        assert port.read("running")[1] == RUNNING

    def test_dead_letter_hands_the_container_back_to_reconcile(self):
        port = StreamPort()
        manager = ThrottleManager(StayAwayConfig(), EventLog())
        observation, _ = port.read("running")
        assert manager.step(port.tick, observation, port.view, True, False, None)
        assert manager.desired_paused == ["bomb"]
        while port.tracker.pending():  # never acked: retried, then dead-lettered
            observation, state = port.read("running")
            if port.tracker.pending():
                assert state == PAUSED
                manager.reconcile(port.tick, observation, port.view)
        assert len(port.tracker.dead_letters) == 1
        assert manager.reconcile_repauses == 0
        assert state == RUNNING  # the stream's word is back
        repaired = manager.reconcile(port.tick, observation, port.view)
        assert manager.reconcile_repauses == 1
        assert [c.verb for c in port.tracker.dead_letters] == ["pause"]
        assert port.tracker.summary()["submitted"] == 2
        assert port.tracker.pending_containers() == {"bomb": "pause"}
        assert repaired.states()["bomb"] == PAUSED  # carried by value


class TestSameTickVisibility:
    def test_flapper_ahead_of_the_controller_is_repaired_that_tick(self):
        host = Host()  # uncontended: the only throttle is the one forced below
        sens = SensitiveStub(name="sens", demand_vector=ResourceVector(cpu=1.0))
        bomb = ConstantApp(name="bomb", demand_vector=ResourceVector(cpu=1.0))
        host.add_container(Container(name="sens", app=sens, sensitive=True))
        host.add_container(Container(name="bomb", app=bomb))
        controller = StayAway(sens, config=StayAwayConfig(seed=1, telemetry=False))
        flapper = ContainerFlapper(["bomb"], flap_probability=0.0)
        engine = SimulationEngine(host, [flapper, controller])
        engine.run(ticks=3)
        assert controller.throttle.step(3, observed(host), host, True, False, None)
        assert host.container("bomb").is_paused

        flapper.flap_probability = 1.0  # an operator SIGCONTs it next tick
        (snapshot,) = engine.run(ticks=1).snapshots
        (fired,) = flapper.fired
        assert fired.kind == "resume"
        # The snapshot of that tick still says paused; the repair needs
        # the state as it is when the controller runs.
        assert snapshot.tick == fired.tick
        assert snapshot.states["bomb"] is ContainerState.PAUSED
        (repair,) = controller.events.of_kind(EventKind.RECONCILE)
        assert (repair.tick, repair.detail["action"]) == (fired.tick, "repause")

    def test_high_priority_throttle_hides_victims_from_lower_priority(self):
        host = Host()
        high = SensitiveStub(name="stream", demand_vector=ResourceVector(cpu=2.0, memory=400.0))
        low = SensitiveStub(name="webapp", demand_vector=ResourceVector(cpu=1.5, memory=400.0))
        bomb = ConstantApp(name="bomb", demand_vector=ResourceVector(cpu=3.0))
        host.add_container(Container(name="stream", app=high, sensitive=True))
        host.add_container(Container(name="webapp", app=low, sensitive=True))
        host.add_container(Container(name="bomb", app=bomb, start_tick=5))
        coordinator = PrioritizedStayAway(
            [(high, 2), (low, 1)], config=StayAwayConfig(seed=3, telemetry=False)
        )
        low_throttle = coordinator.controller_for("webapp").throttle
        select = low_throttle.throttle_targets
        seen = {}

        def spy(observation):
            targets = select(observation)
            seen.setdefault(observation.tick, targets)
            return targets

        low_throttle.throttle_targets = spy
        snapshots = SimulationEngine(host, [coordinator]).run(ticks=80).snapshots
        throttle = coordinator.controller_for("stream").events.of_kind(EventKind.THROTTLE)[0]
        assert "bomb" in throttle.detail["targets"]
        assert snapshots[throttle.tick].states["bomb"] is ContainerState.RUNNING
        assert "bomb" not in seen[throttle.tick]
