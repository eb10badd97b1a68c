"""Unit tests for acknowledged actuation: AckTracker and backends.

The contract under test: every submitted command ends acked or
dead-lettered (never in limbo after ``drain``), a newer command for
the same container supersedes the older in-flight one, missing acks
redeliver with doubling backoff, and the simulator backend applies
idempotently so redelivered commands are harmless.
"""

import pytest

from repro.service.actuator import (
    MAX_RETRIES,
    AckTracker,
    Actuator,
    ActuatorCommand,
    CommandStatus,
    NullActuator,
    RecordingActuator,
    SimHostActuator,
)
from repro.sim.container import Container
from repro.sim.engine import SimulationEngine
from repro.sim.host import Host

from tests.conftest import ConstantApp


class FlakyActuator(Actuator):
    """Scripted backend: answers ``script`` per attempt, then acks."""

    name = "flaky"

    def __init__(self, script):
        self.script = list(script)
        self.attempts = []

    def deliver(self, command, tick):
        self.attempts.append((tick, command.container, command.attempts))
        if self.script:
            return self.script.pop(0)
        return True


class TestAckTracker:
    def test_validation(self):
        with pytest.raises(ValueError):
            AckTracker(NullActuator()).submit(0, "reboot", "c0")

    def test_instant_ack_resolves_on_submit(self):
        tracker = AckTracker(NullActuator())
        command = tracker.submit(5, "pause", "c0")
        assert command.status is CommandStatus.ACKED
        assert command.resolved_tick == 5
        assert tracker.pending() == []
        assert tracker.summary()["acks"] == 1

    def test_missing_ack_retries_with_backoff(self):
        backend = FlakyActuator([None, None, True])
        tracker = AckTracker(backend)
        command = tracker.submit(0, "pause", "c0")
        assert command.pending
        # attempt 1 at tick 0; next due at 0 + ACK_TIMEOUT + 1*2**0 = 3
        tracker.step(1)
        tracker.step(2)
        assert command.attempts == 1
        tracker.step(3)
        assert command.attempts == 2  # still unacked; due at 3 + 2 + 2 = 7
        tracker.step(6)
        assert command.attempts == 2
        tracker.step(7)
        assert command.status is CommandStatus.ACKED
        assert tracker.summary()["retries"] == 2

    def test_exhausted_retries_dead_letter(self):
        dead = []
        backend = FlakyActuator([False] * 10)
        tracker = AckTracker(
            backend, on_dead_letter=lambda c, t: dead.append((c.container, t))
        )
        command = tracker.submit(0, "pause", "c0")
        for tick in range(1, 20):
            tracker.step(tick)
        assert command.status is CommandStatus.DEAD_LETTERED
        assert command.attempts == 1 + MAX_RETRIES
        assert tracker.dead_letters == [command]
        assert dead and dead[0][0] == "c0"
        assert tracker.summary()["dead_lettered"] == 1
        assert tracker.pending() == []

    def test_newer_command_supersedes_pending_same_container(self):
        backend = FlakyActuator([None, None, None])
        tracker = AckTracker(backend)
        pause = tracker.submit(0, "pause", "c0")
        resume = tracker.submit(1, "resume", "c0")
        assert pause.status is CommandStatus.ACKED  # superseded, not retried
        assert pause.resolved_tick == 1
        assert resume.pending
        assert tracker.pending_containers() == {"c0": "resume"}
        other = tracker.submit(1, "pause", "c1")
        assert other.pending  # different container: untouched
        assert pause not in tracker.dead_letters

    def test_withdrawn_command_is_neither_retried_nor_dead_lettered(self):
        backend = FlakyActuator([None] * 8)
        tracker = AckTracker(backend)
        gone = tracker.submit(0, "pause", "gone")
        tracker.withdraw("gone", 3)
        tracker.withdraw("never-commanded", 3)
        for tick in range(4, 40):
            tracker.step(tick)
        assert (gone.status, gone.resolved_tick, gone.attempts) == (CommandStatus.ACKED, 3, 1)
        assert tracker.pending() == [] and tracker.dead_letters == []

    def test_drain_leaves_nothing_in_limbo(self):
        backend = FlakyActuator([True, None, None, None, None, None])
        tracker = AckTracker(backend)
        acked = tracker.submit(0, "pause", "c0")
        stuck = tracker.submit(0, "pause", "c1")
        tracker.drain(10)
        assert acked.status is CommandStatus.ACKED
        assert stuck.status is CommandStatus.DEAD_LETTERED
        assert tracker.pending() == []
        summary = tracker.summary()
        assert summary["pending"] == 0
        assert summary["submitted"] == 2


class TestBackends:
    def paused_host(self):
        host = Host()
        host.add_container(Container(name="c0", app=ConstantApp()))
        # One engine tick starts the container (CREATED -> RUNNING).
        SimulationEngine(host).run(ticks=1)
        return host

    def test_recording_actuator_logs_and_acks(self):
        backend = RecordingActuator()
        tracker = AckTracker(backend)
        tracker.submit(3, "pause", "c0")
        tracker.submit(4, "resume", "c0")
        assert [(a.tick, a.verb) for a in backend.actions] == [
            (3, "pause"),
            (4, "resume"),
        ]

    def test_sim_actuator_applies_to_host(self):
        host = self.paused_host()
        backend = SimHostActuator(host)
        tracker = AckTracker(backend)
        tracker.submit(0, "pause", "c0")
        assert host.container("c0").is_paused
        tracker.submit(1, "resume", "c0")
        assert host.container("c0").is_running

    def test_sim_actuator_unknown_container_fails_delivery(self):
        backend = SimHostActuator(self.paused_host())
        command = ActuatorCommand(
            command_id=0, verb="pause", container="ghost", issued_tick=0
        )
        assert backend.deliver(command, 0) is False

    def test_sim_actuator_acks_the_ports_answer(self):
        """A resume that cannot take effect is a failed delivery the
        tracker retries, not an ack."""
        host = self.paused_host()
        host.container("c0").stop()
        backend = SimHostActuator(host)
        command = ActuatorCommand(
            command_id=0, verb="resume", container="c0", issued_tick=0
        )
        assert backend.deliver(command, 0) is False

    def test_sim_actuator_redelivery_is_idempotent(self):
        host = self.paused_host()
        drop_first = [True]

        def ack_filter(command, tick):
            if drop_first:
                drop_first.pop()
                return False
            return True

        backend = SimHostActuator(host, ack_filter=ack_filter)
        tracker = AckTracker(backend)
        command = tracker.submit(0, "pause", "c0")
        assert host.container("c0").is_paused  # landed despite lost ack
        assert command.pending
        for tick in range(1, 6):
            tracker.step(tick)
        assert command.status is CommandStatus.ACKED
        # Delivered twice, paused once: the redelivery was a no-op signal.
        assert host.container("c0").is_paused
        assert command.attempts == 2
