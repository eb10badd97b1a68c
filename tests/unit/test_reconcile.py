"""Unit tests for the action reconciliation loop and preemptive pause."""

import pytest

from repro.core.action import ESCALATION_THRESHOLD, RETRY_BACKOFF_CAP, ThrottleManager
from repro.core.config import StayAwayConfig
from repro.core.controller import StayAway
from repro.core.events import EventKind, EventLog
from repro.experiments.scenarios import Scenario
from repro.observation import RUNNING
from repro.sim.container import Container
from repro.sim.engine import SimulationEngine
from repro.sim.faults import FaultyPort
from repro.sim.host import Host
from repro.sim.resources import ResourceVector

from tests.conftest import ConstantApp, SensitiveStub, observed


class _Idle:
    def on_tick(self, snapshot, host):
        pass


def lossy(host):
    """``host`` behind a :class:`FaultyPort` that loses every signal
    until its ``signal_loss`` is lowered."""
    port = FaultyPort(_Idle(), sensor_corruption=0.0, signal_loss=1.0)
    port.on_tick(host.last_snapshot, host)
    return port


def throttled_setup(config=None):
    config = config if config is not None else StayAwayConfig()
    host = Host()
    sensitive = SensitiveStub()
    batch = ConstantApp(name="bomb", demand_vector=ResourceVector(cpu=4.0))
    host.add_container(Container(name="sens", app=sensitive, sensitive=True))
    host.add_container(Container(name="bomb", app=batch))
    host.step()  # containers become schedulable
    events = EventLog()
    manager = ThrottleManager(config, events)
    fired = manager.step(
        tick=10,
        observation=observed(host),
        actuator=host,
        impending_violation=True,
        observed_violation=False,
        sensitive_step_distance=None,
    )
    assert fired and manager.throttling
    assert host.container("bomb").is_paused
    return host, manager, events


class TestReconcileRepause:
    def test_externally_resumed_container_repaused(self):
        host, manager, events = throttled_setup()
        host.container("bomb").resume()  # an operator SIGCONTs it
        manager.reconcile(15, observed(host), host)
        assert host.container("bomb").is_paused
        assert manager.reconcile_repauses == 1
        reconciles = events.of_kind(EventKind.RECONCILE)
        assert len(reconciles) == 1
        assert reconciles[0].detail["action"] == "repause"

    def test_consistent_state_is_a_noop(self):
        host, manager, events = throttled_setup()
        manager.reconcile(15, observed(host), host)
        assert manager.reconcile_repauses == 0
        assert events.of_kind(EventKind.RECONCILE) == []

    def test_disabled_by_config(self):
        host, manager, _ = throttled_setup(
            config=StayAwayConfig(resilience=False)
        )
        host.container("bomb").resume()
        manager.reconcile(15, observed(host), host)
        assert host.container("bomb").is_running
        assert manager.reconcile_repauses == 0


class TestReconcileDrop:
    def test_vanished_container_dropped_from_pause_set(self):
        host, manager, events = throttled_setup()
        host.containers.pop("bomb")
        manager.reconcile(15, observed(host), host)
        assert manager.desired_paused == []
        assert not manager.throttling
        assert manager.reconcile_drops == 1
        assert events.of_kind(EventKind.RECONCILE)[0].detail["action"] == "drop"

    def test_stopped_container_dropped(self):
        host, manager, _ = throttled_setup()
        host.container("bomb").stop()
        manager.reconcile(15, observed(host), host)
        assert manager.desired_paused == []
        assert manager.reconcile_drops == 1


class TestRetryBackoffAndEscalation:
    def test_failed_repause_retries_with_backoff(self):
        host, manager, events = throttled_setup()
        port = lossy(host)
        host.container("bomb").resume()

        manager.reconcile(15, observed(host), port)
        assert manager.failed_actions == 1
        assert manager.pending_retries == {"bomb": 1}
        # Backoff: next retry is 2 periods away; an immediate tick skips.
        failures, next_tick = manager._retry["bomb"]
        assert next_tick == 15 + 2
        manager.reconcile(next_tick - 1, observed(host), port)
        assert manager.failed_actions == 1  # still waiting

        waits = []
        while manager.escalations == 0:
            manager.reconcile(next_tick, observed(host), port)
            _, later = manager._retry["bomb"]
            waits.append(later - next_tick)
            next_tick = later
        assert manager.failed_actions == ESCALATION_THRESHOLD
        escalations = events.of_kind(EventKind.ACTION_ESCALATION)
        assert len(escalations) == 1
        assert escalations[0].detail["target"] == "bomb"

        # Backoff doubles, then is capped.
        while len(waits) < 4:
            manager.reconcile(next_tick, observed(host), port)
            _, later = manager._retry["bomb"]
            waits.append(later - next_tick)
            next_tick = later
        assert waits == [4, 8, 8, 8]
        assert max(waits) == RETRY_BACKOFF_CAP

    def test_recovery_after_actuator_heals(self):
        host, manager, _ = throttled_setup()
        port = lossy(host)
        host.container("bomb").resume()
        manager.reconcile(15, observed(host), port)
        assert manager.failed_actions == 1
        port.signal_loss = 0.0
        _, next_tick = manager._retry["bomb"]
        manager.reconcile(next_tick, observed(host), port)
        assert host.container("bomb").is_paused
        assert manager.pending_retries == {}

    def test_lost_initial_pause_seeds_retry(self):
        """A pause whose signal is dropped registers a pending repair
        immediately, so the bookkeeping never lies between reconciles."""
        config = StayAwayConfig()
        host = Host()
        sensitive = SensitiveStub()
        batch = ConstantApp(name="bomb", demand_vector=ResourceVector(cpu=4.0))
        host.add_container(Container(name="sens", app=sensitive, sensitive=True))
        host.add_container(Container(name="bomb", app=batch))
        host.step()
        port = lossy(host)
        manager = ThrottleManager(config, EventLog())
        manager.step(
            tick=10,
            observation=observed(host),
            actuator=port,
            impending_violation=True,
            observed_violation=False,
            sensitive_step_distance=None,
        )
        assert host.container("bomb").is_running  # signal was lost
        assert "bomb" in manager.pending_retries
        manager.reconcile(15, observed(host), host)
        assert host.container("bomb").is_paused


def resume_through(manager, tick, host, port):
    """One phase-change resume round, signalled through ``port``."""
    manager.step(tick, observed(host), port, False, False, manager.beta + 1.0)
    assert not manager.throttling


class TestLostResume:
    def test_lost_resume_is_resent_next_period(self):
        host, manager, events = throttled_setup()
        port = lossy(host)
        resume_through(manager, 20, host, port)
        assert host.container("bomb").is_paused  # the SIGCONT was lost
        port.signal_loss = 0.0
        repaired = manager.reconcile(21, observed(host), port)
        assert host.container("bomb").is_running
        assert repaired.states()["bomb"] == RUNNING  # carried by value
        (event,) = events.of_kind(EventKind.RECONCILE)
        assert event.detail == {"target": "bomb", "action": "resume", "retries": 0}
        manager.reconcile(22, observed(host), port)  # nothing left to repair
        assert len(events.of_kind(EventKind.RECONCILE)) == 1

    def test_resend_backs_off_and_escalates_like_a_repause(self):
        host, manager, events = throttled_setup()
        port = lossy(host)
        resume_through(manager, 20, host, port)
        tick, waits = 21, []
        while manager.escalations == 0:
            manager.reconcile(tick, observed(host), port)
            failures, later = manager._unresumed["bomb"]
            waits.append(later - tick)
            tick = later
        assert waits == [2, 4, 8]
        assert manager.failed_actions == ESCALATION_THRESHOLD
        assert events.of_kind(EventKind.ACTION_ESCALATION)[0].detail["target"] == "bomb"
        port.signal_loss = 0.0
        manager.reconcile(tick, observed(host), port)
        assert host.container("bomb").is_running

    def test_active_throttle_takes_the_still_paused_container(self):
        host, manager, events = throttled_setup()
        resume_through(manager, 20, host, lossy(host))
        late = ConstantApp(name="late", demand_vector=ResourceVector(cpu=1.0))
        host.add_container(Container(name="late", app=late))
        host.step()
        assert manager.step(22, observed(host), host, True, False, None)
        assert manager.desired_paused == ["late"]
        manager.reconcile(23, observed(host), host)
        assert manager.desired_paused == ["late", "bomb"]
        assert host.container("bomb").is_paused  # not resent under the throttle
        assert events.of_kind(EventKind.RECONCILE) == []

    def test_not_resent_without_resilience(self):
        host, manager, _ = throttled_setup(config=StayAwayConfig(resilience=False))
        port = lossy(host)
        resume_through(manager, 20, host, port)
        port.signal_loss = 0.0
        manager.reconcile(21, observed(host), port)
        assert host.container("bomb").is_paused


class LoseFirstResume:
    """The host's port, losing the first SIGCONT a controller sends."""

    def __init__(self, inner):
        self.inner = inner
        self.lost_at = None
        self._host = None
        self._tick = None

    def on_tick(self, snapshot, host):
        self._host, self._tick = host, snapshot.tick
        self.inner.on_tick(snapshot, self)

    def observe(self, reading):
        return self._host.observe(reading)

    def pause(self, name):
        return self._host.pause(name)

    def resume(self, name):
        if self.lost_at is None:
            self.lost_at = (self._tick, name)
            return False
        return self._host.resume(name)


def test_controller_repairs_a_lost_resume():
    """A lost SIGCONT must not strand the batch container for the rest of
    the run: it runs again within two periods and does work after."""
    built = Scenario("vlc-streaming", ("cpubomb",), ticks=400, seed=1).build(
        include_batch=True
    )
    controller = StayAway(built.sensitive_app, config=StayAwayConfig(seed=1, telemetry=False))
    port = LoseFirstResume(controller)
    states = {}

    class StateLog:
        def on_tick(self, snapshot, host):
            states[snapshot.tick] = {n: c.state for n, c in host.containers.items()}

    engine = SimulationEngine(built.host, [port, StateLog()])
    (bomb,) = built.batch_apps
    while port.lost_at is None and built.host.clock.tick < 400:
        engine.run(ticks=1)
    assert port.lost_at is not None
    lost_tick, name = port.lost_at
    work_at_loss = bomb.work_done
    engine.run(ticks=400 - built.host.clock.tick)
    assert any(
        states[tick][name].value == RUNNING for tick in (lost_tick + 1, lost_tick + 2)
    )
    assert bomb.work_done > work_at_loss


class TestPreemptivePause:
    def test_preemptive_pause_pauses_all_targets(self):
        host = Host()
        sensitive = SensitiveStub()
        batch = ConstantApp(name="bomb", demand_vector=ResourceVector(cpu=4.0))
        host.add_container(Container(name="sens", app=sensitive, sensitive=True))
        host.add_container(Container(name="bomb", app=batch))
        host.step()
        events = EventLog()
        manager = ThrottleManager(StayAwayConfig(), events)
        assert manager.preemptive_pause(10, observed(host), host)
        assert host.container("bomb").is_paused
        assert manager.throttling
        throttle_event = events.of_kind(EventKind.THROTTLE)[0]
        assert throttle_event.detail["degraded"] is True

    def test_noop_when_already_throttling_or_no_targets(self):
        host, manager, _ = throttled_setup()
        assert not manager.preemptive_pause(20, observed(host), host)  # already throttling
        empty_host = Host()
        fresh = ThrottleManager(StayAwayConfig(), EventLog())
        assert not fresh.preemptive_pause(
            5, empty_host.observe(empty_host.step()), empty_host
        )  # nothing to pause
