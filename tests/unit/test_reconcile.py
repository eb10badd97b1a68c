"""Unit tests for the action reconciliation loop and preemptive pause."""

import pytest

from repro.core.action import ESCALATION_THRESHOLD, RETRY_BACKOFF_CAP, ThrottleManager
from repro.core.config import StayAwayConfig
from repro.core.events import EventKind, EventLog
from repro.sim.container import Container
from repro.sim.faults import ActuatorFaultInjector
from repro.sim.host import Host
from repro.sim.resources import ResourceVector

from tests.conftest import ConstantApp, SensitiveStub, observed


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
        injector = ActuatorFaultInjector(host, probability=1.0).install()
        host.container("bomb").resume()

        manager.reconcile(15, observed(host), host)
        assert manager.failed_actions == 1
        assert manager.pending_retries == {"bomb": 1}
        # Backoff: next retry is 2 periods away; an immediate tick skips.
        failures, next_tick = manager._retry["bomb"]
        assert next_tick == 15 + 2
        manager.reconcile(next_tick - 1, observed(host), host)
        assert manager.failed_actions == 1  # still waiting

        waits = []
        while manager.escalations == 0:
            manager.reconcile(next_tick, observed(host), host)
            _, later = manager._retry["bomb"]
            waits.append(later - next_tick)
            next_tick = later
        assert manager.failed_actions == ESCALATION_THRESHOLD
        escalations = events.of_kind(EventKind.ACTION_ESCALATION)
        assert len(escalations) == 1
        assert escalations[0].detail["target"] == "bomb"

        # Backoff doubles, then is capped.
        while len(waits) < 4:
            manager.reconcile(next_tick, observed(host), host)
            _, later = manager._retry["bomb"]
            waits.append(later - next_tick)
            next_tick = later
        assert waits == [4, 8, 8, 8]
        assert max(waits) == RETRY_BACKOFF_CAP
        injector.remove()

    def test_recovery_after_actuator_heals(self):
        host, manager, _ = throttled_setup()
        injector = ActuatorFaultInjector(host, probability=1.0).install()
        host.container("bomb").resume()
        manager.reconcile(15, observed(host), host)
        assert manager.failed_actions == 1
        injector.remove()
        _, next_tick = manager._retry["bomb"]
        manager.reconcile(next_tick, observed(host), host)
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
        injector = ActuatorFaultInjector(host, probability=1.0).install()
        manager = ThrottleManager(config, EventLog())
        manager.step(
            tick=10,
            observation=observed(host),
            actuator=host,
            impending_violation=True,
            observed_violation=False,
            sensitive_step_distance=None,
        )
        assert host.container("bomb").is_running  # signal was lost
        assert "bomb" in manager.pending_retries
        injector.remove()
        manager.reconcile(15, observed(host), host)
        assert host.container("bomb").is_paused


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
