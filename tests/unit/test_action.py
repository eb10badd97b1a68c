"""Unit tests for the throttle manager."""

import pytest

from repro.core.action import RESUME_GRACE, ThrottleManager
from repro.core.config import StayAwayConfig
from repro.core.events import EventKind, EventLog
from repro.sim.container import Container
from repro.sim.host import Host
from repro.sim.resources import ResourceVector

from tests.conftest import ConstantApp, SensitiveStub, observed


def build(config=None, batch_count=1):
    host = Host()
    host.add_container(
        Container(name="sens", app=SensitiveStub(), sensitive=True)
    )
    for i in range(batch_count):
        app = ConstantApp(name=f"batch{i}")
        host.add_container(Container(name=f"batch{i}", app=app))
    host.step()  # start everything
    events = EventLog()
    manager = ThrottleManager(config or StayAwayConfig(), events)
    return host, manager, events


class TestThrottle:
    def test_no_action_without_signal(self):
        host, manager, events = build()
        fired = manager.step(0, observed(host), host, False, False, None)
        assert not fired
        assert not manager.throttling
        assert len(events) == 0

    def test_throttles_on_prediction(self):
        host, manager, events = build()
        fired = manager.step(0, observed(host), host, True, False, None)
        assert fired
        assert manager.throttling
        assert host.container("batch0").is_paused
        assert events.count(EventKind.THROTTLE) == 1
        assert events.of_kind(EventKind.THROTTLE)[-1].detail["predicted"]

    def test_throttles_on_observed_violation(self):
        host, manager, _ = build()
        assert manager.step(0, observed(host), host, False, True, None)
        assert host.container("batch0").is_paused

    def test_disabled_controller_never_acts(self):
        host, manager, _ = build(StayAwayConfig(enabled=False))
        assert not manager.step(0, observed(host), host, True, True, None)
        assert not manager.throttling

    def test_all_batch_containers_paused(self):
        host, manager, _ = build(batch_count=3)
        manager.step(0, observed(host), host, True, False, None)
        for i in range(3):
            assert host.container(f"batch{i}").is_paused

    def test_sensitive_never_paused(self):
        host, manager, _ = build()
        manager.step(0, observed(host), host, True, False, None)
        assert host.container("sens").is_running

    def test_no_throttle_without_running_batch(self):
        host, manager, _ = build()
        host.container("batch0").stop()
        assert not manager.step(0, observed(host), host, True, False, None)


class TestResume:
    def test_resumes_on_phase_change(self):
        host, manager, events = build()
        manager.step(0, observed(host), host, True, False, None)
        manager.step(1, observed(host), host, False, False, 0.005)  # below beta 0.01
        assert manager.throttling
        manager.step(2, observed(host), host, False, False, 0.05)  # above beta
        assert not manager.throttling
        assert host.container("batch0").is_running
        assert events.count(EventKind.RESUME) == 1

    def test_stays_paused_below_beta(self):
        host, manager, _ = build(StayAwayConfig(starvation_patience=10_000))
        manager.step(0, observed(host), host, True, False, None)
        for tick in range(1, 20):
            manager.step(tick, observed(host), host, False, False, 0.001)
        assert manager.throttling

    def test_none_distance_keeps_paused(self):
        host, manager, _ = build(StayAwayConfig(starvation_patience=10_000))
        manager.step(0, observed(host), host, True, False, None)
        manager.step(1, observed(host), host, False, False, None)
        assert manager.throttling

    def test_probe_resume_after_patience(self):
        config = StayAwayConfig(starvation_patience=3, probe_probability=1.0)
        host, manager, events = build(config)
        manager.step(0, observed(host), host, True, False, None)
        for tick in range(1, 5):
            manager.step(tick, observed(host), host, False, False, 0.0)
        assert not manager.throttling
        assert events.count(EventKind.PROBE_RESUME) == 1
        assert manager.probe_resume_count == 1

    def test_zero_probe_probability_never_probes(self):
        config = StayAwayConfig(starvation_patience=2, probe_probability=0.0)
        host, manager, events = build(config)
        manager.step(0, observed(host), host, True, False, None)
        for tick in range(1, 50):
            manager.step(tick, observed(host), host, False, False, 0.0)
        assert manager.throttling
        assert events.count(EventKind.PROBE_RESUME) == 0

    def test_finished_batch_clears_throttle_state(self):
        host, manager, _ = build()
        manager.step(0, observed(host), host, True, False, None)
        host.container("batch0").stop()
        manager.step(1, observed(host), host, False, False, None)
        assert not manager.throttling


class TestBetaLearning:
    def test_premature_resume_increments_beta(self):
        config = StayAwayConfig()
        host, manager, events = build(config)
        initial_beta = manager.beta
        manager.step(0, observed(host), host, True, False, None)         # throttle
        manager.step(1, observed(host), host, False, False, 0.05)        # resume (phase change)
        manager.step(2, observed(host), host, True, False, None)          # re-throttle fast
        assert manager.beta == pytest.approx(
            initial_beta + config.beta_increment
        )
        assert events.count(EventKind.BETA_INCREMENT) == 1

    def test_late_rethrottle_does_not_increment(self):
        config = StayAwayConfig()
        host, manager, _ = build(config)
        manager.step(0, observed(host), host, True, False, None)
        manager.step(1, observed(host), host, False, False, 0.05)  # resume
        manager.step(1 + RESUME_GRACE + 1, observed(host), host, True, False, None)  # outside grace window
        assert manager.beta == config.beta_initial

    def test_probe_resume_does_not_increment_beta(self):
        config = StayAwayConfig(starvation_patience=1, probe_probability=1.0)
        host, manager, _ = build(config)
        manager.step(0, observed(host), host, True, False, None)
        manager.step(1, observed(host), host, False, False, 0.0)  # probe resume
        assert not manager.throttling
        manager.step(2, observed(host), host, True, False, None)  # immediate re-throttle
        assert manager.beta == config.beta_initial
