"""Unit tests for multi-sensitive priority coordination (§2.1)."""

import pytest

from repro.core.config import StayAwayConfig
from repro.core.priorities import PrioritizedApp, PrioritizedStayAway
from repro.sim.container import Container
from repro.sim.engine import SimulationEngine
from repro.sim.host import Host
from repro.sim.resources import ResourceVector

from tests.conftest import ConstantApp, SensitiveStub, observed


def build_two_tier_host():
    """High-priority stream + low-priority webapp + batch hog."""
    host = Host()
    high = SensitiveStub(
        name="stream", demand_vector=ResourceVector(cpu=2.0, memory=400.0)
    )
    low = SensitiveStub(
        name="webapp", demand_vector=ResourceVector(cpu=1.5, memory=400.0)
    )
    bomb = ConstantApp(name="bomb", demand_vector=ResourceVector(cpu=3.0))
    host.add_container(Container(name="stream", app=high, sensitive=True))
    host.add_container(Container(name="webapp", app=low, sensitive=True))
    host.add_container(Container(name="bomb", app=bomb, start_tick=5))
    return host, high, low


class TestValidation:
    def test_rejects_batch_apps(self):
        with pytest.raises(ValueError):
            PrioritizedApp(app=ConstantApp(), priority=1)

    def test_rejects_duplicate_priorities(self):
        a = SensitiveStub(name="a")
        b = SensitiveStub(name="b")
        with pytest.raises(ValueError):
            PrioritizedStayAway([(a, 1), (b, 1)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PrioritizedStayAway([])


class TestCoordination:
    def test_controllers_created_per_app(self):
        host, high, low = build_two_tier_host()
        coordinator = PrioritizedStayAway([(high, 2), (low, 1)])
        assert set(coordinator.controllers) == {"stream", "webapp"}
        assert [(e.app.name, e.priority) for e in coordinator.entries] == [
            ("stream", 2), ("webapp", 1),
        ]

    def test_high_priority_can_demote_low_priority(self):
        host, high, low = build_two_tier_host()
        coordinator = PrioritizedStayAway(
            [(high, 2), (low, 1)], config=StayAwayConfig(seed=3)
        )
        SimulationEngine(host, [coordinator]).run(ticks=80)
        # 2.0 + 1.5 + 3.0 = 6.5 > 4 cores: the stream's controller must
        # act, and its victims include the lower-priority webapp.
        stream_controller = coordinator.controller_for("stream")
        assert stream_controller.throttle.throttle_count >= 1
        assert host.container("webapp").pause_count >= 1

    def test_highest_priority_never_paused(self):
        host, high, low = build_two_tier_host()
        coordinator = PrioritizedStayAway(
            [(high, 2), (low, 1)], config=StayAwayConfig(seed=4)
        )
        SimulationEngine(host, [coordinator]).run(ticks=80)
        assert host.container("stream").pause_count == 0

    def test_low_priority_controller_only_targets_batch(self):
        host, high, low = build_two_tier_host()
        coordinator = PrioritizedStayAway([(high, 2), (low, 1)])
        selector = coordinator.controllers["webapp"].throttle.throttle_targets
        host.step()  # start containers
        host.step()  # ... including the delayed bomb? (starts at 5)
        for _ in range(5):
            host.step()
        targets = selector(observed(host))
        assert "bomb" in targets
        assert "stream" not in targets
        assert "webapp" not in targets

    def test_high_priority_qos_protected(self):
        host, high, low = build_two_tier_host()
        coordinator = PrioritizedStayAway(
            [(high, 2), (low, 1)], config=StayAwayConfig(seed=5)
        )
        SimulationEngine(host, [coordinator]).run(ticks=150)
        stream_qos = coordinator.controller_for("stream").qos
        assert stream_qos.violation_ratio() < 0.25

    def test_summary_has_all_apps(self):
        host, high, low = build_two_tier_host()
        coordinator = PrioritizedStayAway([(high, 2), (low, 1)])
        SimulationEngine(host, [coordinator]).run(ticks=10)
        summary = coordinator.summary()
        assert set(summary) == {"stream", "webapp"}
        assert summary["stream"]["periods"] == 10
