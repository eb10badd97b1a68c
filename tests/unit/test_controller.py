"""Unit tests for the StayAway controller middleware."""

import numpy as np
import pytest

from repro.core.config import StayAwayConfig
from repro.core.controller import StayAway
from repro.core.events import EventKind
from repro.sim.container import Container
from repro.sim.engine import SimulationEngine
from repro.sim.host import Host
from repro.sim.resources import ResourceVector
from repro.trajectory.modes import ExecutionMode

from tests.conftest import ConstantApp, SensitiveStub


def contended_setup(batch_cpu=4.0, sensitive_cpu=3.0, batch_start=5):
    """Sensitive app + a CPU hog that forces violations when co-run."""
    host = Host()
    sensitive = SensitiveStub(demand_vector=ResourceVector(cpu=sensitive_cpu, memory=500.0))
    bomb = ConstantApp(name="bomb", demand_vector=ResourceVector(cpu=batch_cpu, memory=64.0))
    host.add_container(Container(name="sens", app=sensitive, sensitive=True))
    host.add_container(Container(name="bomb", app=bomb, start_tick=batch_start))
    return host, sensitive, bomb


class TestControllerBasics:
    def test_rejects_batch_app(self):
        with pytest.raises(ValueError):
            StayAway(ConstantApp())

    def test_runs_and_records_trajectory(self):
        host, sensitive, _ = contended_setup()
        controller = StayAway(sensitive, config=StayAwayConfig(seed=1))
        SimulationEngine(host, [controller]).run(ticks=30)
        assert len(controller.trajectory) == 30
        summary = controller.summary()
        assert summary["periods"] == 30
        assert summary["states"] >= 1

    def test_a_period_keeps_one_read_only_copy_of_its_coordinates(self):
        host, sensitive, _ = contended_setup()
        controller = StayAway(sensitive, config=StayAwayConfig(seed=1))
        SimulationEngine(host, [controller]).run(ticks=30)
        mapped = controller.mapping.latest
        coords = mapped.coords
        assert coords.base is None and not coords.flags.writeable
        assert controller.trajectory[-1].coords is coords
        assert controller._prev_coords is coords
        modes = controller.predictor.modes
        assert modes.model(modes.current_mode).last_point is coords
        # A copy of the map's row, not a view: a refit (or a poisoned
        # row) rewrites the map without touching the period's record.
        kept = coords.tolist()
        controller.state_space.coords[mapped.state_index] = 7.0
        assert coords.tolist() == kept

    def test_modes_tracked_correctly(self):
        host, sensitive, _ = contended_setup(batch_start=10)
        controller = StayAway(sensitive, config=StayAwayConfig(enabled=False))
        SimulationEngine(host, [controller]).run(ticks=20)
        modes = [point.mode for point in controller.trajectory]
        assert modes[0] is ExecutionMode.SENSITIVE_ONLY
        assert ExecutionMode.COLOCATED in modes


class TestControlBehaviour:
    def test_throttles_under_contention(self):
        host, sensitive, _ = contended_setup()
        controller = StayAway(sensitive)
        SimulationEngine(host, [controller]).run(ticks=60)
        assert controller.throttle.throttle_count >= 1
        assert controller.events.count(EventKind.THROTTLE) >= 1

    def test_qos_mostly_protected(self):
        host, sensitive, _ = contended_setup()
        controller = StayAway(sensitive)
        SimulationEngine(host, [controller]).run(ticks=200)
        # Uncontrolled, every co-located tick violates; Stay-Away must
        # keep the violation ratio low after learning.
        assert controller.qos.violation_ratio() < 0.2

    def test_disabled_controller_observes_but_never_acts(self):
        host, sensitive, bomb = contended_setup()
        controller = StayAway(sensitive, config=StayAwayConfig(enabled=False))
        SimulationEngine(host, [controller]).run(ticks=100)
        assert controller.throttle.throttle_count == 0
        assert host.container("bomb").pause_count == 0
        # ... yet the map was still learned.
        assert controller.state_space.violation_indices.size > 0

    def test_sensitive_container_never_paused(self):
        host, sensitive, _ = contended_setup()
        controller = StayAway(sensitive)
        SimulationEngine(host, [controller]).run(ticks=150)
        assert host.container("sens").pause_count == 0

    def test_violation_events_recorded(self):
        host, sensitive, _ = contended_setup()
        controller = StayAway(sensitive, config=StayAwayConfig(enabled=False))
        SimulationEngine(host, [controller]).run(ticks=50)
        assert controller.events.count(EventKind.VIOLATION) > 0

    def test_throttling_flag_in_trajectory(self):
        host, sensitive, _ = contended_setup()
        controller = StayAway(sensitive)
        SimulationEngine(host, [controller]).run(ticks=100)
        assert any(point.throttling for point in controller.trajectory)


class TestTemplateExport:
    def test_export_roundtrip(self):
        host, sensitive, _ = contended_setup()
        controller = StayAway(sensitive)
        SimulationEngine(host, [controller]).run(ticks=100)
        template = controller.export_template(note="unit-test")
        assert template.metadata["note"] == "unit-test"
        assert template.violation_count == controller.state_space.violation_indices.size
        assert template.beta == controller.throttle.beta

    def test_template_seeds_new_controller(self):
        host, sensitive, _ = contended_setup()
        controller = StayAway(sensitive)
        SimulationEngine(host, [controller]).run(ticks=100)
        template = controller.export_template()

        host2, sensitive2, _ = contended_setup()
        seeded = StayAway(sensitive2, template=template)
        assert len(seeded.state_space) == len(controller.state_space)
        assert seeded.throttle.beta == controller.throttle.beta
        SimulationEngine(host2, [seeded]).run(ticks=20)
        assert len(seeded.trajectory) == 20
