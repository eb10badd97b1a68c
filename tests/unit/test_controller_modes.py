"""Unit tests for the controller's perspective-based mode classification."""

import pytest

from repro.core.config import StayAwayConfig
from repro.core.controller import StayAway
from repro.observation import RUNNING
from repro.sim.container import Container
from repro.sim.engine import SimulationEngine
from repro.sim.host import Host
from repro.sim.resources import ResourceVector
from repro.trajectory.modes import ExecutionMode

from tests.conftest import ConstantApp, SensitiveStub


class TestPerspectiveModes:
    def test_own_app_defines_sensitive_side(self):
        """Another sensitive container must not count as 'sensitive
        active' for a controller protecting a different app."""
        host = Host()
        mine = SensitiveStub(name="mine", demand_vector=ResourceVector(cpu=1.0))
        other = SensitiveStub(name="other", demand_vector=ResourceVector(cpu=1.0))
        host.add_container(Container(name="other", app=other, sensitive=True))
        host.add_container(
            Container(name="mine", app=mine, sensitive=True, start_tick=10)
        )
        controller = StayAway(mine, config=StayAwayConfig(enabled=False))
        SimulationEngine(host, [controller]).run(ticks=5)
        # 'mine' has not started: from its controller's view the system
        # is idle (no throttle-eligible containers, own app inactive).
        assert controller.trajectory[-1].mode is ExecutionMode.IDLE

    def test_throttle_victims_define_batch_side(self):
        """With a custom target selector, lower-priority sensitive
        tenants count as the batch side of the mode."""
        host = Host()
        mine = SensitiveStub(name="mine", demand_vector=ResourceVector(cpu=1.0))
        victim = SensitiveStub(name="victim", demand_vector=ResourceVector(cpu=1.0))
        host.add_container(Container(name="mine", app=mine, sensitive=True))
        host.add_container(Container(name="victim", app=victim, sensitive=True))

        def selector(observation):
            return [
                row.name
                for row in observation.rows
                if row.name == "victim" and row.state == RUNNING and not row.finished
            ]

        controller = StayAway(
            mine,
            config=StayAwayConfig(enabled=False),
            throttle_target_selector=selector,
        )
        SimulationEngine(host, [controller]).run(ticks=5)
        assert controller.trajectory[-1].mode is ExecutionMode.COLOCATED

    def test_paused_batch_means_sensitive_only(self):
        host = Host()
        sensitive = SensitiveStub(demand_vector=ResourceVector(cpu=1.0))
        bomb = ConstantApp(name="bomb", demand_vector=ResourceVector(cpu=1.0))
        host.add_container(Container(name="s", app=sensitive, sensitive=True))
        host.add_container(Container(name="bomb", app=bomb))
        controller = StayAway(sensitive, config=StayAwayConfig(enabled=False))
        engine = SimulationEngine(host, [controller])
        engine.run(ticks=3)
        assert controller.trajectory[-1].mode is ExecutionMode.COLOCATED
        host.pause("bomb")
        engine.run(ticks=3)
        assert controller.trajectory[-1].mode is ExecutionMode.SENSITIVE_ONLY

    def test_finished_sensitive_means_batch_only(self):
        host = Host()
        sensitive = SensitiveStub(demand_vector=ResourceVector(cpu=1.0))
        bomb = ConstantApp(name="bomb", demand_vector=ResourceVector(cpu=1.0))
        host.add_container(Container(name="s", app=sensitive, sensitive=True))
        host.add_container(Container(name="bomb", app=bomb))
        controller = StayAway(sensitive, config=StayAwayConfig(enabled=False))
        engine = SimulationEngine(host, [controller])
        engine.run(ticks=3)
        sensitive._finish()
        host.container("s").stop()
        engine.run(ticks=3)
        assert controller.trajectory[-1].mode is ExecutionMode.BATCH_ONLY
