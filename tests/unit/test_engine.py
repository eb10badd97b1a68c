"""Unit tests for the simulation engine."""

import pytest

from repro.sim.container import Container
from repro.sim.engine import SimulationEngine
from repro.sim.host import Host

from tests.conftest import ConstantApp


class RecordingMiddleware:
    def __init__(self):
        self.ticks = []

    def on_tick(self, snapshot, host):
        self.ticks.append(snapshot.tick)


class TestRun:
    def test_requires_a_bound(self, host):
        engine = SimulationEngine(host)
        with pytest.raises(ValueError):
            engine.run()

    def test_exclusive_bounds(self, host):
        engine = SimulationEngine(host)
        with pytest.raises(ValueError):
            engine.run(ticks=5, until_finished=True)

    def test_negative_ticks_rejected(self, host):
        with pytest.raises(ValueError):
            SimulationEngine(host).run(ticks=-1)

    def test_fixed_tick_run(self, loaded_host):
        result = SimulationEngine(loaded_host).run(ticks=7)
        assert result.ticks == 7
        assert len(result.snapshots) == 7
        assert result.duration == 7

    def test_middleware_called_every_tick(self, loaded_host):
        recorder = RecordingMiddleware()
        engine = SimulationEngine(loaded_host, middlewares=[recorder])
        engine.run(ticks=5)
        assert recorder.ticks == [0, 1, 2, 3, 4]

    def test_add_middleware_after_construction(self, loaded_host):
        engine = SimulationEngine(loaded_host)
        recorder = RecordingMiddleware()
        engine.add_middleware(recorder)
        engine.run(ticks=3)
        assert len(recorder.ticks) == 3

    def test_until_finished_stops_early(self):
        host = Host()
        host.add_container(Container(name="short", app=ConstantApp(name="short", total_work=4.0)))
        result = SimulationEngine(host).run(until_finished=True)
        assert result.ticks == 4

    def test_until_finished_respects_max_ticks(self):
        host = Host()
        host.add_container(Container(name="endless", app=ConstantApp(name="endless")))
        result = SimulationEngine(host).run(until_finished=True, max_ticks=10)
        assert result.ticks == 10

    def test_zero_tick_run(self, loaded_host):
        result = SimulationEngine(loaded_host).run(ticks=0)
        assert result.ticks == 0
        assert result.snapshots == []

    def test_middleware_can_pause_a_container(self, loaded_host):
        class Pauser:
            def on_tick(self, snapshot, host):
                if snapshot.tick == 1:
                    host.pause("constant")

        engine = SimulationEngine(loaded_host, middlewares=[Pauser()])
        result = engine.run(ticks=4)
        # Pause at tick 1 takes effect from tick 2 onward.
        assert not result.snapshots[1].usage["constant"].is_zero()
        assert result.snapshots[2].usage["constant"].is_zero()
        assert result.snapshots[3].usage["constant"].is_zero()
