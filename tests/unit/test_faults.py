"""Unit tests for fault injection."""

import pytest

from repro.sim.clock import SimulationClock
from repro.sim.container import Container, ContainerState
from repro.sim.engine import SimulationEngine
from repro.sim.faults import DemandSpiker
from repro.sim.host import Host
from repro.sim.resources import ResourceVector

from tests.conftest import ConstantApp, SensitiveStub
from tests.support.scripted_faults import FaultSchedule, MonitoringDropout


def simple_host():
    host = Host()
    app = ConstantApp(name="job", demand_vector=ResourceVector(cpu=1.0))
    host.add_container(Container(name="job", app=app))
    return host, app


class TestFaultSchedule:
    def test_kill_stops_container(self):
        host, _ = simple_host()
        faults = FaultSchedule().kill(3, "job")
        SimulationEngine(host, [faults]).run(ticks=6)
        assert host.container("job").state is ContainerState.STOPPED
        assert len(faults.fired) == 1
        assert faults.fired[0].kind == "kill"
        assert faults.fired[0].tick == 3

    def test_pause_and_resume(self):
        host, app = simple_host()
        faults = FaultSchedule().pause(2, "job").resume(5, "job")
        SimulationEngine(host, [faults]).run(ticks=8)
        assert host.container("job").is_running
        # Paused during ticks 3-5: three ticks of lost work.
        assert app.work_done == pytest.approx(8 - 3)
        assert [event.kind for event in faults.fired] == ["pause", "resume"]

    def test_unknown_target_ignored(self):
        host, _ = simple_host()
        faults = FaultSchedule().kill(1, "ghost")
        SimulationEngine(host, [faults]).run(ticks=3)
        assert faults.fired == []

    def test_resume_of_running_container_noop(self):
        host, _ = simple_host()
        faults = FaultSchedule().resume(1, "job")
        SimulationEngine(host, [faults]).run(ticks=3)
        assert faults.fired == []

    def test_chaining_returns_self(self):
        schedule = FaultSchedule()
        assert schedule.kill(1, "a").pause(2, "b") is schedule


class TestDemandSpiker:
    def test_spike_multiplies_demand(self):
        app = ConstantApp(demand_vector=ResourceVector(cpu=1.0))
        spiker = DemandSpiker(app, windows=[(5, 10)], factor=3.0)
        clock = SimulationClock()
        assert app.demand(clock).cpu == pytest.approx(1.0)
        clock.advance(5)
        assert app.demand(clock).cpu == pytest.approx(3.0)
        clock.advance(5)  # tick 10: window closed (half-open)
        assert app.demand(clock).cpu == pytest.approx(1.0)

    def test_window_validated(self):
        app = ConstantApp()
        with pytest.raises(ValueError):
            DemandSpiker(app, windows=[(5, 5)])
        with pytest.raises(ValueError):
            DemandSpiker(app, windows=[(0, 1)], factor=0.0)

    def test_remove_restores(self):
        app = ConstantApp(demand_vector=ResourceVector(cpu=1.0))
        spiker = DemandSpiker(app, windows=[(0, 100)], factor=5.0)
        clock = SimulationClock()
        assert app.demand(clock).cpu == pytest.approx(5.0)
        spiker.remove()
        assert app.demand(clock).cpu == pytest.approx(1.0)

    def test_active(self):
        app = ConstantApp()
        spiker = DemandSpiker(app, windows=[(2, 4), (8, 9)])
        assert not spiker.active(1)
        assert spiker.active(2)
        assert spiker.active(3)
        assert not spiker.active(4)
        assert spiker.active(8)


class TestMonitoringDropout:
    class Counter:
        def __init__(self):
            self.ticks = []

        def on_tick(self, snapshot, host):
            self.ticks.append(snapshot.tick)

    def test_windows_dropped(self):
        host, _ = simple_host()
        counter = self.Counter()
        dropout = MonitoringDropout(counter, windows=[(2, 5)])
        SimulationEngine(host, [dropout]).run(ticks=8)
        assert counter.ticks == [0, 1, 5, 6, 7]
        assert dropout.dropped_ticks == [2, 3, 4]

    def test_window_validated(self):
        with pytest.raises(ValueError):
            MonitoringDropout(self.Counter(), windows=[(3, 3)])

    def test_controller_survives_dropout(self):
        """The Stay-Away controller resynchronizes after losing samples."""
        from repro.core.config import StayAwayConfig
        from repro.core.controller import StayAway

        host = Host()
        sensitive = SensitiveStub(demand_vector=ResourceVector(cpu=3.0))
        bomb = ConstantApp(name="bomb", demand_vector=ResourceVector(cpu=4.0))
        host.add_container(Container(name="s", app=sensitive, sensitive=True))
        host.add_container(Container(name="bomb", app=bomb, start_tick=5))
        controller = StayAway(sensitive, config=StayAwayConfig(seed=19))
        dropout = MonitoringDropout(controller, windows=[(20, 35)])
        SimulationEngine(host, [dropout]).run(ticks=80)
        # Controller saw fewer periods but still works.
        assert len(controller.trajectory) == 80 - 15
        assert controller.qos.violation_ratio() < 0.4
        assert controller.throttle.throttle_count >= 1
