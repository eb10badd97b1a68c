"""Unit tests for the chaos fault layer and scripted-fault additions."""

import numpy as np
import pytest

from repro.sim.container import Container, ContainerState
from repro.sim.engine import SimulationEngine
from repro.sim.faults import (
    ActuatorFaultInjector,
    ContainerFlapper,
    DemandSpiker,
    QosDropout,
    SensorCorruptor,
)
from repro.sim.host import Host
from repro.sim.resources import ResourceVector

from tests.conftest import ConstantApp, SensitiveStub
from tests.support.scripted_faults import FaultSchedule


def simple_host():
    host = Host()
    app = ConstantApp(name="job", demand_vector=ResourceVector(cpu=1.0))
    host.add_container(Container(name="job", app=app))
    return host, app


class TestFaultScheduleRestart:
    def test_restart_revives_killed_container(self):
        host, app = simple_host()
        faults = FaultSchedule().kill(2, "job").restart(5, "job")
        SimulationEngine(host, [faults]).run(ticks=8)
        assert host.container("job").state is ContainerState.RUNNING
        assert [event.kind for event in faults.fired] == ["kill", "restart"]
        # Dead during ticks 3-5, working again after the restart.
        assert app.work_done == pytest.approx(8 - 3)

    def test_restart_of_running_container_is_noop(self):
        host, _ = simple_host()
        faults = FaultSchedule().restart(3, "job")
        SimulationEngine(host, [faults]).run(ticks=6)
        assert faults.fired == []

    def test_restart_revives_externally_paused_container(self):
        host, _ = simple_host()
        faults = FaultSchedule().pause(2, "job").restart(4, "job")
        SimulationEngine(host, [faults]).run(ticks=6)
        assert host.container("job").state is ContainerState.RUNNING


class TestDemandSpikerRobustness:
    def test_overlapping_windows_rejected(self):
        _, app = simple_host()
        with pytest.raises(ValueError, match="overlapping"):
            DemandSpiker(app, windows=[(5, 15), (10, 20)])

    def test_unsorted_non_overlapping_windows_accepted(self):
        _, app = simple_host()
        spiker = DemandSpiker(app, windows=[(20, 30), (5, 10)])
        assert spiker.active(7)
        assert not spiker.active(15)
        spiker.remove()

    def test_remove_is_idempotent(self):
        host, app = simple_host()
        original = app.demand
        spiker = DemandSpiker(app, windows=[(2, 4)])
        spiker.remove()
        spiker.remove()  # must not raise or re-wrap
        assert app.demand == original


class TestSensorCorruptor:
    class Recorder:
        def __init__(self):
            self.snapshots = []

        def on_tick(self, snapshot, host):
            self.snapshots.append(snapshot)

    @staticmethod
    def _values(snapshots):
        from repro.sim.resources import Resource

        return [
            vector.get(resource)
            for snapshot in snapshots
            for vector in snapshot.usage.values()
            for resource in Resource
        ]

    def test_inner_sees_corrupted_values_host_untouched(self):
        host, _ = simple_host()
        recorder = self.Recorder()
        corruptor = SensorCorruptor(recorder, seed=3, probability=1.0)
        result = SimulationEngine(host, [corruptor]).run(ticks=20)
        assert len(corruptor.corrupted_ticks) > 0
        # The host's own snapshots stay finite and non-negative...
        assert all(np.isfinite(v) and v >= 0 for v in self._values(result.snapshots))
        # ...while the recorder observed at least one corrupted value.
        observed = self._values(recorder.snapshots)
        assert any(not np.isfinite(v) or v < 0 or v > 1e5 for v in observed)

    def test_zero_probability_never_corrupts(self):
        host, _ = simple_host()
        recorder = self.Recorder()
        corruptor = SensorCorruptor(recorder, seed=3, probability=0.0)
        SimulationEngine(host, [corruptor]).run(ticks=20)
        assert corruptor.corrupted_ticks == []

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown corruption kinds"):
            SensorCorruptor(self.Recorder(), kinds=("nan", "gremlins"))

    def test_seeded_reproducibility(self):
        ticks = []
        for _ in range(2):
            host, _ = simple_host()
            corruptor = SensorCorruptor(self.Recorder(), seed=7, probability=0.3)
            SimulationEngine(host, [corruptor]).run(ticks=30)
            ticks.append([e.tick for e in corruptor.corrupted_ticks])
        assert ticks[0] == ticks[1]


class TestQosDropout:
    def test_probabilistic_dropout_swallows_reports(self):
        sensitive = SensitiveStub()
        host = Host()
        host.add_container(Container(name="s", app=sensitive, sensitive=True))
        dropout = QosDropout(sensitive, probability=1.0, seed=1)
        SimulationEngine(host, []).run(ticks=5)
        assert sensitive.qos_report() is None
        assert dropout.dropped_reports > 0
        dropout.remove()
        assert sensitive.qos_report() is not None

    def test_windowed_dropout_needs_clock(self):
        sensitive = SensitiveStub()
        with pytest.raises(ValueError, match="clock"):
            QosDropout(sensitive, windows=[(5, 10)])

    def test_windowed_dropout_with_clock(self):
        host = Host()
        sensitive = SensitiveStub()
        host.add_container(Container(name="s", app=sensitive, sensitive=True))
        dropout = QosDropout(sensitive, windows=[(2, 4)], clock=host.clock)
        engine = SimulationEngine(host, [])
        engine.run(ticks=2)
        assert sensitive.qos_report() is None  # tick 2: silenced
        engine.run(ticks=3)
        assert sensitive.qos_report() is not None  # tick 5: window over
        dropout.remove()
        dropout.remove()  # idempotent


class TestContainerFlapper:
    def test_flapper_toggles_and_records(self):
        host, _ = simple_host()
        flapper = ContainerFlapper(["job"], seed=2, flap_probability=0.5)
        SimulationEngine(host, [flapper]).run(ticks=40)
        kinds = {event.kind for event in flapper.fired}
        assert "pause" in kinds
        assert "resume" in kinds

    def test_kill_and_restart_cycle(self):
        host, _ = simple_host()
        flapper = ContainerFlapper(
            ["job"],
            seed=2,
            flap_probability=0.0,
            kill_probability=0.3,
            restart_probability=0.5,
        )
        SimulationEngine(host, [flapper]).run(ticks=40)
        kinds = [event.kind for event in flapper.fired]
        assert "kill" in kinds
        assert "restart" in kinds

    def test_missing_target_ignored(self):
        host, _ = simple_host()
        flapper = ContainerFlapper(["ghost"], seed=2, flap_probability=1.0)
        SimulationEngine(host, [flapper]).run(ticks=5)  # must not raise
        assert flapper.fired == []


class TestActuatorFaultInjector:
    def test_dropped_signals_recorded(self):
        host, _ = simple_host()
        host.step()  # container starts running
        injector = ActuatorFaultInjector(host, seed=1, probability=1.0).install()
        host.pause_container("job")
        assert host.container("job").is_running  # signal was swallowed
        assert injector.dropped_signals == [("pause", "job")]
        injector.remove()
        host.pause_container("job")
        assert host.container("job").is_paused  # reliable again

    def test_install_and_remove_idempotent(self):
        host, _ = simple_host()
        host.step()  # container starts running
        injector = ActuatorFaultInjector(host, probability=0.0)
        injector.install()
        injector.install()
        injector.remove()
        injector.remove()
        host.pause_container("job")
        assert host.container("job").is_paused
